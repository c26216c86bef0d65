"""Benchmark worker: one process that runs a workload's adasize commands in a closed loop.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and BLAS
threads pinned.  One client issues one command at a time through
`adasize.cli.main`, each into a fresh output directory, and checks its
outputs before the next.  The first command warms the process up (heap
growth, caches): it is checked but not timed, and its outputs are the
reference that repeats of its seed must match byte for byte.  The untraced
run (trace 0) then cycles through the program seeds derived from the
workload seed until the time is used and reports end-to-end metrics.
The traced run (trace 1) runs the first seed once more untraced, then
traced, and reports per-layer metrics.  The result is written as JSON to
the path given in the config.

The host this runs on is shared, and the speed of each of its cores
changes by up to 2x, in steps that last from about a second to minutes.  So `HostProbe` samples the core's speed during every command,
and end-to-end timings, and the tracing overhead, are given in reference
seconds: a command's measured seconds, without the probe's own time, times
PROBE_REF_S over the mean time of the probe samples taken during it.  The
measured seconds are kept in the result file and printed, with the probe
times, on the line before the result.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

import workloads
from tracer import DRIVER_RUNS, VERIFY_CHECKS, Hooks, Tracer

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

PER_COMMAND = (("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"), ("grad_evals_per_s", "1/s"))
PROBE_REF_S = 1.2e-3  # a probe sample's time on the core that end-to-end timings are scaled to
END_TO_END = (*PER_COMMAND, ("peak_rss_mb", "MB"))
LAYER_FUNCTIONS = (
    "cli.main",
    "data.parse_sparse_text", "data.Dataset.to_sparse_text", "data.generate_synthetic",
    "data.normalize", "data.shuffle_and_split",
    "erm.smoothness_constant", "erm.risk_value_and_grad", "erm.risk_value", "erm.test_error",
    "solvers.svrg_direction", "solvers.svrg_epoch", "solvers.gd_step", "solvers.agd_step",
    "solvers.grad_norm_at", "solvers.solve",
    *(f"driver.{n}" for n in DRIVER_RUNS), "driver._Recorder.record",
    "bench.reference_optimum", "bench.trace_csv_text", "bench.compare_matrix",
    *(f"verify.{n}" for n in VERIFY_CHECKS), "verify.unregularized_optimum_proxy",
)
LAYER_COUNTS = (
    ("data.parse_sparse_text.bytes", "B"),
    ("data.Dataset.to_sparse_text.bytes", "B"),
    ("erm.risk_value_and_grad.rows", "count"),
    ("erm.risk_value.rows", "count"),
    ("erm.test_error.rows", "count"),
)
PER_LAYER = (
    *((f"{fn}.{kind}", unit) for fn in LAYER_FUNCTIONS
      for kind, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))),
    *LAYER_COUNTS,
    ("solvers.svrg_direction.us_per_call", "us"),
    ("cli.import_s", "s"),
    ("work.counted_grad_evals", "count"),
    ("work.actual_rows", "count"),
    ("work.actual_over_counted", "ratio"),
    ("schedule.svrg_precondition_warnings", "count"),
    *((f"passes_to_VN.{m}", "passes") for m in workloads.METHODS),
    ("trace.overhead_s", "s"),
)


class HostProbe:
    """Samples how fast the worker's core runs while commands run.

    Every INTERVAL_S of wall time SIGALRM runs `sample` in the main thread: a
    fixed piece of work of about PROBE_REF_S whose start and duration are
    recorded.  It mixes the three kinds of work adasize spends its time on,
    in about equal parts: an interpreter loop, numpy calls on small vectors
    and matrix-vector products over a matrix about the size of the L2
    cache.  The work is the same every time, so its duration follows the
    core's speed.  The command waits while it runs, and the samples' time
    is taken out of the command's.
    """

    INTERVAL_S = 0.2

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        rng = np.random.default_rng(20170901)
        self.small = rng.standard_normal(20)
        self.matrix = rng.standard_normal((2048, 100))
        self.vec = rng.standard_normal(100)

    def sample(self, *_) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(7_000):
            total += i * i
        y = self.small
        for _ in range(150):
            y = 0.5 * y + self.small
            total += float(y @ self.small)
        for _ in range(3):
            self.matrix.T @ (self.matrix @ self.vec)
        duration = time.perf_counter() - start
        self.samples.append((start, duration))
        return duration

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference(command: dict, name: str, unit: str) -> float:
    """A command's figure on the reference core: seconds scaled by PROBE_REF_S over
    the command's mean probe time, rates by its inverse."""
    speed = PROBE_REF_S / command["probe_mean_s"]
    return command[name] / speed if unit == "1/s" else command[name] * speed


class WarningCounter:
    """Counts every warning the program emits; none is filtered out or lost."""

    PRECONDITION = "svrg contraction precondition violated"

    def __init__(self):
        self.svrg_precondition = 0
        self.other: dict[str, int] = {}

    def install(self) -> None:
        # "always" so that repeats are counted, not collapsed to one per location
        warnings.simplefilter("always")
        warnings.showwarning = self._record

    def _record(self, message, category, filename, lineno, file=None, line=None):
        if category is RuntimeWarning and str(message).startswith(self.PRECONDITION):
            self.svrg_precondition += 1
        else:
            key = f"{category.__name__}: {message}"
            self.other[key] = self.other.get(key, 0) + 1


def environment(cpus: set) -> dict:
    import numpy
    import scipy

    def cache(name: int) -> int | None:
        # glibc sysconf ids of the L1d, L2 and L3 sizes, which Python does not name
        try:
            return os.sysconf(name)
        except (ValueError, OSError):
            return None

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(cpus),
        "worker_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cache_bytes": {"L1d": cache(188), "L2": cache(191), "L3": cache(194)},
        "machine": platform.machine(),
    }


class Runner:
    def __init__(self, cfg: dict, cli, modules: dict):
        self.cfg = cfg
        self.cli = cli
        self.modules = modules
        self.out_dir = Path(cfg["work_dir"]) / "out" / cfg["workload"]
        self.datasets = cfg["datasets"]  # program seed -> input file, where one is needed
        self.hooks = Hooks(modules)
        self.warnings = WarningCounter()
        self.warnings.install()
        self.tracer: Tracer | None = None
        self.commands: list[dict] = []
        self.first_hashes: dict[int, dict] = {}
        self.first_counted: dict[int, int] = {}
        self.probe = HostProbe()

    def command(self, seed: int, warmup: bool = False) -> dict:
        """Runs one command, times it and checks its outputs."""
        wl, scale = self.cfg["workload"], self.cfg["scale"]
        args = workloads.argv(wl, scale, seed, self.datasets.get(str(seed)))
        args += ["--out", str(self.out_dir)]
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.hooks.reset()
        warned = self.warnings.svrg_precondition
        if self.tracer:
            self.tracer.command = len(self.commands)
        stdout, stderr = io.StringIO(), io.StringIO()
        problems = []
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(args)
        except Exception:  # a raising command is a failed one; the loop goes on
            rc = None
            problems.append("raised: " + traceback.format_exc(limit=3))
        end = time.perf_counter()
        first_solve = self.hooks.first_solve_call
        during = [(t, d) for t, d in self.probe.samples if start <= t <= end]
        probe_s = sum(d for _, d in during)

        rec = {"seed": seed, "warmup": warmup, "traced": self.tracer is not None, "rc": rc,
               "wall_s": end - start - probe_s,
               "counted_grad_evals": self.hooks.counted_grad_evals,
               "svrg_precondition_warnings": self.warnings.svrg_precondition - warned}
        if rc != 0 and rc is not None:
            problems.append(f"exit code {rc}: {stderr.getvalue().strip()[-500:]}")
        # a command too short for a sample gets the one right after it
        durations = [d for _, d in during] or [self.probe.sample()]
        rec["probe_mean_s"] = statistics.fmean(durations)
        rec["probe_s"] = probe_s
        rec["probe_samples"] = len(during)
        if first_solve is None:
            problems.append("never entered the solve phase")
        else:
            setup_probe_s = sum(d for t, d in during if t < first_solve)
            rec["setup_s"] = first_solve - start - setup_probe_s
            rec["solve_s"] = rec["wall_s"] - rec["setup_s"]
            rec["grad_evals_per_s"] = self.hooks.counted_grad_evals / rec["solve_s"]
        if rc == 0:
            outcome = workloads.check(wl, scale, seed, self.out_dir, stdout.getvalue())
            problems += outcome.problems
            rec["passes_to_VN"] = outcome.passes_to_VN
            if outcome.trace_grad_evals not in (None, self.hooks.counted_grad_evals):
                problems.append(f"written traces count {outcome.trace_grad_evals} grad evals, "
                                f"the driver returned {self.hooks.counted_grad_evals}")
            if self.hooks.counted_grad_evals < 1:
                problems.append("no counted gradient evaluations")
            first = self.first_hashes.setdefault(seed, outcome.hashes)
            if outcome.hashes != first:
                changed = sorted(k for k in first.keys() | outcome.hashes.keys()
                                 if first.get(k) != outcome.hashes.get(k))
                problems.append(f"outputs differ from the first run of seed {seed}: {changed}")
            counted = self.first_counted.setdefault(seed, self.hooks.counted_grad_evals)
            if counted != self.hooks.counted_grad_evals:
                problems.append(f"counted grad evals {self.hooks.counted_grad_evals} differ from "
                                f"the first run of seed {seed} ({counted})")
        if self.tracer:
            rec["layer"] = self.tracer.take()
        rec["problems"] = problems
        self.commands.append(rec)
        return rec

    def loop(self, seeds: list[int], deadline: float, min_commands: int) -> None:
        """Closed loop over `seeds` until the next command would end after `deadline`."""
        last = {c["seed"]: c["wall_s"] for c in self.commands}
        i = 0
        while True:
            seed = seeds[i % len(seeds)]
            expected = last.get(seed, max(last.values(), default=0.0))
            if i >= min_commands and time.perf_counter() + expected > deadline:
                return
            last[seed] = self.command(seed)["wall_s"]
            i += 1

    def run(self) -> tuple[dict, list]:
        seeds = workloads.program_seeds(self.cfg["seed"])
        deadline = time.perf_counter() + self.cfg["seconds"]
        self.probe.start()
        try:
            # the first command grows the heap and fills caches; it is checked
            # but not timed, and its outputs are the reference for later repeats
            self.command(seeds[0], warmup=True)
            if self.cfg["trace"]:
                self.command(seeds[0])  # the untraced time tracing overhead is measured against
                self.tracer = Tracer(self.modules)
                self.loop(seeds[:1], deadline, min_commands=1)
            else:
                self.loop(seeds, deadline, min_commands=len(seeds))
        finally:
            self.probe.stop()
        if self.cfg["trace"]:
            return self._per_layer(), self.tracer.spans
        return self._end_to_end(), []

    def _ok(self, traced: bool) -> list[dict]:
        return [c for c in self.commands
                if not c["problems"] and not c["warmup"] and c["traced"] == traced]

    def _end_to_end(self) -> dict:
        ok = self._ok(traced=False)
        if not ok:
            raise RuntimeError("no command succeeded")
        metrics = {}
        for name, unit in PER_COMMAND:
            # per command in reference seconds; median over repeats of one
            # seed, then mean over the run's seeds
            per_seed = {}
            for c in ok:
                per_seed.setdefault(c["seed"], []).append(reference(c, name, unit))
            value = statistics.fmean(statistics.median(v) for v in per_seed.values())
            metrics[name] = (value, unit)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        return metrics

    def measured(self) -> dict:
        """Medians of the measured (unscaled) seconds and of the probe's times."""
        ok = self._ok(traced=self.tracer is not None)
        keys = ["probe_mean_s"] + [name for name, unit in PER_COMMAND if unit == "s"]
        return {k: statistics.median(c[k] for c in ok) for k in keys if all(k in c for c in ok)}

    def _per_layer(self) -> dict:
        traced = self._ok(traced=True)
        untraced = self._ok(traced=False)
        if not traced or not untraced:
            raise RuntimeError("no traced or no untraced command succeeded")

        def median(key: str) -> float:
            return statistics.median(c["layer"].get(key, 0) for c in traced)

        first = traced[0]
        metrics = {}
        for name, unit in PER_LAYER:
            metrics[name] = (median(name), unit)
        calls = metrics["solvers.svrg_direction.calls"][0]
        us = 1e6 * metrics["solvers.svrg_direction.s"][0] / calls if calls else 0.0
        metrics["solvers.svrg_direction.us_per_call"] = (us, "us")
        metrics["cli.import_s"] = (self.cfg["import_s"], "s")
        counted = first["counted_grad_evals"]
        actual = median("work.actual_rows")
        metrics["work.counted_grad_evals"] = (counted, "count")
        metrics["work.actual_rows"] = (actual, "count")
        metrics["work.actual_over_counted"] = (actual / counted if counted else 0.0, "ratio")
        metrics["schedule.svrg_precondition_warnings"] = (
            first["svrg_precondition_warnings"], "count")
        for m in workloads.METHODS:
            # 0 where the workload has no adaptive run of the method
            metrics[f"passes_to_VN.{m}"] = (first.get("passes_to_VN", {}).get(m, 0.0), "passes")
        overhead = statistics.median(reference(c, "wall_s", "s") for c in traced) \
            - reference(untraced[0], "wall_s", "s")
        metrics["trace.overhead_s"] = (overhead, "s")
        return metrics


def main() -> int:
    cfg = json.loads(sys.argv[1])
    # one core for the commands and the probe both: the cores of a shared
    # host change speed independently, so a process that moved between
    # them would be timed on one and probed on another
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    src = (Path(cfg["root"]) / "src" / "adasize").resolve()
    start = time.perf_counter()
    import adasize
    from adasize import bench, cli, data, driver, erm, solvers, verify
    cfg["import_s"] = time.perf_counter() - start
    if Path(adasize.__file__).resolve().parent != src:
        print(f"error: imported adasize from {adasize.__file__}, not {src}", file=sys.stderr)
        return 2
    modules = {"cli": cli, "data": data, "erm": erm, "solvers": solvers, "driver": driver,
               "bench": bench, "verify": verify}
    runner = Runner(cfg, cli, modules)
    metrics, spans = runner.run()
    ok = [c for c in runner.commands if not c["problems"]]
    summary = {
        "correct": len(ok) == len(runner.commands),
        "attempted": len(runner.commands),
        "failed": len(runner.commands) - len(ok),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    result = {"environment": environment(cpus), "measured_s": runner.measured(),
              "summary": summary, "commands": runner.commands,
              "other_warnings": runner.warnings.other}
    result_path = Path(cfg["result_path"])
    if spans:
        tracer = runner.tracer
        fields = ("command", "id", "parent", "name", "start", "end", "self_s")
        with open(result_path.with_suffix(".spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
        result["spans"] = {"kept": len(spans), "dropped": tracer.dropped_spans}
    tmp = result_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(result, indent=1))
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
