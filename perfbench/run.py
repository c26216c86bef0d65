"""adasize benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload readme-compare --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The inputs are made from --seed (the same
seed gives the same inputs); the RCV1-shaped file is generated once per
seed into .perfbench/data and its generation is not measured.  The
commands run in one worker process that imports adasize from the
checkout's src/, with BLAS limited to one thread.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: end-to-end metrics with --trace 0, per-layer metrics
from a traced run with --trace 1.  End-to-end timings are scaled by the
speed of the host's core, measured while the commands run (see worker.py).
The line before the result records the environment and the measured,
unscaled seconds.  Per-command details, and the spans of a traced run, are
written under .perfbench/results.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
DEADLINE_S = 170  # the whole run, generation included, ends well within 180 s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="input size; 'tiny' is for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    start = time.monotonic()

    if not (ROOT / "src" / "adasize" / "__init__.py").is_file():
        print(f"error: no adasize sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench"
    results = work_dir / "results"
    results.mkdir(parents=True, exist_ok=True)

    datasets = {}
    if args.workload == "rcv1-svrg":
        # its own process, so that generation adds nothing to the worker's peak RSS
        seeds = [str(s) for s in workloads.program_seeds(args.seed)]
        try:
            gen = subprocess.run([sys.executable, str(ROOT / "perfbench" / "rcv1_like.py"),
                                  str(work_dir / "data"), args.scale, *seeds],
                                 capture_output=True, text=True, timeout=DEADLINE_S / 2)
        except subprocess.TimeoutExpired:
            print("error: dataset generation timed out", file=sys.stderr)
            return 2
        if gen.returncode != 0:
            print(f"error: dataset generation failed: {gen.stderr[-2000:]}", file=sys.stderr)
            return 2
        datasets = json.loads(gen.stdout)

    result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    # one BLAS thread: the host's cores are shared, and a second thread would
    # make every matrix product wait on the slower of two cores
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cfg = {"root": str(ROOT), "work_dir": str(work_dir), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "scale": args.scale, "datasets": datasets,
           "result_path": str(result_path)}
    timeout = DEADLINE_S - (time.monotonic() - start)
    try:
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                               json.dumps(cfg)], env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        print(f"error: worker exceeded {timeout:.0f} s", file=sys.stderr)
        return 2
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(result_path.read_text())
    print(json.dumps({"environment": result["environment"], "measured_s": result["measured_s"]}))
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
