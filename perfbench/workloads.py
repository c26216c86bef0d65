"""The benchmark's workloads: the adasize command each one runs and the checks on its outputs.

readme-compare  the README `compare` example: six fixed and adaptive GD/AGD/SVRG
                runs on generated data; full-gradient matvecs, the trace
                recorder, two reference solves and `--gen` text hashing.
rcv1-svrg       `run --method svrg --adaptive` on RCV1-shaped sparse-text files,
                one per program seed (20242 training rows, 47236 columns, ~70
                nonzeros per row): parsing a ~28 MB file and SVRG inner steps
                at high dimension.
verify-suite    `verify` at dimension 20: many tiny solves and inner steps, so
                per-call overhead dominates; no file parsing, no trace output.

Each check returns the problems it found; a command with any problem counts
as failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

TRACE_HEADER = "effective_passes,grad_evals,stage_n,suboptimality,grad_norm,test_error"
SUMMARY_HEADER = ("method,adaptive,passes_to_VN,passes_to_min_test_error,min_test_error,"
                  "speedup_vs_fixed")
CHECKS_HEADER = "name,trials,violations,worst_margin,passed"
METHODS = ("gd", "agd", "svrg")
VERIFY_CHECK_COUNT = 8  # fd x2, svrg_direction, lemma1, lemma2, proposition1, theorem x2


@dataclass(frozen=True)
class Scale:
    compare_gen: str
    rcv1_train_rows: int
    verify_gen: str
    verify_draws: int
    verify_trials: int


SCALES = {
    "full": Scale(compare_gen="16384,100,0.3", rcv1_train_rows=20242,
                  verify_gen="8192,20,1.0", verify_draws=1, verify_trials=50),
    # smoke-test scale: same commands and checks, seconds instead of minutes
    "tiny": Scale(compare_gen="2048,20,0.3", rcv1_train_rows=2000,
                  verify_gen="1024,10,1.0", verify_draws=1, verify_trials=5),
}
NAMES = ("readme-compare", "rcv1-svrg", "verify-suite")
SEEDS_PER_RUN = 3


def program_seeds(seed: int) -> list[int]:
    """The program seeds one run cycles through; rcv1-svrg has one input file per seed."""
    return [seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]


@dataclass
class Outcome:
    """What the checks found in one command's outputs."""

    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    trace_grad_evals: int | None = None   # sum of the final grad_evals of written traces
    passes_to_VN: dict[str, float] = field(default_factory=dict)


def argv(workload: str, scale: str, seed: int, dataset: str | None) -> list[str]:
    sc = SCALES[scale]
    if workload == "readme-compare":
        return ["compare", "--gen", sc.compare_gen, "--m0", "256", "--m-mode", "tight",
                "--gamma", "2", "--adaptive", "--seed", str(seed)]
    if workload == "rcv1-svrg":
        return ["run", "--dataset", str(dataset), "--method", "svrg", "--adaptive",
                "--m0", "256", "--m-mode", "tight", "--gamma", "0.5",
                "--N", str(sc.rcv1_train_rows), "--seed", str(seed)]
    if workload == "verify-suite":
        return ["verify", "--gen", sc.verify_gen, "--m-mode", "tight",
                "--draws", str(sc.verify_draws), "--trials", str(sc.verify_trials),
                "--seed", str(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def _accuracy_target(gamma: float, N: int, alpha: float = 0.5) -> float:
    """V_N = gamma / N^alpha, the statistical accuracy an adaptive run must reach."""
    return gamma / N**alpha


def _check_trace(text: str, name: str, adaptive: bool, target: float, out: Outcome,
                 want_test_error: bool) -> float | None:
    """Checks one trace CSV; returns effective passes to `target` for adaptive runs."""
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        out.problems.append(f"{name}: bad header")
        return None
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        out.problems.append(f"{name}: no rows")
        return None
    evals = [int(r["grad_evals"]) for r in rows]
    if any(b <= a for a, b in zip(evals, evals[1:])):
        out.problems.append(f"{name}: grad_evals not strictly increasing")
    out.trace_grad_evals = (out.trace_grad_evals or 0) + evals[-1]
    if want_test_error and any(r["test_error"] == "" for r in rows):
        out.problems.append(f"{name}: missing test error")
    if not adaptive:
        return None
    final = float(rows[-1]["suboptimality"])
    if not final <= target:
        out.problems.append(f"{name}: final suboptimality {final:.6g} above V_N {target:.6g}")
    for r in rows:
        if float(r["suboptimality"]) <= target:
            return float(r["effective_passes"])
    return None


def _check_manifest(text: str, outputs: list[str], out: Outcome) -> None:
    listed = [line.split(" = ", 1)[1] for line in text.splitlines()
              if line.startswith("output = ")]
    if listed != outputs:
        out.problems.append(f"manifest lists {listed}, expected {outputs}")


def check(workload: str, scale: str, seed: int, out_dir: Path, stdout: str) -> Outcome:
    """Checks the files a command wrote into `out_dir` and what it printed."""
    out = Outcome()
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}
    out.hashes = {name: hashlib.sha256(blob).hexdigest() for name, blob in files.items()}
    text = {name: blob.decode() for name, blob in files.items()}

    def need(name: str) -> str | None:
        if name not in text:
            out.problems.append(f"missing output {name}")
        return text.get(name)

    sc = SCALES[scale]
    if workload == "readme-compare":
        N = int(sc.compare_gen.split(",")[0])
        target = _accuracy_target(2.0, N)
        traces = [f"trace_{m}_{kind}_seed{seed}.csv" for m in METHODS for kind in ("fix", "ada")]
        for name in traces:
            if (body := need(name)) is not None:
                passes = _check_trace(body, name, name.endswith(f"ada_seed{seed}.csv"), target,
                                      out, want_test_error=False)
                if passes is not None:
                    out.passes_to_VN[name.split("_")[1]] = passes
        summary_name = f"summary_seed{seed}.csv"
        if (summary := need(summary_name)) is not None:
            lines = summary.splitlines()
            if lines[:1] != [SUMMARY_HEADER] or len(lines) != 7:
                out.problems.append(f"{summary_name}: expected header and 6 rows")
            if any("diverged" in line for line in lines):
                out.problems.append(f"{summary_name}: a run diverged")
            for row in csv.DictReader(io.StringIO(summary)):
                if row["adaptive"] == "true" and row["passes_to_VN"] != "":
                    if float(row["passes_to_VN"]) != out.passes_to_VN.get(row["method"]):
                        out.problems.append(f"{summary_name}: {row['method']} passes_to_VN "
                                            "disagrees with its trace")
        if (manifest := need(f"manifest_compare_seed{seed}.txt")) is not None:
            _check_manifest(manifest, traces + [summary_name], out)
    elif workload == "rcv1-svrg":
        N = sc.rcv1_train_rows
        name = f"trace_svrg_ada_seed{seed}.csv"
        if (body := need(name)) is not None:
            passes = _check_trace(body, name, True, _accuracy_target(0.5, N), out,
                                  want_test_error=True)
            if passes is not None:
                out.passes_to_VN["svrg"] = passes
        if (manifest := need(f"manifest_run_seed{seed}.txt")) is not None:
            _check_manifest(manifest, [name], out)
    elif workload == "verify-suite":
        name = f"checks_seed{seed}.csv"
        if (body := need(name)) is not None:
            lines = body.splitlines()
            if lines[:1] != [CHECKS_HEADER] or len(lines) != VERIFY_CHECK_COUNT + 1:
                out.problems.append(f"{name}: expected header and {VERIFY_CHECK_COUNT} checks")
            if lines[1:] != stdout.splitlines():
                out.problems.append(f"{name}: printed report lines differ from the file")
            for line in lines[1:]:
                if not line.endswith(",true"):
                    out.problems.append(f"check failed: {line}")
        if (manifest := need(f"manifest_verify_seed{seed}.txt")) is not None:
            _check_manifest(manifest, [name], out)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
