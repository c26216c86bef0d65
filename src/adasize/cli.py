"""Command-line harness: dataset generation, runs, comparisons, bound tables, checks.

Exit codes: 0 success, 1 usage error, 2 runtime failure.  Output files are
written atomically (temp file, then rename) under the output directory,
which defaults to $ADASIZE_OUT or the working directory.  A flat
`key = value` config file may supply any flag's default; explicit flags
win.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from importlib import metadata
from pathlib import Path


from . import bench, data, driver, erm, schedule, verify
from .driver import RunConfig
from .erm import RiskSpec


class UsageError(Exception):
    pass


# the names `verify --checks` accepts; `all` selects every one
_CHECK_NAMES = ("fd", "svrg_direction", "lemma1", "lemma2", "proposition1", "theorem")
# the checks whose subset sizes come from N // 4, so they need N >= 4
_SUBSET_CHECKS = {"lemma1", "lemma2", "proposition1", "theorem"}
# the checks that read ||w*||^2, which cmd_verify sets to the proxy once per run
_PROXY_CHECKS = {"lemma2", "proposition1", "theorem"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        raise UsageError(message)


def _version() -> str:
    try:
        return metadata.version("adasize")
    except metadata.PackageNotFoundError:  # pragma: no cover
        return "0.0.0+unpackaged"


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _config_defaults(p: argparse.ArgumentParser, file_values: dict[str, str]) -> dict:
    """The file's values for p's flags, converted and checked as the command line would."""
    out = {}
    for a in p._actions:
        if a.dest not in file_values:
            continue
        raw = file_values[a.dest]
        if isinstance(a, argparse._StoreTrueAction):
            if raw.lower() not in ("true", "false"):
                raise UsageError(f"config key {a.dest} = {raw!r} is not true or false")
            val = raw.lower() == "true"
        elif a.type is not None:
            try:
                val = a.type(raw)
            except ValueError:
                raise UsageError(f"config key {a.dest} = {raw!r} is not "
                                 f"a valid {a.type.__name__}") from None
        else:
            val = raw
        if a.choices and val not in a.choices:  # argparse checks choices on the command line only
            raise UsageError(f"config key {a.dest} = {raw!r} is not one of {', '.join(a.choices)}")
        out[a.dest] = val
    return out


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loss", choices=erm.LOSSES, default="logistic")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--m-mode", choices=("paper", "tight"), default="paper",
                   help="smoothness constant: unit (normalized data) or tight per-loss")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", help="sparse text file (label idx:val ...)")
    p.add_argument("--label-map", default=None,
                   help="raw-label mapping like '0:-1,8:1' for non-binary raw labels")
    p.add_argument("--gen", default=None, metavar="N,DIM,SPARSITY",
                   help="generate synthetic data instead of reading a file")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip unit-norm scaling of samples")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=("gd", "agd", "svrg"), default="agd")
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("--m0", type=int, default=400)
    p.add_argument("--N", type=int, default=0, help="training-set size (0: all samples)")
    p.add_argument("--budget", choices=("threshold", "theory"), default="threshold")
    p.add_argument("--eval-every", type=int, default=1)
    p.add_argument("--pass-cap", type=int, default=100)
    p.add_argument("--wstar", type=float, default=0.0,
                   help="||w*||^2 used inside the theoretical iteration counts")


def build_parser(file_defaults: dict | None = None) -> _Parser:
    parser = _Parser(prog="adasize",
                     description="adaptive sample-size first-order methods for regularized ERM")
    parser.add_argument("--config", help="flat key = value defaults file")
    sub = parser.add_subparsers(dest="command")

    common: list[argparse.ArgumentParser] = []

    def subparser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        # no default here, so a top-level abbreviation such as --conf survives to the check in main
        p.add_argument("--config", default=argparse.SUPPRESS, help="flat key = value defaults file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output directory (default $ADASIZE_OUT or .)")
        common.append(p)
        return p

    p_gen = subparser("gen", "generate a synthetic dataset file")
    p_gen.add_argument("--gen", required=True, metavar="N,DIM,SPARSITY")
    p_gen.add_argument("--normalize", action="store_true")

    p_run = subparser("run", "run one method and write its trace CSV")
    _add_data_flags(p_run)
    _add_spec_flags(p_run)
    _add_run_flags(p_run)

    p_cmp = subparser("compare", "run gd/agd/svrg, fixed and adaptive, and summarize")
    _add_data_flags(p_cmp)
    _add_spec_flags(p_cmp)
    _add_run_flags(p_cmp)

    p_bounds = subparser("bounds", "print the per-stage plan table and complexity totals")
    p_bounds.add_argument("--N", type=int, required=True)
    p_bounds.add_argument("--m0", type=int, required=True)
    p_bounds.add_argument("--alpha", type=float, default=0.5)
    p_bounds.add_argument("--c", type=float, default=1.0)
    p_bounds.add_argument("--gamma", type=float, default=1.0)
    p_bounds.add_argument("--M", type=float, default=1.0)
    p_bounds.add_argument("--wstar", type=float, default=0.0)
    p_bounds.add_argument("--csv", default=None, help="also write the table as CSV here")

    p_ver = subparser("verify", "run the empirical check suite and emit report lines")
    _add_data_flags(p_ver)
    _add_spec_flags(p_ver)
    p_ver.add_argument("--N", type=int, default=0, help="base-set size (0: all samples)")
    p_ver.add_argument("--m0", type=int, default=256)
    p_ver.add_argument("--draws", type=int, default=200)
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--checks", default="all",
                       help=f"all, or a comma list of: {','.join(_CHECK_NAMES)}")

    if file_defaults:
        for p in common:
            values = _config_defaults(p, file_defaults)
            for a in p._actions:  # a value from the file fills a required flag too
                if a.dest in values:
                    a.required = False
            p.set_defaults(**values)
    return parser


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("ADASIZE_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _from_flags(make, *args, **kwargs):
    """make(*args, **kwargs); its range checks on flag values become usage errors."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_gen(spec_str: str):
    try:
        n_s, dim_s, sp_s = spec_str.split(",")
        return int(n_s), int(dim_s), float(sp_s)
    except ValueError:
        raise UsageError(f"--gen expects N,DIM,SPARSITY, got {spec_str!r}") from None


def _parse_label_map(text: str | None) -> dict | None:
    if not text:
        return None
    out = {}
    for pair in text.split(","):
        raw, _, mapped = pair.partition(":")
        if not mapped:
            raise UsageError(f"--label-map entries look like raw:mapped, got {pair!r}")
        try:
            key, value = float(raw), float(mapped)
        except ValueError:
            raise UsageError(f"--label-map entries must be numbers, got {pair!r}") from None
        if value not in (-1.0, 1.0):
            raise UsageError(f"--label-map must map onto -1 or +1, got {pair!r}")
        out[key] = value
    return out


def _generate(args) -> data.Dataset:
    """The --gen set, drawn from --seed."""
    n, dim, sparsity = _parse_gen(args.gen)
    try:
        return data.generate_synthetic(n, dim, sparsity, seed=args.seed)[0]
    except MemoryError as exc:
        raise MemoryError(f"out of memory drawing --gen {args.gen}: {exc}") from None


def _load_dataset(args) -> tuple[data.Dataset, str]:
    """Dataset plus a content hash for the manifest.

    A --dataset file is parsed and hashed in one read by
    `data.load_sparse_file`; the `data` module docstring says what memory
    that takes.  A --gen set is hashed before normalization by
    `Dataset.array_sha256`, over its arrays, so it is never formatted as
    text; that value is not the SHA-256 of the file `gen` writes.
    """
    if args.dataset and args.gen:
        raise UsageError("give either --dataset or --gen, not both")
    if args.dataset:
        try:
            ds, digest = data.load_sparse_file(args.dataset, _parse_label_map(args.label_map))
        except MemoryError as exc:
            raise MemoryError(f"out of memory parsing {args.dataset}: {exc}") from None
    elif args.gen:
        ds = _generate(args)
        digest = ds.array_sha256()
    else:
        raise UsageError("a dataset is required: pass --dataset FILE or --gen N,DIM,SPARSITY")
    if not args.no_normalize:
        ds = data.normalize(ds)
    return ds, digest


def _prepare_experiment(args, wstar_sq: float = 0.0):
    ds, digest = _load_dataset(args)
    train, test = _from_flags(data.shuffle_and_split, ds, args.N or ds.n_samples, seed=args.seed)
    del ds  # the split holds its own permuted copy of every row
    m = 1.0 if args.m_mode == "paper" else erm.smoothness_constant(args.loss, train)
    spec = _from_flags(RiskSpec, loss=args.loss, c=args.c, alpha=args.alpha, gamma=args.gamma,
                       M=m, wstar_sq=wstar_sq)
    return train, test, spec, digest


def _manifest_text(args, digest: str, outputs: list[str], extra: dict | None = None) -> str:
    lines = [f"adasize_version = {_version()}"]
    skip = {"command", "config", "out"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        lines.append(f"{key} = {getattr(args, key)}")
    lines.append(f"dataset_sha256 = {digest}")
    for key, val in (extra or {}).items():
        lines.append(f"{key} = {val}")
    for name in outputs:
        lines.append(f"output = {name}")
    return "\n".join(lines) + "\n"


def _run_config_from_args(args, N: int, adaptive: bool, method: str) -> RunConfig:
    return _from_flags(
        RunConfig,
        method=method,
        adaptive=adaptive,
        m0=min(args.m0, N),
        budget_mode=args.budget,
        seed=args.seed,
        eval_every=args.eval_every,
        pass_cap=args.pass_cap,
    )


def _trace_name(method: str, adaptive: bool, seed: int) -> str:
    return f"trace_{method}_{'ada' if adaptive else 'fix'}_seed{seed}.csv"


def cmd_gen(args) -> int:
    ds = _generate(args)
    if args.normalize:
        ds = data.normalize(ds)
    out = _out_dir(args) / f"synthetic_{ds.n_samples}x{ds.dim}_seed{args.seed}.svm"
    _write_atomic(out, ds.to_sparse_text())
    print(out)
    return 0


def cmd_run(args) -> int:
    train, test, spec, digest = _prepare_experiment(args, args.wstar)
    cfg = _run_config_from_args(args, train.n_samples, args.adaptive, args.method)
    if cfg.adaptive:
        w, trace, _ = driver.adaptive_run(cfg, spec, train, test)
    else:
        w, trace = driver.fixed_run(cfg, spec, train, test)
    ref = bench.reference_optimum(spec, train, start=w)
    out_dir = _out_dir(args)
    trace_file = _trace_name(args.method, cfg.adaptive, args.seed)
    _write_atomic(out_dir / trace_file, bench.trace_csv_text(trace, ref.risk))
    manifest = _manifest_text(args, digest, [trace_file], {"spec_M": spec.M})
    _write_atomic(out_dir / f"manifest_run_seed{args.seed}.txt", manifest)
    print(out_dir / trace_file)
    return 0


def cmd_compare(args) -> int:
    train, test, spec, digest = _prepare_experiment(args, args.wstar)
    configs = [
        _run_config_from_args(args, train.n_samples, adaptive, method)
        for method in ("gd", "agd", "svrg")
        for adaptive in (False, True)
    ]
    rows, traces, ref = bench.compare_matrix(configs, spec, train, test)
    out_dir = _out_dir(args)
    outputs = []
    for cfg, trace in traces:
        if trace is None:
            continue
        name = _trace_name(cfg.method, cfg.adaptive, cfg.seed)
        _write_atomic(out_dir / name, bench.trace_csv_text(trace, ref.risk))
        outputs.append(name)
    _write_atomic(out_dir / f"summary_seed{args.seed}.csv", bench.summary_csv_text(rows))
    outputs.append(f"summary_seed{args.seed}.csv")
    manifest = _manifest_text(args, digest, outputs, {"spec_M": spec.M})
    _write_atomic(out_dir / f"manifest_compare_seed{args.seed}.txt", manifest)
    print(bench.format_summary_table(rows), end="")
    return 0


def cmd_bounds(args) -> int:
    spec = _from_flags(RiskSpec, loss="logistic", c=args.c, alpha=args.alpha, gamma=args.gamma,
                       M=args.M, wstar_sq=args.wstar)
    headers = ["n", "V_n", "threshold", "agd_eta", "agd_beta", "svrg_q", "svrg_eta",
               "svrg_rho", "s_generic", "s_agd", "s_svrg"]
    rows = []
    for n in _from_flags(schedule.stage_sizes, args.m0, args.N):
        eta, beta = schedule.agd_params(spec, n)
        q, s_eta, rho = schedule.svrg_params(spec, n)  # warns where rho >= 1/2
        rows.append([
            str(n), f"{schedule.statistical_accuracy(spec, n):.6g}",
            f"{schedule.stop_threshold(spec, n):.6g}", f"{eta:.6g}", f"{beta:.6g}", str(q),
            f"{s_eta:.6g}", f"{rho:.6g}",
            *(str(_from_flags(schedule.stage_iterations, method, spec, n))
              for method in ("gd", "agd", "svrg")),
        ])
    print(bench.aligned_text([headers, *rows], right=True), end="")
    try:
        schedule.check_power_of_two_ratio(args.N, args.m0)
    except ValueError:
        print(f"total_agd_grad_evals = n/a (N/m0 = {args.N / args.m0:g} is not a power of two; "
              "the run itself clamps the last stage to N)")
    else:
        total_agd = schedule.total_complexity_agd(spec, args.N, args.m0)
        print(f"total_agd_grad_evals = {total_agd:.6g}")
    total_svrg = schedule.total_complexity_svrg(spec, args.N)
    print(f"total_svrg_grad_evals = {total_svrg:.6g}")
    if args.csv:
        _write_atomic(Path(args.csv), bench.csv_text(headers, rows))
    return 0


def cmd_verify(args) -> int:
    selected = _CHECK_NAMES if args.checks == "all" else args.checks.split(",")
    unknown = [name for name in selected if name not in _CHECK_NAMES]
    if unknown:
        raise UsageError(f"unknown --checks name(s) {unknown}; "
                         f"give all or a comma list of {', '.join(_CHECK_NAMES)}")
    for flag in ("m0", "draws", "trials"):
        if getattr(args, flag) < 1:
            raise UsageError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    if not args.dataset and not args.gen:
        args.gen = "8192,20,1.0"
    train, _, spec, digest = _prepare_experiment(args)
    N = train.n_samples
    if N < 4 and _SUBSET_CHECKS.intersection(selected):
        raise UsageError(f"--N must be >= 4 for the {', '.join(sorted(_SUBSET_CHECKS))} "
                         f"checks, got {N}")
    m0 = min(args.m0, N // 4)
    reports: list[verify.CheckReport] = []
    small = train.prefix(min(128, N))
    if "fd" in selected:
        reports.append(verify.fd_gradient_check(spec, small, args.trials, seed=args.seed))
        sq = replace(spec, loss="squared")
        reports.append(verify.fd_gradient_check(sq, small, args.trials, seed=args.seed,
                                                rel_tol=1e-9))
    if "svrg_direction" in selected:
        reports.append(verify.svrg_direction_check(spec, train.prefix(min(17, N)),
                                                   args.trials, seed=args.seed))
    if "lemma1" in selected:
        reports.append(verify.lemma1_check(spec, train, m0, 2 * m0,
                                           max(args.draws, 100), seed=args.seed))
    if _PROXY_CHECKS.intersection(selected):
        spec = replace(spec, wstar_sq=verify.unregularized_optimum_proxy(spec.loss, train))
    if "lemma2" in selected:
        reports.append(verify.lemma2_check(spec, train, N // 4, args.draws, seed=args.seed))
    if "proposition1" in selected:
        reports.append(verify.proposition1_check(spec, train, m0, args.draws, seed=args.seed))
    if "theorem" in selected:
        for method in ("agd", "svrg"):
            reports.append(verify.theorem_sn_sufficiency_check(
                method, spec, train, m0, args.draws, seed=args.seed))
    text = bench.csv_text(verify.CHECKS_COLUMNS, [rep.csv_cells() for rep in reports])
    for rep, line in zip(reports, text.splitlines(keepends=True)[1:]):
        print(line, end="")
        print(f"{rep.name}: {rep.notes}", file=sys.stderr)
    out_dir = _out_dir(args)
    _write_atomic(out_dir / f"checks_seed{args.seed}.csv", text)
    manifest = _manifest_text(args, digest, [f"checks_seed{args.seed}.csv"])
    _write_atomic(out_dir / f"manifest_verify_seed{args.seed}.txt", manifest)
    return 0 if all(r.passed for r in reports) else 2


_COMMANDS = {
    "gen": cmd_gen,
    "run": cmd_run,
    "compare": cmd_compare,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the config file sets the parser's defaults, so its path is read first; no
    # abbreviations here, or --c (the regularization constant) would match --config
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    try:
        cfg_path = pre.parse_known_args(argv)[0].config
        file_defaults = None if cfg_path is None else _parse_config_file(cfg_path)
    except (OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        parser = build_parser(file_defaults)
        args = parser.parse_args(argv)
        if args.config not in (None, cfg_path):
            raise UsageError("write --config in full")
        if args.command is None:
            parser.print_help(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
