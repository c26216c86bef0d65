"""Spans and counts at the boundaries of the adasize modules, recorded from outside.

`Hooks` is the light instrumentation every run carries: it notes the first
call into the solve phase (which ends a command's set-up) and adds up the
counted gradient evaluations of the traces the driver returns.  `Tracer` is
installed only in the traced run: it wraps every public function of the
timed layers and records one span per call, with the span that caused it,
plus per-name call counts, durations, self times and row/byte counts.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable

# the layers that get timings; `schedule` is closed-form O(1) arithmetic and
# is observed only through its warning count
TIMED_MODULES = ("cli", "data", "erm", "solvers", "driver", "bench", "verify")
# module-level dicts that hold direct references to public functions; their
# entries are swapped for the wrappers, or dispatch through them would bypass them
DISPATCH_TABLES = (("solvers", "_STEPPERS"),)
# methods and private boundaries that are wrapped besides the public functions
EXTRA_BOUNDARIES = (("data", "Dataset", "to_sparse_text"), ("driver", "_Recorder", "record"))
VERIFY_CHECKS = ("fd_gradient_check", "svrg_direction_check", "lemma1_check", "lemma2_check",
                 "proposition1_check", "theorem_sn_sufficiency_check")
DRIVER_RUNS = ("adaptive_run", "fixed_run")

SPAN_CAP = 50_000  # span records kept per traced run; aggregates cover every call


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# per-call work counts, as functions of (args, kwargs, result)
ROW_COUNTS: dict[str, Callable] = {
    "erm.risk_value_and_grad": lambda a, k, r: _arg(a, k, 2, "view").count,
    "erm.risk_value": lambda a, k, r: _arg(a, k, 2, "view").count,
    "erm.test_error": lambda a, k, r: _arg(a, k, 2, "test").n_samples,
    "solvers.svrg_direction": lambda a, k, r: 1,
}
BYTE_COUNTS: dict[str, Callable] = {
    "data.parse_sparse_text": lambda a, k, r: len(_arg(a, k, 0, "text")),
    "data.Dataset.to_sparse_text": lambda a, k, r: len(r),
}


class Hooks:
    """First entry into the solve phase and counted work of the driver's runs."""

    def __init__(self, modules: dict):
        self.first_solve_call: float | None = None
        self.counted_grad_evals = 0
        targets = [("driver", n) for n in DRIVER_RUNS] + [("bench", "compare_matrix")] + \
            [("verify", n) for n in VERIFY_CHECKS]
        for mod_name, fn_name in targets:
            mod = modules[mod_name]
            fn = getattr(mod, fn_name)
            counts = mod_name == "driver"
            setattr(mod, fn_name, self._wrap(fn, counts))

    def reset(self) -> None:
        self.first_solve_call = None
        self.counted_grad_evals = 0

    def _wrap(self, fn, counts: bool):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if self.first_solve_call is None:
                self.first_solve_call = time.perf_counter()
            result = fn(*args, **kwargs)
            if counts:
                events = result[1].events
                self.counted_grad_evals += events[-1].grad_evals if events else 0
            return result
        return hooked


class Tracer:
    """Wraps layer boundaries; records spans and per-name aggregates in memory."""

    def __init__(self, modules: dict):
        self.stats: dict[str, list] = {}   # name -> [calls, seconds, self seconds]
        self.counts: dict[str, int] = {}   # "<name>.rows" / "<name>.bytes" -> total
        self.spans: list[tuple] = []       # (command, id, parent, name, start, end, self)
        self.dropped_spans = 0
        self.actual_rows = 0               # rows touched while a driver run is active
        self.command = 0
        self._stack: list[list] = []       # [span id, child seconds]
        self._next_id = 0
        self._driver_depth = 0
        self._install(modules)

    def _install(self, modules: dict) -> None:
        wrapped: dict[int, Callable] = {}
        for mod_name in TIMED_MODULES:
            mod = modules[mod_name]
            full_name = mod.__name__
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if getattr(obj, "__wrapped__", obj).__module__ != full_name:
                    continue
                new = self.wrap(f"{mod_name}.{attr}", obj)
                wrapped[id(obj)] = new
                setattr(mod, attr, new)
        for mod_name, cls_name, meth in EXTRA_BOUNDARIES:
            cls = getattr(modules[mod_name], cls_name)
            setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", getattr(cls, meth)))
        for mod_name, table_name in DISPATCH_TABLES:
            table = getattr(modules[mod_name], table_name)
            for key, fn in table.items():
                table[key] = wrapped[id(fn)]

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        rows_of = ROW_COUNTS.get(name)
        bytes_of = BYTE_COUNTS.get(name)
        is_driver_run = name in (f"driver.{n}" for n in DRIVER_RUNS)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            if is_driver_run:
                self._driver_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_driver_run:
                    self._driver_depth -= 1
                duration = end - start
                self_s = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += self_s
                if len(spans) < SPAN_CAP:
                    spans.append((self.command, span_id, parent, name, start, end, self_s))
                else:
                    self.dropped_spans += 1
            if rows_of is not None:
                rows = rows_of(args, kwargs, result)
                self.counts[name + ".rows"] = self.counts.get(name + ".rows", 0) + rows
                if self._driver_depth:
                    self.actual_rows += rows
            if bytes_of is not None:
                key = name + ".bytes"
                self.counts[key] = self.counts.get(key, 0) + bytes_of(args, kwargs, result)
            return result
        return traced

    def take(self) -> dict:
        """Per-name totals since the last take, as metric name -> value; resets them."""
        out = {}
        for name, stats in self.stats.items():
            out[f"{name}.calls"], out[f"{name}.s"], out[f"{name}.self_s"] = stats
            stats[:] = [0, 0.0, 0.0]
        out.update(self.counts)
        out["work.actual_rows"] = self.actual_rows
        self.counts.clear()
        self.actual_rows = 0
        return out
