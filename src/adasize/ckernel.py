"""The compiled parts of adasize: ckernel.c, built with the system C compiler on first use.

The library holds two things: the pick loop of an SVRG epoch and a one-pass
parser of clean sparse text.  `get()` builds the shared library on its first
call in a process, or loads it when an earlier process built it, and returns
the `Kernel`, or None when it cannot.  Then `solvers.svrg_epoch` runs its
numpy loop, which computes the same steps to the same bits, and
`data.parse_sparse_text` its line parser, which gives the same arrays.  The
compiler is sysconfig's CC where it is installed, else `cc`, with the flags
in FLAGS.  The library goes to this package's `__pycache__` directory, beside
the bytecode Python writes there, under a name keyed by the SHA-256 of the
source and the compile command; it is written under a temporary name and
then renamed into place, so a concurrent or interrupted build never leaves a
partial file.
`reason` says which path the process took and why, for example:

    python -c "from adasize import ckernel as k; k.get(); print(k.reason)"
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("ckernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
# no -ffast-math or -march: the pick loop must round as the numpy loop does on any host
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
BUILD_TIMEOUT_S = 120

_INT32_LIMIT = 2**31
_c_double, _c_int, _c_int64 = ctypes.c_double, ctypes.c_int, ctypes.c_int64


def _array(dtype, writeable: bool = False):
    flags = "C_CONTIGUOUS,WRITEABLE" if writeable else "C_CONTIGUOUS"
    return np.ctypeslib.ndpointer(dtype=dtype, ndim=1, flags=flags)


class Kernel:
    """The C functions of a loaded library, with their argument types declared."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        lib.svrg_loss_coef.argtypes = (_c_int, _c_double, _c_double)
        lib.svrg_loss_coef.restype = _c_double
        lib.svrg_pick_loop.argtypes = (
            _array(np.int64), _array(np.int32), _array(np.float64),  # indptr, indices, data
            _c_int64, _c_int64, _c_int64,                            # rows, nnz, dim
            _array(np.int64), _c_int64,                              # picks
            _array(np.float64), _array(np.float64), _array(np.float64),  # coef_anchor, xb, y
            _c_int, _c_double, _c_double,                            # logistic, a, eta
            _array(np.float64, writeable=True), _array(np.float64, writeable=True),  # u, [s, r]
        )
        lib.svrg_pick_loop.restype = _c_int
        lib.parse_sparse_text.argtypes = (
            ctypes.c_char_p, _c_int64,                                   # text, len
            _array(np.float64, writeable=True), _array(np.int32, writeable=True),  # labels, indptr
            _c_int64,                                                    # max_rows
            _array(np.int32, writeable=True), _array(np.float64, writeable=True),  # indices, values
            _c_int64, _array(np.int64, writeable=True),                  # max_nnz, out
        )
        lib.parse_sparse_text.restype = _c_int

    def loss_coef(self, loss: str, margin: float, label: float) -> float:
        """The C twin of erm.sample_loss_coef."""
        return self._lib.svrg_loss_coef(loss == "logistic", margin, label)

    def pick_loop(self, x, picks: np.ndarray, coef_anchor: np.ndarray, xb: np.ndarray,
                  y: np.ndarray, loss: str, a: float, eta: float,
                  u: np.ndarray) -> tuple[float, float]:
        """Runs the epoch's picks on u in place from s = 1, r = 0 and returns (s, r).

        x is the view's CSR matrix; coef_anchor, xb and y are per-row arrays.
        Every array handed to C is bound to a local name until the call
        returns: a temporary converted inside the call's argument list could
        be freed while C still reads it.
        """
        n, dim = x.shape
        indptr = np.ascontiguousarray(x.indptr, dtype=np.int64)
        indices = x.indices
        if indices.dtype != np.int32:
            if indices.size and not (indices.min() >= 0
                                     and indices.max() < min(dim, _INT32_LIMIT)):
                raise ValueError("column index out of range")
            indices = indices.astype(np.int32)
        indices = np.ascontiguousarray(indices)
        data = np.ascontiguousarray(x.data, dtype=np.float64)
        picks = np.ascontiguousarray(picks, dtype=np.int64)
        coef_anchor = np.ascontiguousarray(coef_anchor, dtype=np.float64)
        xb = np.ascontiguousarray(xb, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if not (indptr.size == n + 1 and data.size == indices.size
                and coef_anchor.size == xb.size == y.size == n and u.shape == (dim,)):
            raise ValueError("pick loop arrays disagree in size")
        sr = np.array([1.0, 0.0])
        status = self._lib.svrg_pick_loop(indptr, indices, data, n, indices.size, dim,
                                          picks, picks.size, coef_anchor, xb, y,
                                          loss == "logistic", a, eta, u, sr)
        if status != 0:
            raise ValueError("pick, row bound or column index out of range in the pick loop")
        return float(sr[0]), float(sr[1])

    def parse_sparse_text(self, text: bytes):
        """(raw labels, indptr, 0-based indices, values, max index) of clean text, or None.

        Clean text is what ckernel.c's parse_sparse_text accepts; None means
        the text is something else and nothing was parsed.  Labels are
        returned as read, for the caller to check or map.  text must be a
        `bytes` object: CPython keeps a NUL after its data, where the C
        strtod of the last number stops.

        The arrays are sized from len(text) alone, with no counting pass: a
        row takes at least 2 bytes ("1\n") and a nonzero at least 4 (" 1:1"),
        so about 9 times the text's bytes of address space is reserved.  Only
        the pages the parser writes become resident, and the used prefix of
        each array is copied out before the rest is freed.  More nonzeros
        than an int32 indptr holds fail the C parser's capacity check, which
        sends the text to the line parser.
        """
        if not isinstance(text, bytes):
            raise TypeError(f"text must be bytes, not {type(text).__name__}")
        max_rows, max_nnz = len(text) // 2 + 1, min(len(text) // 4, _INT32_LIMIT - 1)
        labels, indptr = np.empty(max_rows), np.empty(max_rows + 1, dtype=np.int32)
        indices, values = np.empty(max_nnz, dtype=np.int32), np.empty(max_nnz)
        out = np.zeros(3, dtype=np.int64)
        if self._lib.parse_sparse_text(text, len(text), labels, indptr, max_rows,
                                       indices, values, max_nnz, out) != 0:
            return None
        rows, nnz, max_idx = out.tolist()
        return (labels[:rows].copy(), indptr[:rows + 1].copy(), indices[:nnz].copy(),
                values[:nnz].copy(), max_idx)


def default_compiler() -> str:
    """sysconfig's CC where its program is on PATH, else `cc`."""
    cc = sysconfig.get_config_var("CC") or ""
    return cc if cc and shutil.which(shlex.split(cc)[0]) else "cc"


def load(compiler: str | None = None,
         cache_dir: Path | None = None) -> tuple[Kernel | None, str]:
    """(kernel, reason): the library built with `compiler` and cached in `cache_dir`.

    A failure to build or load gives (None, what went wrong); nothing raises.
    """
    command = [*shlex.split(compiler or default_compiler()), *FLAGS]
    cache_dir = CACHE_DIR if cache_dir is None else Path(cache_dir)
    try:
        source = SOURCE.read_bytes()
        key = hashlib.sha256(source + "\0".join(command).encode()).hexdigest()[:16]
        path = cache_dir / f"ckernel.{key}.so"
        how = "loaded"
        if not path.is_file():
            cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f"{path.name}.", suffix=".tmp")
            os.close(fd)
            try:
                proc = subprocess.run([*command, "-x", "c", "-", "-o", tmp, "-lm"], input=source,
                                      capture_output=True, timeout=BUILD_TIMEOUT_S)
                if proc.returncode != 0:
                    err = proc.stderr.decode(errors="replace").strip()[-500:]
                    return None, f"no C kernel: `{shlex.join(command)}` exited " \
                                 f"{proc.returncode}: {err}"
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            how = "built"
        return Kernel(ctypes.CDLL(str(path))), f"C kernel: {how} {path}"
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        return None, f"no C kernel: {type(exc).__name__}: {exc}"


kernel: Kernel | None = None
reason = "not loaded yet: the first SVRG epoch or text parse loads it"
_tried = False


def get() -> Kernel | None:
    """The process's kernel, built or loaded on the first call; None selects the Python paths."""
    global kernel, reason, _tried
    if not _tried:
        _tried = True
        kernel, reason = load()
    return kernel
