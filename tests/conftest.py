import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from adasize import Dataset, RiskSpec, generate_synthetic, normalize, shuffle_and_split

RCV1_LIKE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "rcv1_like.py"


@pytest.fixture(scope="session")
def small_train():
    """Normalized logistic data, 512 samples x 12 features."""
    ds, _ = generate_synthetic(512, 12, 1.0, seed=11)
    return normalize(ds)


@pytest.fixture(scope="session")
def split_data():
    ds, _ = generate_synthetic(768, 10, 1.0, seed=4)
    return shuffle_and_split(normalize(ds), 512, seed=9)


@pytest.fixture(scope="session")
def rcv1_like():
    """perfbench/rcv1_like.py, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_rcv1_like", RCV1_LIKE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def rcv1_tiny(rcv1_like):
    """The RCV1-shaped set at 2000 x 3000 (plus 200 held-out rows), seed 3."""
    indptr, cols, vals, labels = rcv1_like.generate(3, rcv1_like.TINY)
    x = sparse.csr_matrix((vals, cols, indptr), shape=(indptr.size - 1, rcv1_like.TINY.dim))
    return Dataset(x, labels.astype(np.float64))


class ProductLog:
    """Every product of a CSR or CSC matrix with a vector while the log is installed.

    Each entry is (format, vector, its bytes then, start, end): a caller
    may change the vector later, as conjugate gradients does, and [start,
    end) is the address range of the nonzeros the product reads.  Prefixes,
    row blocks and transposes share their base's values, so two products
    read a row in common exactly where their ranges meet.
    """

    def __init__(self, monkeypatch):
        self.products = []
        for cls in (sparse.csr_matrix, sparse.csc_matrix):
            monkeypatch.setattr(cls, "__matmul__", self._logging(cls.__matmul__))

    def _logging(self, real):
        def matmul(x, other):
            if np.ndim(other) == 1:
                start = x.data.__array_interface__["data"][0]
                self.products.append((x.format, other, other.tobytes(), start,
                                      start + x.data.nbytes))
            return real(x, other)
        return matmul

    def vectors(self, fmt: str) -> list:
        return [v for f, v, _, _, _ in self.products if f == fmt]

    def repeats(self) -> list:
        """(format, start, end) of each product that reads nonzeros an earlier product
        of the same format read with a vector of the same bytes."""
        read, out = {}, []  # (format, vector bytes) -> address ranges read with that vector
        for fmt, _, value, start, end in self.products:
            ranges = read.setdefault((fmt, value), [])
            if not all(end <= a or b <= start for a, b in ranges):
                out.append((fmt, start, end))
            ranges.append((start, end))
        return out


@pytest.fixture()
def product_log(monkeypatch):
    """A `ProductLog` installed for the test."""
    return ProductLog(monkeypatch)


@pytest.fixture()
def spec():
    return RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1.0, M=1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
