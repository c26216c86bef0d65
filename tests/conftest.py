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


@pytest.fixture()
def spec():
    return RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1.0, M=1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
