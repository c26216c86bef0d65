"""RCV1-shaped synthetic sparse-text dataset, written once per seed into a cache.

The shape follows the RCV1 binary training set that the paper uses: 20242
training rows, 47236 columns, about 70 distinct nonzeros per row with
Zipf-distributed column frequencies and positive log term-frequency values,
stored unit-normalized.  About
10% extra rows are appended so that a run with `--N 20242` keeps a held-out
set and exercises the test-error path.

Nonzeros are drawn per row directly (never as a dense n x dim matrix).  A
naive Zipf draw of 70 columns collapses to about 57 distinct ones because
the head columns repeat, so each row draws until it holds its target count
of distinct columns.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np


class Shape(NamedTuple):
    train_rows: int
    held_out_rows: int
    dim: int


FULL = Shape(train_rows=20242, held_out_rows=2024, dim=47236)
TINY = Shape(train_rows=2000, held_out_rows=200, dim=3000)  # smoke-test scale
MEAN_NNZ = 70
ZIPF_EXPONENT = 1.0
MARGIN_SCALE = 30.0
SIGNAL_RANKS = 10


def _row_targets(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Distinct-nonzero count per row: log-normal spread around MEAN_NNZ."""
    sigma = 0.45
    k = rng.lognormal(np.log(MEAN_NNZ) - 0.5 * sigma**2, sigma, rows)
    return np.clip(np.rint(k), 8, 400).astype(np.int64)


def _draw_distinct_columns(rng: np.random.Generator, targets: np.ndarray,
                           cdf: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) pairs, `targets[r]` distinct Zipf-drawn columns for row r.

    Rows short of their target draw again, in rounds, until every row holds
    its target; the kept columns of a row are a uniformly random subset of
    its distinct draws, so no column order is preferred.
    """
    done_keys = []
    keys = np.empty(0, dtype=np.int64)  # row * dim + column of rows still short
    pending = np.ones(targets.size, dtype=bool)
    while pending.any():
        short = np.flatnonzero(pending)
        draws = np.repeat(short, 2 * targets[short])
        cols = np.searchsorted(cdf, rng.random(draws.size), side="right")
        keys = np.sort(np.concatenate([keys, draws * dim + cols]))
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        rows = keys // dim
        full = np.bincount(rows, minlength=targets.size) >= targets
        # a random subset of targets[r] distinct columns for every full row
        order = np.lexsort((rng.random(keys.size), rows))
        r_sorted = rows[order]
        rank = np.arange(keys.size) - np.searchsorted(r_sorted, r_sorted, side="left")
        done_keys.append(keys[order[full[r_sorted] & (rank < targets[r_sorted])]])
        keys = keys[~full[rows]]
        pending &= ~full
    out = np.sort(np.concatenate(done_keys))
    return out // dim, out % dim


def generate(seed: int, shape: Shape = FULL):
    """(indptr, 0-based column indices, values, labels) of train plus held-out rows."""
    rng = np.random.default_rng([seed, 0x52435631])
    rows = shape.train_rows + shape.held_out_rows
    dim = shape.dim
    ranks = np.arange(1, dim + 1, dtype=np.float64)
    freq = ranks ** -ZIPF_EXPONENT
    freq /= freq.sum()
    cdf = np.cumsum(freq)
    cdf[-1] = 1.0
    # frequency rank -> column id; the most frequent column takes the last
    # id so that every file spans exactly `dim` columns
    col_of_rank = rng.permutation(dim)
    top = int(np.flatnonzero(col_of_rank == dim - 1)[0])
    col_of_rank[[0, top]] = col_of_rank[[top, 0]]

    targets = _row_targets(rng, rows)
    r, rank_idx = _draw_distinct_columns(rng, targets, cdf, dim)
    cols = col_of_rank[rank_idx]
    order = np.lexsort((cols, r))
    r, cols = r[order], cols[order]
    rank_idx = rank_idx[order]

    # log term frequency of geometric counts
    vals = 1.0 + np.log(rng.geometric(0.6, r.size))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=rows))])

    # rows are stored unit-normalized, as in the LIBSVM copy of RCV1
    vals /= np.repeat(np.sqrt(np.add.reduceat(vals**2, indptr[:-1])), np.diff(indptr))

    # labels through the logistic link from a ground truth on the most
    # frequent columns, nearly noiseless as RCV1 is close to separable; a
    # regularized fit on 20k rows can learn it, and the adaptive run's epoch
    # count varies less between files than with noisier labels
    w_true = rng.standard_normal(dim) * (ranks <= SIGNAL_RANKS)
    margins = np.add.reduceat(vals * w_true[rank_idx], indptr[:-1])
    margins *= MARGIN_SCALE / margins.std()
    labels = np.where(rng.random(rows) < 1.0 / (1.0 + np.exp(-margins)), 1, -1)
    return indptr, cols, vals, labels


def to_text(indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray,
            labels: np.ndarray) -> str:
    token = "{}:{:.9g}".format
    col_list, val_list, bounds = (cols + 1).tolist(), vals.tolist(), indptr.tolist()
    lines = [("+1 " if lab > 0 else "-1 ") + " ".join(map(token, col_list[lo:hi], val_list[lo:hi]))
             for lab, lo, hi in zip(labels.tolist(), bounds[:-1], bounds[1:])]
    return "\n".join(lines) + "\n"


def cached_file(cache_dir: Path, seed: int, shape: Shape = FULL) -> Path:
    """Path of the seed's dataset file, generating and writing it on first use."""
    path = cache_dir / f"rcv1_like_{shape.train_rows}x{shape.dim}_seed{seed}.svm"
    if path.exists():
        return path
    cache_dir.mkdir(parents=True, exist_ok=True)
    text = to_text(*generate(seed, shape))
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


if __name__ == "__main__":
    # rcv1_like.py CACHE_DIR {full,tiny} SEED...: print {seed: path} as JSON
    shape = FULL if sys.argv[2] == "full" else TINY
    print(json.dumps({seed: str(cached_file(Path(sys.argv[1]), int(seed), shape))
                      for seed in sys.argv[3:]}))
