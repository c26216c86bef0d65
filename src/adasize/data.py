"""Dataset ingestion, synthetic generation, normalization, splits, and prefix views.

Datasets are immutable collections of sparse feature rows with labels in
{-1, +1}, stored as a CSR matrix plus a label vector.  Growing nested
subsets S_m < S_n are realized as prefix views over a once-shuffled sample
order, so subset construction is O(1) and the nesting property holds by
construction.
"""

from __future__ import annotations

import hashlib
import os
import warnings

import numpy as np
from scipy import sparse
from scipy.special import expit


# to_sparse_text formats this many rows with one % operation, so the argument
# tuple stays small beside the text
_FORMAT_BATCH_ROWS = 1024
# generate_synthetic's peak per matrix entry: the scaled float64 features, the
# float64 keep draw, its bool mask and the float64 np.where result, all live at once
_DENSE_DRAW_BYTES_PER_ENTRY = 8 + 8 + 1 + 8


class SparseTextError(ValueError):
    """Malformed sparse-text input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyDatasetError(ValueError):
    pass


class Dataset:
    """Immutable ordered sample collection over a fixed feature dimension."""

    def __init__(self, x: sparse.csr_matrix, y: np.ndarray, name: str = ""):
        x = sparse.csr_matrix(x)
        x.sum_duplicates()  # canonical rows: sorted, each column at most once
        y = np.asarray(y, dtype=np.float64)
        if x.shape[0] != y.shape[0]:
            raise ValueError("feature matrix and labels disagree on sample count")
        if y.size and not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be exactly -1 or +1")
        for arr in (x.data, x.indices, x.indptr, y):
            arr.setflags(write=False)
        self.x = x
        self.y = y
        self.name = name

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def prefix(self, n: int) -> "DatasetView":
        return DatasetView(self, n)

    def full_view(self) -> "DatasetView":
        return DatasetView(self, self.n_samples)

    def row_norms(self) -> np.ndarray:
        sq = np.asarray(self.x.multiply(self.x).sum(axis=1)).ravel()
        return np.sqrt(sq)

    def to_sparse_text(self) -> str:
        """One `<+1|-1> <idx>:<val> ...` line per sample; one `%` operation per batch of rows."""
        x, pieces = self.x, []
        for lo in range(0, self.n_samples, _FORMAT_BATCH_ROWS):
            hi = min(lo + _FORMAT_BATCH_ROWS, self.n_samples)
            signs = np.where(self.y[lo:hi] > 0, "+1", "-1").tolist()
            counts = np.diff(x.indptr[lo:hi + 1]).tolist()
            fmt = "".join([f"{sign}{' %d:%.17g' * k}\n" for sign, k in zip(signs, counts)])
            a, b = x.indptr[lo], x.indptr[hi]
            pairs = np.empty((b - a, 2))  # %d prints a float index exactly
            pairs[:, 0] = x.indices[a:b] + 1
            pairs[:, 1] = x.data[a:b]
            pieces.append(fmt % tuple(pairs.ravel().tolist()))
        return "".join(pieces)

    def array_sha256(self) -> str:
        """SHA-256 of the arrays, in one canonical layout, without formatting them.

        The layout is (n_samples, dim), then `indptr` and `indices`, all as
        little-endian int64, then `data` and `y` as little-endian float64.
        """
        h = hashlib.sha256()
        for arr, dtype in ((self.x.shape, "<i8"), (self.x.indptr, "<i8"),
                           (self.x.indices, "<i8"), (self.x.data, "<f8"), (self.y, "<f8")):
            h.update(np.asarray(arr, dtype=dtype).tobytes())
        return h.hexdigest()

    def __eq__(self, other) -> bool:
        # name is metadata; equality is over samples and dimension
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.n_samples == other.n_samples
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.x.indptr, other.x.indptr)
            and np.array_equal(self.x.indices, other.x.indices)
            and np.array_equal(self.x.data, other.x.data)
        )

    def __repr__(self) -> str:
        return f"Dataset(name={self.name!r}, n={self.n_samples}, dim={self.dim})"


class DatasetView:
    """Read-only view of the first `count` samples of a dataset.

    Views over the same base with counts m <= n are nested: the first view's
    samples are a prefix of the second's.
    """

    def __init__(self, base: Dataset, count: int):
        if not 1 <= count <= base.n_samples:
            raise ValueError(f"view count {count} out of range [1, {base.n_samples}]")
        self.base = base
        self.count = count
        self._x: sparse.csr_matrix | None = None

    @property
    def x(self) -> sparse.csr_matrix:
        if self._x is None:
            b = self.base.x
            nnz = b.indptr[self.count]
            self._x = sparse.csr_matrix(
                (b.data[:nnz], b.indices[:nnz], b.indptr[: self.count + 1]),
                shape=(self.count, self.base.dim),
                copy=False,
            )
        return self._x

    @property
    def y(self) -> np.ndarray:
        return self.base.y[: self.count]

    @property
    def dim(self) -> int:
        return self.base.dim

    def sample_arrays(self, i: int):
        """(0-based indices, values, label) of sample i, no copies."""
        b = self.base.x
        lo, hi = b.indptr[i], b.indptr[i + 1]
        return b.indices[lo:hi], b.data[lo:hi], float(self.base.y[i])

    def __repr__(self) -> str:
        return f"DatasetView({self.base.name!r}, count={self.count})"


def parse_sparse_text(text, label_map: dict | None = None, dim: int | None = None,
                      name: str = "parsed") -> Dataset:
    """Parse SVMlight-style sparse text: `<label> <idx>:<val> ...` per line.

    Indices are 1-based and must be strictly increasing within a line.  `#`
    starts a comment running to end of line.  Raw labels are converted via
    `label_map` (keyed by the numeric raw label); without a map, labels must
    already be -1 or +1.  `dim` overrides the inferred dimensionality (the
    max index observed).

    Clean input is parsed in bulk, block by block.  Input the bulk pass does
    not accept (comments, other characters, any malformed field) goes through
    the line parser, which reports the first bad line.
    """
    lmap = None
    if label_map is not None:
        lmap = {float(k): float(v) for k, v in label_map.items()}
        if not all(v in (-1.0, 1.0) for v in lmap.values()):
            raise ValueError("label_map must map onto {-1, +1}")
    parts = _parse_bulk(text, lmap)
    if parts is None:
        parts = _parse_lines(text, lmap)
    labels, indptr, indices, data, max_idx = parts
    if not labels.size:
        raise EmptyDatasetError("no samples in input")
    use_dim = max_idx if dim is None else dim
    if use_dim < max_idx:
        raise ValueError(f"dim={use_dim} smaller than max feature index {max_idx}")
    x = sparse.csr_matrix((data, indices, indptr), shape=(labels.size, max(use_dim, 1)))
    return Dataset(x, labels, name=name)


def _parse_lines(text, lmap: dict | None):
    """(labels, indptr, 0-based indices, values, max index), line by line; raises on the first bad line."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    data: list[float] = []
    indices: list[int] = []
    indptr: list[int] = [0]
    labels: list[float] = []
    max_idx = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            raw_label = float(fields[0])
        except ValueError:
            raise SparseTextError(line_no, f"invalid label {fields[0]!r}") from None
        if lmap is not None:
            if raw_label not in lmap:
                raise SparseTextError(line_no, f"unmapped raw label {fields[0]!r}")
            label = lmap[raw_label]
        else:
            if raw_label not in (-1.0, 1.0):
                raise SparseTextError(
                    line_no, f"label {fields[0]!r} is not -1/+1 and no label_map given")
            label = raw_label

        prev = 0
        for tok in fields[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise SparseTextError(line_no, f"invalid feature token {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise SparseTextError(line_no, f"invalid feature token {tok!r}") from None
            if idx < 1:
                raise SparseTextError(line_no, f"feature index {idx} is not 1-based")
            if idx <= prev:
                raise SparseTextError(line_no, f"indices not strictly increasing at {idx}")
            prev = idx
            if val != 0.0:
                indices.append(idx - 1)
                data.append(val)
        max_idx = max(max_idx, prev)
        indptr.append(len(data))
        labels.append(label)
    return (np.asarray(labels), np.asarray(indptr, dtype=np.int32),
            np.asarray(indices, dtype=np.int32), np.asarray(data), max_idx)


# The bulk parser converts blocks of about this many bytes, cut after a newline,
# so its temporary arrays stay small beside the input.
_PARSE_BLOCK_BYTES = 1 << 20
# A block holding any other byte goes to the line parser.
_BULK_BYTES = b"0123456789+-.eE: \t\n"
_TO_SPACE = bytes.maketrans(b":\t\n", b"   ")
_COLON, _NEWLINE = ord(":"), ord("\n")


def _parse_bulk(text, lmap: dict | None):
    """What `_parse_lines` returns, from array operations per block; None if any block fails."""
    keys = values = None
    if lmap is not None:
        keys = np.array(list(lmap))
        order = np.argsort(keys)
        keys, values = keys[order], np.array(list(lmap.values()))[order]
    newline = b"\n" if isinstance(text, bytes) else "\n"
    parts, pos = [], 0
    while pos < len(text):
        cut = text.find(newline, pos + _PARSE_BLOCK_BYTES)
        cut = len(text) if cut < 0 else cut + 1
        block = text[pos:cut]
        if isinstance(block, str):
            if not block.isascii():
                return None
            block = block.encode("ascii")
        part = _parse_block(block, keys, values)
        if part is None:
            return None
        parts.append(part)
        pos = cut
    if not parts:
        return None
    labels, counts, indices, data, max_idx = zip(*parts)
    if sum(d.size for d in data) > np.iinfo(np.int32).max:
        return None  # more nonzeros than an int32 indptr holds
    labels = np.concatenate(labels)
    indptr = np.zeros(labels.size + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return labels, indptr, np.concatenate(indices), np.concatenate(data), max(max_idx)


def _parse_block(block: bytes, keys, values):
    """(labels, nonzeros per row, 0-based indices, values, max index) of whole lines, or None."""
    if block.translate(None, _BULK_BYTES):
        return None
    a = np.frombuffer(b"\n" + block + b"\n", dtype=np.uint8)  # every number has two neighbours
    in_number = (a > ord(" ")) & (a != _COLON)  # all bytes but whitespace and ':' are left
    edge = np.diff(in_number.view(np.int8))
    starts = np.flatnonzero(edge == 1) + 1  # first byte of each number
    ends = np.flatnonzero(edge == -1) + 1  # the byte after it
    is_idx = a[ends] == _COLON
    is_val = a[starts - 1] == _COLON
    is_label = np.zeros(starts.size + 1, dtype=bool)  # the first number after a newline
    is_label[np.searchsorted(starts, np.flatnonzero(a == _NEWLINE))] = True
    is_label = is_label[:-1]
    colons = np.count_nonzero(a == _COLON)
    # Each ':' joins the number before it to the one after it (not `3:`, `:5`, `3::5`).
    # A line is a bare label (not `1:2`), then numbers that are each an index or a value
    # (not `3:4:5`, not a second bare number).
    if (np.count_nonzero(is_idx) != colons or np.count_nonzero(is_val) != colons
            or np.any(is_label & is_idx) or np.any(~is_label & (is_idx == is_val))):
        return None
    # an index is plain digits: int() rejects `1e2` and `1.0`, which convert as floats
    not_digit = np.flatnonzero(in_number & ((a < ord("0")) | (a > ord("9"))))
    if is_idx[np.searchsorted(starts, not_digit, side="right") - 1].any():
        return None
    if starts.size:
        with warnings.catch_warnings():
            # numpy 2 raises on text it cannot convert; numpy 1 warns and stops short
            warnings.simplefilter("error")
            try:
                nums = np.fromstring(block.translate(_TO_SPACE), sep=" ")
            except (ValueError, Warning):
                return None
        if nums.size != starts.size:
            return None
    else:
        nums = np.empty(0)  # fromstring reads whitespace alone as [-1.]
    raw, idx, val = nums[is_label], nums[is_idx], nums[is_val]
    if keys is None:
        if not np.all((raw == 1.0) | (raw == -1.0)):
            return None
        labels = raw
    else:
        at = np.searchsorted(keys, raw)
        if np.any(at == keys.size) or not np.array_equal(keys[at], raw):
            return None
        labels = values[at]
    row = (np.cumsum(is_label) - 1)[is_idx]
    same_row = row[1:] == row[:-1]
    if idx.size and (idx.min() < 1 or idx.max() > np.iinfo(np.int32).max
                     or np.any(idx[1:][same_row] <= idx[:-1][same_row])):
        return None
    keep = val != 0.0
    return (labels, np.bincount(row[keep], minlength=labels.size),
            (idx[keep] - 1).astype(np.int32), val[keep], int(idx.max()) if idx.size else 0)


def generate_synthetic(n: int, dim: int, sparsity: float = 1.0, seed: int = 0,
                       margin_scale: float = 2.5, feature_decay: float = 0.0,
                       name: str = "synthetic") -> tuple[Dataset, np.ndarray]:
    """Draw a ground-truth weight vector, features, and logistic-model labels.

    Samples are i.i.d.: each feature vector is standard normal with entries
    kept with probability `sparsity`, and labels follow
    P(y=+1|x) = sigmoid(w_true . x).  `feature_decay` > 0 scales feature j
    by (j+1)^-decay, giving the power-law column spread typical of text
    data.  w_true is scaled so the margin standard deviation is
    `margin_scale`: large enough for an informative classifier, small
    enough that label noise keeps the problem non-separable.  Fully
    deterministic in `seed`.  The draw is dense, so a shape whose arrays
    would not fit in physical memory is refused before anything is allocated.
    """
    if n < 1 or dim < 1:
        raise ValueError(f"need n >= 1 and dim >= 1, got n={n}, dim={dim}")
    if not 0.0 < sparsity <= 1.0:
        raise ValueError(f"sparsity must be in (0, 1], got {sparsity}")
    need = _DENSE_DRAW_BYTES_PER_ENTRY * n * dim
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"a dense {n} x {dim} draw needs about {need} bytes, more than the "
                         f"{have} bytes of physical memory; give data this large as a sparse "
                         "text file (--dataset)")
    rng = np.random.default_rng(seed)
    col_scale = (np.arange(1, dim + 1)) ** -float(feature_decay)
    w_true = rng.standard_normal(dim)
    margin_sd = np.sqrt(sparsity * float(np.sum((w_true * col_scale) ** 2)))
    w_true *= margin_scale / margin_sd
    feats = rng.standard_normal((n, dim)) * col_scale
    if sparsity < 1.0:
        feats = np.where(rng.random((n, dim)) < sparsity, feats, 0.0)
    probs = expit(feats @ w_true)
    y = np.where(rng.random(n) < probs, 1.0, -1.0)
    return Dataset(sparse.csr_matrix(feats), y, name=name), w_true


def normalize(d: Dataset) -> Dataset:
    """Scale each sample to unit Euclidean norm; zero rows pass through unchanged."""
    if d.n_samples == 0:
        raise EmptyDatasetError("cannot normalize an empty dataset")
    norms = d.row_norms()
    scale = np.where(norms > 0.0, norms, 1.0)
    x = d.x.copy()
    per_entry = np.repeat(scale, np.diff(x.indptr))
    x.data = x.data / per_entry
    return Dataset(x, d.y, name=d.name)


def shuffle_and_split(d: Dataset, train_count: int, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Apply one seeded uniform permutation, then split into (train, test).

    Prefixes of the returned training set are exchangeable i.i.d. subsets,
    which is what the nested-subset growth scheme needs.
    """
    if not 1 <= train_count <= d.n_samples:
        raise ValueError(f"train_count {train_count} out of range [1, {d.n_samples}]")
    perm = np.random.default_rng(seed).permutation(d.n_samples)
    x = d.x[perm]
    y = d.y[perm]
    train = Dataset(x[:train_count], y[:train_count], name=f"{d.name}-train")
    test = Dataset(x[train_count:], y[train_count:], name=f"{d.name}-test")
    return train, test
