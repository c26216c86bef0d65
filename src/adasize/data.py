"""Dataset ingestion, synthetic generation, normalization, splits, and prefixes.

Datasets are immutable collections of sparse feature rows with labels in
{-1, +1}, stored as a CSR matrix plus a label vector and nothing else, so
two datasets are equal when their samples are.  Growing nested
subsets S_m < S_n are the prefixes `Dataset.prefix(m)` and `prefix(n)` of
one once-shuffled set, so the first m samples of S_n are S_m by
construction.  A prefix is itself a `Dataset` that shares its base's arrays
at every size, and so does its transpose.

Sparse text, a file (`load_sparse_file`), a `str` or a buffer of bytes
(`parse_sparse_text`), goes through one reader, `_read_sparse`.  It is
parsed in one pass of C where the compiled library of `ckernel` loaded and
the text is clean: only digits, `+-.eE:`, blanks and newlines, in
well-formed fields.  The reader reads the text into one reused buffer of
PARSE_CHUNK_BYTES, in chunks that end just after a newline, and hands each
chunk to the C parser and, for a file, then to SHA-256, so the manifest's
digest costs no second read; `parse_sparse_text` returns no digest and
hashes nothing.  On the C path the resident peak of a load is the parsed
arrays plus that one buffer, not the whole text (README gives the measured
figures).  The C parser reads no byte past a chunk's end, so no NUL need
follow it, and on little-endian hosts it takes the digits of indices and
mantissas eight bytes at a time.  There a number whose digits make at most
2^53, with a decimal exponent of at most 22 either way (the 6-10 digit
values of LIBSVM and RCV1-style files), is converted exactly by one
multiply or divide; longer numbers, such as the 17-digit values
`to_sparse_text` writes, go through strtod.  Both give float()'s bits.
The C parser makes no counting pass: its arrays are sized from the whole
text's length (a row takes at least 2 bytes, a nonzero at least 4), which
reserves about 9 times the text's bytes.  That is address space only: just
the pages it writes become resident, and each array is shrunk in place to
its used prefix.  It is still what an address-space limit meets first.
Everything else, and all text where the library did not load, goes
through the line parser `_parse_lines`, which gives the same arrays and is
the only path that reports errors; it, and SHA-256 for a file, read the
whole text, which the reader reads from its start.  A file whose size
changes while it is read raises OSError on either path.

Both parsers refuse indices that do not increase within a line, so the
matrix they build is canonical (sorted, no duplicates) by construction and
carries scipy's `has_canonical_format` flag, as do the matrices `normalize`
and `shuffle_and_split` build from a canonical one.  `Dataset` then merges
none of them, and scans none of them to find that out.

Generated (`--gen`) data is drawn dense and stored as CSR:
`generate_synthetic` masks its float64 draw in place, then gathers the
nonzeros' values and column indices in row-major order, with no dense to
COO to CSR conversion.
"""

from __future__ import annotations

import hashlib
import io
import os
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.special import expit

from . import ckernel

# to_sparse_text formats this many rows with one % operation, so the argument
# tuple stays small beside the text
_FORMAT_BATCH_ROWS = 1024
# generate_synthetic's peak per matrix entry: the float64 draw with the float64
# values and int64 positions of its nonzeros, when every entry is kept; the mask
# step's float64 uniforms and bool mask (8 + 1 beside the draw) stay below it
_DENSE_DRAW_BYTES_PER_ENTRY = 8 + 8 + 8
# parsed CSR arrays hold 0-based indices as int32; generated ones widen past this
_INT32_MAX = np.iinfo(np.int32).max
# the labels a file may hold without a label map
_PLUS_MINUS_ONE = {1.0: 1.0, -1.0: -1.0}
# the reader's buffer: the C parser reads a text in chunks of at most this many
# bytes, each ending just after a newline (a longer line makes a longer chunk)
PARSE_CHUNK_BYTES = 2 << 20


class SparseTextError(ValueError):
    """Malformed sparse-text input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyDatasetError(ValueError):
    pass


class Dataset:
    """Immutable ordered sample collection over a fixed feature dimension."""

    def __init__(self, x: sparse.csr_matrix, y: np.ndarray):
        if not isinstance(x, sparse.csr_matrix):  # a CSR keeps its canonical-format flag
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

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @cached_property
    def xt(self) -> sparse.csc_matrix:
        """The transpose of `x` over its arrays, built once, so no product builds one per call."""
        x = self.x
        return _over_arrays(sparse.csc_matrix, (self.dim, self.n_samples),
                            x.data, x.indices, x.indptr)

    def prefix(self, n: int) -> "Dataset":
        """The first n samples, the set itself when n is all of them.

        Prefixes are nested: for m <= n, `prefix(m)` holds the first m samples
        of `prefix(n)`.  A prefix's arrays are read-only views of its base's.
        """
        if not 1 <= n <= self.n_samples:
            raise ValueError(f"prefix size {n} out of range [1, {self.n_samples}]")
        if n == self.n_samples:
            return self
        return Dataset(row_block(self.x, 0, n), self.y[:n])

    def sample_arrays(self, i: int):
        """(0-based indices, values, label) of sample i, no copies."""
        lo, hi = self.x.indptr[i], self.x.indptr[i + 1]
        return self.x.indices[lo:hi], self.x.data[lo:hi], float(self.y[i])

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
            h.update(np.ascontiguousarray(arr, dtype=dtype))  # the buffer itself, no bytes copy
        return h.hexdigest()

    def __eq__(self, other) -> bool:
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
        return f"Dataset(n={self.n_samples}, dim={self.dim})"


def _over_arrays(fmt, shape, data, indices, indptr):
    """A `fmt` (csr_matrix or csc_matrix) of the shape over these arrays, none copied.

    scipy's constructor copies data and indices that view under half of
    their base (its `_prune_array`); arrays set on a built matrix are kept.
    """
    m = fmt(shape, dtype=data.dtype)
    m.data, m.indices, m.indptr = data, indices, indptr
    return m


def row_block(x: sparse.csr_matrix, lo: int, hi: int) -> sparse.csr_matrix:
    """Rows lo..hi-1 of x as a CSR matrix over x's own data and indices, at any size.

    indptr is copied for lo > 0, to shift it to start at 0.  The block
    takes x's canonical-format flag, since the rows of a canonical matrix
    are canonical, so `Dataset` does not scan it again.  Its product with a
    vector gives the bits of those rows of `x @ w`: a CSR product sums each
    row on its own, left to right.
    """
    a, b = x.indptr[lo], x.indptr[hi]
    indptr = x.indptr[lo:hi + 1]
    block = _over_arrays(sparse.csr_matrix, (hi - lo, x.shape[1]),
                         x.data[a:b], x.indices[a:b], indptr - a if lo else indptr)
    block.has_canonical_format = x.has_canonical_format
    return block


def load_sparse_file(path, label_map: dict | None = None) -> tuple[Dataset, str]:
    """The dataset in the sparse-text file at path, and the SHA-256 of the file's bytes.

    The file is parsed and hashed as it is read, chunk by chunk (see this
    module's docstring); a pipe, which cannot seek, is read into memory
    first.  A file whose size changes while it is read raises OSError.
    """
    with open(path, "rb") as f:
        return _read_sparse(f if f.seekable() else io.BytesIO(f.read()), path, label_map,
                            digest=True)


def parse_sparse_text(text, label_map: dict | None = None, dim: int | None = None) -> Dataset:
    """Parse SVMlight-style sparse text: `<label> <idx>:<val> ...` per line.

    text is a `str` or any buffer of UTF-8 bytes.  Indices are 1-based and
    must be strictly increasing within a line.  `#` starts a comment
    running to end of line.  Raw labels are converted via `label_map`
    (keyed by the numeric raw label); without a map, labels must already be
    -1 or +1.  `dim` overrides the inferred dimensionality (the max index
    observed).

    Clean input is parsed in one pass of the C kernel (`ckernel`).  Input it
    does not accept (comments, other characters, any malformed field), and
    all input where the kernel did not load, goes through the line parser,
    which reports the first bad line.
    """
    f = io.BytesIO(text.encode() if isinstance(text, str) else text)
    return _read_sparse(f, "text", label_map, dim)[0]


def _read_sparse(f, name, label_map: dict | None, dim: int | None = None,
                 digest: bool = False) -> tuple[Dataset, str | None]:
    """The dataset in the seekable binary file f, and where `digest`, the SHA-256 of its bytes.

    The C parser and the hash read f in the chunks of `_parse_chunks`.
    Where that does not apply, f is read from its start, whole, and the
    line parser and the hash read that text.  Either way, a number of
    bytes read other than f's size at the start raises OSError, naming f
    as `name`.  Without `digest` nothing is hashed, and the digest is None.
    """
    lmap = None
    if label_map is not None:
        lmap = {float(k): float(v) for k, v in label_map.items()}
        if not all(v in (-1.0, 1.0) for v in lmap.values()):
            raise ValueError("label_map must map onto {-1, +1}")
    size = f.seek(0, io.SEEK_END)
    f.seek(0)
    hasher = hashlib.sha256() if digest else None
    parts, read = _parse_chunks(f, size, lmap, hasher)
    if parts is None:
        f.seek(0)
        text = f.read()
        hasher, read = hashlib.sha256(text) if digest else None, len(text)
    if read != size:
        raise OSError(f"{name} changed size while it was read ({size} bytes at open, {read} read)")
    if parts is None:
        parts = _parse_lines(text, lmap)
    labels, indptr, indices, data, max_idx = parts
    if not labels.size:
        raise EmptyDatasetError("no samples in input")
    use_dim = max_idx if dim is None else dim
    if use_dim < max_idx:
        raise ValueError(f"dim={use_dim} smaller than max feature index {max_idx}")
    x = sparse.csr_matrix((data, indices, indptr), shape=(labels.size, max(use_dim, 1)))
    x.has_canonical_format = True  # both parsers refuse indices that do not increase
    return Dataset(x, labels), hasher and hasher.hexdigest()


def _parse_lines(text, lmap: dict | None):
    """(labels, indptr, 0-based indices, values, max index), line by line; raises on the first bad line.

    text is a `str`, or a buffer of UTF-8 bytes, which is decoded first.
    """
    if not isinstance(text, str):
        text = str(text, "utf-8")
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
            if idx - 1 > _INT32_MAX:
                raise SparseTextError(line_no, f"feature index {idx} is above {_INT32_MAX + 1}")
            prev = idx
            if val != 0.0:
                indices.append(idx - 1)
                data.append(val)
        max_idx = max(max_idx, prev)
        indptr.append(len(data))
        labels.append(label)
    return (np.asarray(labels), np.asarray(indptr, dtype=np.int32),
            np.asarray(indices, dtype=np.int32), np.asarray(data), max_idx)


def _parse_chunks(f, size: int, lmap: dict | None, hasher):
    """(what `_parse_lines` returns, or None, and the bytes read) from the C parser.

    The parser's arrays are reserved for f's `size` bytes.  f is read into
    one reused buffer of PARSE_CHUNK_BYTES; each fill is cut just after its
    last newline, and f is moved back to the cut, so the cut line starts the
    next fill.  A fill shorter than the buffer, the last, is taken whole,
    and a line longer than the buffer is read alone.  Each chunk goes to the
    parser, then to hasher where one is given.  None when the kernel did not
    load, refused a chunk, or a label is not one that `_parse_lines` accepts.
    """
    kernel = ckernel.get()
    if kernel is None:
        return None, 0
    parse = kernel.text_parse(size)
    buf = bytearray(PARSE_CHUNK_BYTES)
    view, read = memoryview(buf), 0
    while n := f.readinto(buf):
        cut = n if n < len(buf) else buf.rfind(b"\n") + 1
        if cut:
            f.seek(cut - n, io.SEEK_CUR)
            chunk = view[:cut]
        else:
            f.seek(-n, io.SEEK_CUR)
            chunk = f.readline()
        if not parse.feed(chunk):
            return None, read
        if hasher is not None:
            hasher.update(chunk)
        read += len(chunk)
    raw, indptr, indices, values, max_idx = parse.result()
    distinct, inverse = np.unique(raw, return_inverse=True)
    mapped = [(_PLUS_MINUS_ONE if lmap is None else lmap).get(v) for v in distinct.tolist()]
    if None in mapped:
        return None, read
    return (np.array(mapped, dtype=np.float64)[inverse], indptr, indices, values, max_idx), read


def generate_synthetic(n: int, dim: int, sparsity: float = 1.0, seed: int = 0,
                       margin_scale: float = 2.5,
                       feature_decay: float = 0.0) -> tuple[Dataset, np.ndarray]:
    """Draw a ground-truth weight vector, features, and logistic-model labels.

    Samples are i.i.d.: each feature vector is standard normal with entries
    kept with probability `sparsity`, and labels follow
    P(y=+1|x) = sigmoid(w_true . x).  `feature_decay` > 0 scales feature j
    by (j+1)^-decay, giving the power-law column spread typical of text
    data.  w_true is scaled so the margin standard deviation is
    `margin_scale`: large enough for an informative classifier, small
    enough that label noise keeps the problem non-separable.  Fully
    deterministic in `seed`.

    The draw is one dense float64 (n, dim) array, scaled and masked in
    place; the CSR arrays are gathered from its nonzeros, with the index
    dtype that scipy's own conversion picks.  Per matrix entry at most 24
    bytes are alive at once: the draw and the float64 values and int64
    positions of its nonzeros, when every entry is kept (the mask step holds
    the draw, float64 uniforms and a bool mask: 17).  A shape whose arrays
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
    feats = rng.standard_normal((n, dim))
    if feature_decay:  # col_scale is all ones at 0, and x * 1.0 == x
        feats *= col_scale
    if sparsity < 1.0:
        # np.where(keep, feats, 0.0) in place: a dropped entry becomes +-0.0, then +0.0
        np.multiply(feats, rng.random((n, dim)) < sparsity, out=feats)
        feats += 0.0
    probs = expit(feats @ w_true)
    y = np.where(rng.random(n) < probs, 1.0, -1.0)
    flat = np.flatnonzero(feats != 0.0)  # the nonzeros' row-major positions
    values = feats.take(flat)
    del feats  # freed before the index arrays are built
    indptr = np.searchsorted(flat, np.arange(n + 1) * dim)
    idx_dtype = np.int32 if max(flat.size, n, dim) <= _INT32_MAX else np.int64
    indices = np.remainder(flat, dim, out=flat).astype(idx_dtype)
    x = _over_arrays(sparse.csr_matrix, (n, dim), values, indices, indptr.astype(idx_dtype))
    x.has_canonical_format = True  # one entry per position, in column order
    return Dataset(x, y), w_true


def row_sq_norms(x: sparse.csr_matrix) -> np.ndarray:
    """Each row's squared Euclidean norm, 0.0 for an empty row.

    The bits of `x.multiply(x).sum(axis=1)` without building that product:
    the same `np.add.reduceat` over the squares.  The product stores no zero
    square, and numpy's pairwise sum depends on where its terms sit, so zero
    squares (stored zeros, underflow) are dropped here too.
    """
    sq, indptr = x.data * x.data, x.indptr
    if not sq.all():
        kept = sq != 0.0
        indptr, sq = np.concatenate(([0], np.cumsum(kept)))[indptr], sq[kept]
    out = np.zeros(x.shape[0])
    nonempty = np.flatnonzero(np.diff(indptr))
    if nonempty.size:
        out[nonempty] = np.add.reduceat(sq, indptr[nonempty])
    return out


def normalize(d: Dataset) -> Dataset:
    """Scale each sample to unit Euclidean norm; zero rows pass through unchanged.

    Only the values are new arrays; the result shares d's indices and indptr,
    and so takes d's canonical-format flag.  The values are divided into
    the array of per-value norms, so one temporary of the values' size is
    alive beside them, not two.
    """
    if d.n_samples == 0:
        raise EmptyDatasetError("cannot normalize an empty dataset")
    x = d.x
    norms = np.sqrt(row_sq_norms(x))
    scale = np.where(norms > 0.0, norms, 1.0)
    values = np.repeat(scale, np.diff(x.indptr))
    np.divide(x.data, values, out=values)
    scaled = sparse.csr_matrix((values, x.indices, x.indptr), shape=x.shape, copy=False)
    scaled.has_canonical_format = x.has_canonical_format
    return Dataset(scaled, d.y)


def shuffle_and_split(d: Dataset, train_count: int, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Apply one seeded uniform permutation, then split into (train, test).

    Prefixes of the returned training set are exchangeable i.i.d. subsets,
    which is what the nested-subset growth scheme needs.  Train and test are
    `row_block`s of the one permuted matrix, which moves whole rows and so
    takes d's canonical-format flag.
    """
    if not 1 <= train_count <= d.n_samples:
        raise ValueError(f"train_count {train_count} out of range [1, {d.n_samples}]")
    perm = np.random.default_rng(seed).permutation(d.n_samples)
    x = d.x[perm]
    x.has_canonical_format = d.x.has_canonical_format
    y = d.y[perm]
    train = Dataset(row_block(x, 0, train_count), y[:train_count])
    test = Dataset(row_block(x, train_count, d.n_samples), y[train_count:])
    return train, test
