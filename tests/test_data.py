import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import _compressed, _sparsetools

from adasize import ckernel, data, generate_synthetic, normalize, parse_sparse_text, shuffle_and_split
from adasize.data import Dataset, EmptyDatasetError, SparseTextError
from adasize.erm import smoothness_constant

class TestParser:
    def test_single_line(self):
        ds = parse_sparse_text("+1 1:0.5 3:-2\n")
        assert ds.n_samples == 1 and ds.dim == 3
        indices, values, label = ds.sample_arrays(0)
        assert label == 1.0
        np.testing.assert_array_equal(indices, [0, 2])  # stored 0-based
        np.testing.assert_allclose(values, [0.5, -2.0])

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDatasetError):
            parse_sparse_text("")
        with pytest.raises(EmptyDatasetError):
            parse_sparse_text("# only a comment\n\n")

    def test_label_map(self):
        ds = parse_sparse_text("0 2:1.0\n", label_map={0: -1, 8: +1})
        assert ds.y[0] == -1.0

    def test_unmapped_label(self):
        with pytest.raises(SparseTextError, match="line 1"):
            parse_sparse_text("3 1:1\n", label_map={0: -1, 8: +1})

    def test_label_without_map_must_be_binary(self):
        with pytest.raises(SparseTextError):
            parse_sparse_text("2 1:1\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(SparseTextError, match="line 2"):
            parse_sparse_text("+1 1:1\n-1 nonsense\n")

    def test_non_increasing_indices(self):
        with pytest.raises(SparseTextError, match="strictly increasing"):
            parse_sparse_text("+1 3:1 3:2\n")
        with pytest.raises(SparseTextError):
            parse_sparse_text("+1 3:1 2:2\n")

    def test_comments_and_blank_lines(self):
        ds = parse_sparse_text("# header\n+1 1:1  # trailing\n\n-1 2:1\n")
        assert ds.n_samples == 2
        np.testing.assert_array_equal(ds.y, [1.0, -1.0])

    def test_dim_override(self):
        ds = parse_sparse_text("+1 2:1\n", dim=10)
        assert ds.dim == 10
        with pytest.raises(ValueError):
            parse_sparse_text("+1 5:1\n", dim=3)

    def test_round_trip(self):
        text = "+1 1:0.5 3:-2.25\n-1 2:0.333333333333333315\n"
        ds = parse_sparse_text(text)
        assert ds.to_sparse_text() == "+1 1:0.5 3:-2.25\n-1 2:0.33333333333333331\n"
        again = parse_sparse_text(ds.to_sparse_text())
        assert ds == again

    def test_bytes_input(self):
        ds = parse_sparse_text(b"+1 1:1\n")
        assert ds.n_samples == 1

    def test_index_above_int32_reports_its_line(self):
        with pytest.raises(SparseTextError, match="line 2: feature index 99999999999"):
            parse_sparse_text("+1 1:1\n-1 99999999999:1\n")
        with pytest.raises(SparseTextError, match="line 1"):
            data._parse_lines("+1 2147483649:1\n", None)
        # the largest index whose 0-based form fits in int32
        _, _, indices, _, max_idx = data._parse_lines("+1 2147483648:1\n", None)
        assert indices.tolist() == [2**31 - 1] and max_idx == 2**31


LABEL_MAP = {0: -1, 8: 1, 3: -1}


def _outcome(text, **kwargs):
    """The parsed Dataset's arrays (NaN equal to NaN), or (exception type, message)."""
    try:
        d = parse_sparse_text(text, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return _Same(d)


class _Same:
    """`==` over a Dataset's shape and arrays, where the line parser's NaN values are equal."""

    def __init__(self, d: Dataset):
        self.d = d

    def __eq__(self, other):
        if not isinstance(other, _Same):
            return NotImplemented
        a, b = self.d, other.d
        return a.x.shape == b.x.shape and all(
            np.array_equal(u, v, equal_nan=True) for u, v in (
                (a.y, b.y), (a.x.indptr, b.x.indptr), (a.x.indices, b.x.indices),
                (a.x.data, b.x.data)))

    def __repr__(self):
        return repr(self.d)


def _line_outcome(text, monkeypatch, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(data, "_parse_clean", lambda text, lmap: None)
        return _outcome(text, **kwargs)


def _random_text(rng, mapped: bool) -> str:
    """A valid file: odd spacing, blank lines, empty rows, explicit zeros, varied number forms."""
    labels = ["0", "8", "3", "3.0", "8e0", "-0", "+0."] if mapped else \
        ["+1", "-1", "1", "1.0", "-1e0", "+1.", ".1e1", "-10E-1"]
    values = ["0", "-0", "0.0", "1e-400", "3", "-2.5E+3", ".5", "5.", "+7e-3", "1e308"]
    gaps = [" ", "\t", "  ", " \t ", "\t\t"]
    lines = []
    for _ in range(rng.integers(1, 25)):
        if rng.random() < 0.15:
            lines.append(str(rng.choice(["", " ", "\t", "  \t "])))
            continue
        fields = [str(rng.choice(labels))]
        for j in np.sort(rng.choice(np.arange(1, 80), size=rng.integers(0, 9), replace=False)):
            idx = f"0{j}" if rng.random() < 0.1 else str(j)
            val = str(rng.choice(values)) if rng.random() < 0.3 else repr(float(rng.normal()))
            fields.append(f"{idx}:{val}")
        line = "".join(f + str(rng.choice(gaps)) for f in fields[:-1]) + fields[-1]
        lines.append(str(rng.choice(["", " ", "\t"])) + line + str(rng.choice(["", " ", "\t "])))
    if not any(line.strip() for line in lines):
        lines.append("+1" if not mapped else "8")
    return "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")


def _mutate(text: str, rng) -> str:
    """One malformed or unusual field, line break or comment in a random sample line."""
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line.strip()]
    i = int(rng.choice(rows))
    fields = lines[i].split()
    feats = fields[1:]
    kind = rng.integers(0, 16)
    if kind == 0:
        fields[0] = str(rng.choice(["nan", "inf", "1_0", "0x1", "2", "1:1", "+-1", "1e", "."]))
    elif kind == 1 and feats:
        k = rng.integers(1, len(fields))
        val = fields[k].split(":")[1]
        fields[k] = str(rng.choice(["1.0", "1e2", "+3", "01", "0", "00", "-2", "1_0", "0x1",
                                    " ", "99999999999", "2147483648", "2147483647"])) + ":" + val
    elif kind == 2 and feats:
        k = rng.integers(1, len(fields))
        fields[k] = fields[k].split(":")[0] + ":" + str(rng.choice(
            ["nan", "inf", "-inf", "1_0", "0x1", "1e", "1e+", "--1", "1.5.5", "1-2", ".", "+", ""]))
    elif kind == 3:
        fields.insert(rng.integers(1, len(fields) + 1),
                      str(rng.choice(["3:4:5", ":5", "3:", ":", "3::5", "4", "1 :2", "1: 2"])))
    elif kind == 4 and len(feats) >= 2:
        k = rng.integers(1, len(fields) - 1)
        fields[k], fields[k + 1] = fields[k + 1], fields[k]  # decreasing
    elif kind == 5 and feats:
        k = rng.integers(1, len(fields))
        fields.insert(k, fields[k])  # equal
    elif kind == 6:
        return text.replace("\n", "\r\n")
    elif kind == 7:
        fields.append("# a comment")
    elif kind == 8:
        fields.append("\u00e9")
    elif kind == 9:
        fields.insert(1, "\x0b")
    else:
        fields.append(str(rng.choice(["1e2:1", "+3:1", "01:1", "1.0:1"])))
    lines[i] = " ".join(fields)
    return "\n".join(lines)


def _assert_read_as_float(tokens, monkeypatch):
    """The C path reads each token, as a label and as a value, to float()'s bits and the line parser's."""
    expected = np.array([float(t) for t in tokens])
    labels = ckernel.get().parse_sparse_text("".join(f"{t}\n" for t in tokens).encode())[0]
    np.testing.assert_array_equal(labels.view(np.uint64), expected.view(np.uint64))
    text = "".join(f"+1 1:{t}\n" for t in tokens)
    assert data._parse_clean(text, None) is not None
    fast, line = parse_sparse_text(text), _line_outcome(text, monkeypatch)
    assert fast == line.d
    kept = expected[expected != 0.0].view(np.uint64)
    np.testing.assert_array_equal(fast.x.data.view(np.uint64), kept)
    np.testing.assert_array_equal(line.d.x.data.view(np.uint64), kept)


class TestBulkParser:
    """The C path of parse_sparse_text against the line parser it falls back to."""

    @pytest.fixture(autouse=True)
    def _kernel(self):
        if ckernel.get() is None:
            pytest.skip(ckernel.reason)

    # the seeds are the block sizes the numpy bulk parser was once run with, so
    # the random files are the ones it was checked on
    @pytest.mark.parametrize("seed", [1, 7, 64, 1 << 20])
    @pytest.mark.parametrize("mapped", [False, True], ids=["pm1", "label_map"])
    def test_random_valid_files_match_the_line_parser(self, monkeypatch, seed, mapped):
        rng = np.random.default_rng(seed + mapped)
        kwargs = {"label_map": LABEL_MAP} if mapped else {}
        lmap = {float(k): float(v) for k, v in LABEL_MAP.items()} if mapped else None
        for _ in range(60):
            text = _random_text(rng, mapped)
            assert data._parse_clean(text, lmap) is not None, text
            fast = parse_sparse_text(text, **kwargs)
            assert _Same(fast) == _line_outcome(text, monkeypatch, **kwargs), text
            assert fast == parse_sparse_text(text.encode(), **kwargs)

    @pytest.mark.parametrize("seed", [1, 64, 1 << 20])
    @pytest.mark.parametrize("mapped", [False, True], ids=["pm1", "label_map"])
    def test_mutated_files_match_the_line_parser(self, monkeypatch, seed, mapped):
        rng = np.random.default_rng(100 + seed + mapped)
        kwargs = {"label_map": LABEL_MAP} if mapped else {}
        for _ in range(150):
            text = _mutate(_random_text(rng, mapped), rng)
            expected = _line_outcome(text, monkeypatch, **kwargs)
            assert _outcome(text, **kwargs) == expected, text
            assert _outcome(text.encode(), **kwargs) == _line_outcome(
                text.encode(), monkeypatch, **kwargs), text

    @pytest.mark.parametrize("text", [
        "+1 1e2:1\n", "+1 1.0:1\n", "+1 +3:1\n", "+1 01:1\n", "+1 3:4:5\n", "+1 :5\n",
        "+1 3:\n", "+1 0:1\n", "+1 3:1 2:1\n", "+1 3:1 3:1\n", "+1 1:nan\n", "+1 1_0:1\n",
        "+1 1:0x1\n", "+1 1:1\r\n-1 2:1\r\n", "+1 1:1 # c\n", "nan 1:1\n", "+1 4\n",
        "1:1 2:1\n", "\n\n", "", "  \t\n", "+1 2147483648:1\n", "+1 1:1e\n", "+1 1:1-2\n",
        "+1 99999999999:1\n", "+1 2147483647:1\n", "+1 1:-inf\n", "+1 1: 2\n", "+1 1 :2\n",
        "+1 4 5\n", "+1 4\t5", "+1 2 0 3:1\n", "+1 1:2:\n", "+1:\n", "-1 1:2x\n",
        "+1 1:1.2.3\n", "+1 1:1..5\n", "1.0.0 1:1\n", "+1 1:1e+\n", "+1 1:1.5E-\n", "1e 1:1\n",
    ])
    def test_listed_mutations_match_the_line_parser(self, monkeypatch, text):
        assert _outcome(text) == _line_outcome(text, monkeypatch)

    @pytest.mark.parametrize("label_map", [{}, {8: 1}, {0: -1}, {-0.0: 1, 8: -1},
                                           {float("inf"): 1, float("nan"): -1}])
    def test_label_maps_match_the_line_parser(self, monkeypatch, label_map):
        text = "8 1:1\n\n0 2:1\n-0 3:1\n1e999 4:1\n"
        assert _outcome(text, label_map=label_map) == _line_outcome(text, monkeypatch,
                                                                    label_map=label_map)

    def test_clean_input_never_reaches_the_line_parser(self, monkeypatch):
        def refuse(text, lmap):
            raise AssertionError("line parser used on clean input")
        monkeypatch.setattr(data, "_parse_lines", refuse)
        ds, _ = generate_synthetic(300, 12, 0.4, seed=4)
        assert parse_sparse_text(ds.to_sparse_text()) == ds
        assert parse_sparse_text(ds.to_sparse_text().encode()) == ds

    @pytest.mark.parametrize("text", ["+1 1:2.5", "+1 1:2.5 3:-1e5", "-1", "+1\n-1 2:7",
                                      "+1 1:1\n-1 2:7 \t", "+1 3:0"])
    def test_last_token_may_end_the_input(self, monkeypatch, text):
        # the kernel's last strtod stops at the NUL CPython keeps after the bytes
        assert ckernel.get().parse_sparse_text(text.encode()) is not None
        assert _outcome(text) == _line_outcome(text, monkeypatch)

    @pytest.mark.parametrize("text", ["+1 1:2\x00\n", "+1 1:2\x005\n", "+1\x00 1:2\n",
                                      "\x00", "+1 1:2\n\x00", "+1 1\x00:2\n"])
    def test_embedded_nul_falls_back(self, monkeypatch, text):
        assert ckernel.get().parse_sparse_text(text.encode()) is None
        assert _outcome(text) == _line_outcome(text, monkeypatch)

    def test_values_are_the_bits_float_reads(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, size=300, dtype=np.uint64).view(np.float64)
        tokens = [repr(float(v)) for v in bits[np.isfinite(bits)]]
        tokens += ["%.17g" % v for v in rng.normal(size=100) * 10.0 ** rng.integers(-300, 300, 100)]
        tokens += ["5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308", "1e-320",
                   "-2.225073858507201e-308", "1e-400", "-1e-400", "1e308", "1.7976931348623157e308",
                   "1.7976931348623159e308", "1e309", "-0.0", "0.1", "9007199254740993"]
        text = "".join(f"+1 1:{t}\n" for t in tokens)
        assert data._parse_clean(text, None) is not None
        ds = parse_sparse_text(text)
        expected = [float(t) for t in tokens]
        assert ds.x.indptr.tolist() == np.cumsum([0] + [v != 0.0 for v in expected]).tolist()
        np.testing.assert_array_equal(ds.x.data.view(np.uint64),
                                      np.array([v for v in expected if v != 0.0]).view(np.uint64))

    # read_number's exact case: m <= 2^53 significant, |k| <= 22 decimal exponent
    @pytest.mark.parametrize("tokens", [
        ["9007199254740992", "9007199254740992e22", "9007199254740992e-22", "900719925474099.2",
         "-9007199254740992e5", "9007199254740993", "9007199254740993e1", "9007199254740993e22",
         "900719925474099.3", "90071992547409.93e-8", "9007199254740994e3"],
        ["123456789012345", "1.23456789012345e-7", "8.765432109876543", "8765432109876543e14",
         "12345678901234567", "1.2345678901234567e-3", "1234567890123456789",
         ".1234567890123456789e5", "12345678901234567890", "00000000000000000001234567890123456"],
        ["1e22", "1e-22", "3e22", "3e-22", "1e23", "1e-23", "3e23", "3e-23", "123456789e23",
         "7.5e-23", "0.001e25", "100e21", "10e22", "1.0e22", "-4e-22", "99e-24"],
        ["0000.000123", "0." + "0" * 25 + "1", "5.", ".5", "+.5e+3", "1e022",
         "1e0000000000000000001", "-0", "-0.0e5", "+0", "0.000", "00", "-.5E-2", "1E+05",
         "0.000000000000000000000000000001e300", "1e99999", "1e100000", "-1e-100000"],
    ], ids=["2^53", "digits", "exponent", "forms"])
    def test_exact_decimals_are_the_bits_float_reads(self, monkeypatch, tokens):
        _assert_read_as_float(tokens, monkeypatch)

    def test_random_short_decimals_are_the_bits_float_reads(self, monkeypatch):
        rng = np.random.default_rng(14)
        tokens = []
        for _ in range(5000):
            digits = "".join(map(str, rng.integers(0, 10, rng.integers(1, 20))))
            k = int(rng.integers(-30, 31))
            sign = str(rng.choice(["", "-", "+"]))
            if rng.random() < 0.5:
                tokens.append(f"{sign}{digits[:1]}.{digits[1:]}e{k - len(digits) + 1}"
                              if rng.random() < 0.5 else f"{sign}{digits}E{k:+}")
            elif k >= 0:
                tokens.append(f"{sign}{digits}{'0' * k}")
            else:
                padded = digits.rjust(1 - k, "0")
                tokens.append(f"{sign}{padded[:k]}.{padded[k:]}")
        _assert_read_as_float(tokens, monkeypatch)

    def test_rcv1_shaped_file_is_the_line_parsers_bits(self, monkeypatch, rcv1_like, rcv1_tiny):
        # the file's "%.9g" values all take the exact case
        x = rcv1_tiny.x
        text = rcv1_like.to_text(x.indptr, x.indices, x.data, rcv1_tiny.y)
        fast, line = parse_sparse_text(text), _line_outcome(text, monkeypatch)
        assert fast == line.d
        np.testing.assert_array_equal(fast.x.data.view(np.uint64), line.d.x.data.view(np.uint64))

    @pytest.mark.parametrize("mapped", [False, True], ids=["pm1", "label_map"])
    def test_no_kernel_gives_an_equal_dataset(self, monkeypatch, mapped):
        ds, _ = generate_synthetic(500, 30, 0.3, seed=9)
        text = ds.to_sparse_text()
        kwargs = {}
        if mapped:
            text = "".join(("8" if line[0] == "+" else "0") + line[2:] + "\n"
                           for line in text.splitlines())
            kwargs = {"label_map": LABEL_MAP}
        fast = parse_sparse_text(text, **kwargs)
        monkeypatch.setattr(ckernel, "get", lambda: None)
        assert parse_sparse_text(text, **kwargs) == fast == ds

    def test_malformed_text_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for text in ("+1 1:1e\n", "+1 1:1-2\n", "+1 1:.\n", "  \n"):
                assert isinstance(_outcome(text), tuple)

    # the arrays are sized from len(text): len // 2 + 1 rows, len // 4 nonzeros
    @pytest.mark.parametrize("text", [
        b"1\n" * 7, b"1\n" * 6 + b"1", b"1", b"1\n",
        b"1 1:1 2:1 3:1 4:1 5:1 6:1 7:1 8:1 9:1", b"1 1:1 2:1 3:1 4:1 5:1 6:1 7:1 8:1 9:1\n",
        b"-1 1:1\n1 2:1", b"",
    ], ids=["rows", "rows_at_bound", "one_byte", "one_row", "nonzeros_at_bound", "nonzeros",
            "two_rows", "empty"])
    def test_text_at_the_size_bounds(self, monkeypatch, text):
        parts = ckernel.get().parse_sparse_text(text)
        assert parts is not None
        labels, indptr, indices, values, _ = parts
        assert labels.size <= len(text) // 2 + 1 and values.size <= len(text) // 4
        if text in (b"1\n" * 6 + b"1", b"1 1:1 2:1 3:1 4:1 5:1 6:1 7:1 8:1 9:1"):
            assert labels.size == len(text) // 2 + 1 or values.size == len(text) // 4
        # the used prefixes are copied out, not views of the reserved arrays
        assert all(a.base is None for a in (labels, indptr, indices, values))
        assert indptr.size == labels.size + 1 and indices.size == values.size
        assert _outcome(text) == _line_outcome(text, monkeypatch)

    def test_more_nonzeros_than_int32_falls_back(self, monkeypatch):
        text = b"1 1:1 2:1 3:1\n-1 4:2 5:0\n\n1 6:-1.5\n"  # 5 nonzeros
        fast = parse_sparse_text(text)
        used = []
        monkeypatch.setattr(data, "_parse_lines",
                            lambda text, lmap, parse=data._parse_lines: used.append(1) or
                            parse(text, lmap))
        monkeypatch.setattr(ckernel, "_INT32_LIMIT", 6)  # room for exactly 5
        assert ckernel.get().parse_sparse_text(text) is not None
        assert _Same(parse_sparse_text(text)) == _Same(fast) and not used
        monkeypatch.setattr(ckernel, "_INT32_LIMIT", 5)
        assert ckernel.get().parse_sparse_text(text) is None
        assert _Same(parse_sparse_text(text)) == _Same(fast) and used == [1]
        assert _outcome(text) == _line_outcome(text, monkeypatch)


def _old_to_sparse_text(d: Dataset) -> str:
    """The per-row formatter the batched one replaced."""
    out = []
    for i in range(d.n_samples):
        lo, hi = d.x.indptr[i], d.x.indptr[i + 1]
        fields = ["+1" if d.y[i] > 0 else "-1"]
        fields.extend(f"{int(j) + 1}:{v:.17g}" for j, v in zip(d.x.indices[lo:hi], d.x.data[lo:hi]))
        out.append(" ".join(fields) + "\n")
    return "".join(out)


class TestSerializer:
    @pytest.mark.parametrize("batch_rows", [1, 3, data._FORMAT_BATCH_ROWS])
    def test_bytes_match_the_per_row_formatter(self, monkeypatch, batch_rows):
        monkeypatch.setattr(data, "_FORMAT_BATCH_ROWS", batch_rows)
        rng = np.random.default_rng(batch_rows)
        bits = rng.integers(0, 2**64, size=400, dtype=np.uint64).view(np.float64)
        vals = np.concatenate([bits[np.isfinite(bits)], [0.1, 1e16, 1e17, 5e-324, -1e-300, 2.0]])
        x = sparse.random(57, 3000, density=0.01, format="csr", random_state=batch_rows)
        x.data = rng.choice(vals, size=x.nnz)
        x.data[x.indptr[5]:x.indptr[6]] = 0.0  # an empty row
        x.eliminate_zeros()
        d = Dataset(x, rng.choice([-1.0, 1.0], size=57))
        assert d.to_sparse_text() == _old_to_sparse_text(d)
        assert parse_sparse_text(d.to_sparse_text(), dim=3000) == d

    def test_generated_data(self):
        d, _ = generate_synthetic(2100, 9, 0.5, seed=2)
        assert d.to_sparse_text() == _old_to_sparse_text(d)


class TestSynthetic:
    def test_deterministic(self):
        a, wa = generate_synthetic(10, 4, 1.0, seed=7)
        b, wb = generate_synthetic(10, 4, 1.0, seed=7)
        assert a == b
        np.testing.assert_array_equal(wa, wb)

    def test_label_frequency_band(self):
        ds, _ = generate_synthetic(1000, 10, 1.0, seed=123)
        frac = float(np.mean(ds.y == 1.0))
        assert 0.2 <= frac <= 0.8

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 4, 1.0, seed=1)
        with pytest.raises(ValueError):
            generate_synthetic(4, 0, 1.0, seed=1)
        with pytest.raises(ValueError):
            generate_synthetic(4, 4, 0.0, seed=1)

    def test_sparsity_drops_entries(self):
        ds, _ = generate_synthetic(200, 50, 0.1, seed=2)
        frac_nonzero = ds.x.nnz / (200 * 50)
        assert 0.05 < frac_nonzero < 0.15

    def test_memory_limit_is_the_draw_peak(self, monkeypatch):
        # with room for exactly 100 x 10 entries, the next row is refused
        monkeypatch.setattr(data.os, "sysconf", lambda name: 1 if name == "SC_PAGE_SIZE"
                            else data._DENSE_DRAW_BYTES_PER_ENTRY * 100 * 10)
        assert generate_synthetic(100, 10, 0.5, seed=1)[0].n_samples == 100
        with pytest.raises(ValueError, match="physical memory"):
            generate_synthetic(101, 10, 0.5, seed=1)


class TestNormalize:
    def test_three_four_five(self):
        ds = parse_sparse_text("+1 1:3 2:4\n")
        nd = normalize(ds)
        np.testing.assert_allclose(nd.x[0].data, [0.6, 0.8])

    def test_zero_row_unchanged(self):
        # a parsed explicit zero is dropped, leaving an empty row
        ds = parse_sparse_text("+1 1:0\n-1 2:1\n", dim=2)
        nd = normalize(ds)
        assert nd.x[0].nnz == 0
        np.testing.assert_allclose(nd.x[1].data, [1.0])

    def test_idempotent(self):
        ds, _ = generate_synthetic(50, 6, 1.0, seed=3)
        once = normalize(ds)
        twice = normalize(once)
        np.testing.assert_allclose(once.x.data, twice.x.data, rtol=1e-15)

    def test_max_norm_bound(self):
        ds, _ = generate_synthetic(300, 8, 0.7, seed=5)
        assert np.sqrt(data.row_sq_norms(normalize(ds).x)).max() <= 1 + 1e-12

    def test_input_unchanged_and_result_read_only(self):
        ds = parse_sparse_text("+1 1:3 2:4\n-1\n+1 3:-2 5:1e-200\n-1 1:0.5\n", dim=6)
        arrays = (ds.x.data, ds.x.indices, ds.x.indptr, ds.y)
        before = [a.copy() for a in arrays]
        nd = normalize(ds)
        for a, b in zip(arrays, before):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a in (nd.x.data, nd.x.indices, nd.x.indptr, nd.y):
            assert not a.flags.writeable
        # only the values are new: the structure is the input's own arrays
        assert np.shares_memory(nd.x.indices, ds.x.indices)
        assert np.shares_memory(nd.x.indptr, ds.x.indptr)
        assert not np.shares_memory(nd.x.data, ds.x.data)


def _old_row_sq_norms(x):
    return np.asarray(x.multiply(x).sum(axis=1)).ravel()


def _row_norm_case(name, request):
    """A Dataset or view with the named feature: empty rows, stored zeros, underflowing squares, ..."""
    if name == "edges":
        # rows: empty, short, stored zero and 1e-200 among others, 30 long with both, all 1e-200, empty
        rng = np.random.default_rng(2)
        long_row = rng.normal(size=30)
        long_row[[3, 11, 12]] = 0.0
        long_row[[5, 20]] = 1e-200
        rows = [[], [3.0, 4.0], [0.0, 1e-200, 2.0, -0.5], list(long_row), [1e-200, -1e-200], []]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        x = sparse.csr_matrix((np.concatenate(rows), np.concatenate([np.arange(len(r)) for r in rows]),
                               indptr), shape=(len(rows), 30))
        return Dataset(x, np.ones(len(rows)))
    if name == "stored_zeros":
        rng = np.random.default_rng(3)
        x = sparse.random(60, 90, density=0.3, format="csr", random_state=4)
        x.data[rng.random(x.nnz) < 0.25] = 0.0
        return Dataset(x, np.ones(60))
    if name == "prefix_view":
        return generate_synthetic(300, 40, 0.5, seed=6)[0].prefix(123)
    if name == "8192x20":
        return generate_synthetic(8192, 20, 1.0, seed=7)[0]
    return request.getfixturevalue("rcv1_tiny")


class TestRowSqNorms:
    """data.row_sq_norms against the x.multiply(x).sum(axis=1) it replaced, bit for bit."""

    CASES = ["edges", "stored_zeros", "prefix_view", "8192x20", "rcv1_2000x3000"]

    @pytest.mark.parametrize("case", CASES)
    def test_bits_of_the_elementwise_product_sum(self, request, case):
        d = _row_norm_case(case, request)
        if case in ("edges", "stored_zeros"):
            assert (d.x.data == 0.0).any()
        np.testing.assert_array_equal(data.row_sq_norms(d.x).view(np.uint64),
                                      _old_row_sq_norms(d.x).view(np.uint64))

    @pytest.mark.parametrize("case", CASES)
    def test_normalize_bits(self, request, case):
        d = _row_norm_case(case, request)
        d = Dataset(d.x, d.y)
        norms = np.sqrt(_old_row_sq_norms(d.x))
        scale = np.repeat(np.where(norms > 0.0, norms, 1.0), np.diff(d.x.indptr))
        np.testing.assert_array_equal(normalize(d).x.data.view(np.uint64),
                                      (d.x.data / scale).view(np.uint64))

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("loss", ["logistic", "squared"])
    def test_smoothness_constant_bits(self, request, case, loss):
        d = _row_norm_case(case, request)
        max_sq = float(np.max(_old_row_sq_norms(d.x)))
        old = max(max_sq / 4.0 if loss == "logistic" else max_sq, 1e-12)
        assert np.float64(smoothness_constant(loss, d)).view(np.uint64) == \
            np.float64(old).view(np.uint64)


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a view's memory."""
    while a.base is not None:
        a = a.base
    return a


class TestSplitAndPrefix:
    def test_full_train_leaves_empty_test(self):
        ds, _ = generate_synthetic(10, 3, 1.0, seed=1)
        train, test = shuffle_and_split(ds, 10, seed=0)
        assert train.n_samples == 10 and test.n_samples == 0

    def test_split_deterministic(self):
        ds, _ = generate_synthetic(40, 3, 1.0, seed=1)
        a = shuffle_and_split(ds, 30, seed=5)
        b = shuffle_and_split(ds, 30, seed=5)
        assert a[0] == b[0] and a[1] == b[1]

    def test_split_sizes(self):
        ds, _ = generate_synthetic(11774, 3, 1.0, seed=1)
        train, test = shuffle_and_split(ds, 6000, seed=0)
        assert train.n_samples == 6000 and test.n_samples == 5774

    @pytest.mark.parametrize("n_train", [1, 23, 40, 60], ids=["N=1", "N=23", "N=40", "N=n"])
    @pytest.mark.parametrize("source", ["synthetic", "parsed"])
    def test_split_is_the_permuted_matrix_sliced(self, source, n_train):
        if source == "synthetic":
            ds = generate_synthetic(60, 9, 0.4, seed=2)[0]
        else:  # empty rows, int32 index arrays from the parser
            ds = normalize(parse_sparse_text(
                "".join(f"{(-1) ** i} " + " ".join(f"{j}:{i + j / 7}" for j in range(1, i % 5 + 1))
                        + "\n" for i in range(60))))
        train, test = shuffle_and_split(ds, n_train, seed=4)
        perm = np.random.default_rng(4).permutation(ds.n_samples)
        for got, x, y in ((train, ds.x[perm][:n_train], ds.y[perm][:n_train]),
                          (test, ds.x[perm][n_train:], ds.y[perm][n_train:])):
            assert got.x.shape == x.shape
            for a, b in ((got.x.data, x.data), (got.x.indices, x.indices),
                         (got.x.indptr, x.indptr), (got.y, y)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
        # row blocks of one permuted matrix: scipy copies only a block holding
        # under half of its entries
        for got in (train, test):
            if 2 * got.x.nnz >= ds.x.nnz:
                assert _owner(got.x.data).size == _owner(got.x.indices).size == ds.x.nnz

    def test_split_range_check(self):
        ds, _ = generate_synthetic(10, 3, 1.0, seed=1)
        with pytest.raises(ValueError):
            shuffle_and_split(ds, 11, seed=0)
        with pytest.raises(ValueError):
            shuffle_and_split(ds, 0, seed=0)

    def test_prefix_identity(self, small_train):
        view = small_train.prefix(small_train.n_samples)
        assert view.n_samples == small_train.n_samples
        assert view.x.shape == small_train.x.shape
        assert view is small_train

    @pytest.mark.parametrize("n", [1, 64, 255, 256, 400, 511, 512])
    def test_prefix_is_the_sliced_matrix(self, n):
        # scipy copies a row block holding under half of its base's entries
        # (n = 64 of 512 here); the copies are read-only too
        d = normalize(generate_synthetic(512, 12, 1.0, seed=11)[0])
        p = d.prefix(n)
        assert isinstance(p, Dataset) and p.n_samples == n and p.dim == d.dim
        x = d.x[:n]
        for a, b in ((p.x.data, x.data), (p.x.indices, x.indices), (p.x.indptr, x.indptr),
                     (p.y, d.y[:n])):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
        if 2 * p.x.nnz >= d.x.nnz:
            assert _owner(p.x.data) is _owner(d.x.data)
        assert "xt" not in vars(p)  # the transpose is built on first read, once
        assert p.xt is p.xt and (p.xt != p.x.T).nnz == 0

    def test_prefix_makes_no_canonical_format_scan(self, monkeypatch):
        # the rows of a canonical matrix are canonical: a prefix takes its base's flag
        d = normalize(generate_synthetic(512, 12, 0.5, seed=11)[0])
        scans = []
        for module in (_compressed, _sparsetools):  # scipy looks the scan up in one of them
            real = getattr(module, "csr_has_canonical_format", None)
            if real is not None:
                monkeypatch.setattr(module, "csr_has_canonical_format",
                                    lambda *a, real=real: scans.append(a) or real(*a))
        assert sparse.csr_matrix((d.x.data, d.x.indices, d.x.indptr),
                                 shape=d.x.shape).has_canonical_format
        assert len(scans) == 1  # the spy sees the scan of a matrix without the flag
        scans.clear()
        for n in (1, 64, 255, 256, 511):
            p = d.prefix(n)
            assert p.x.has_canonical_format and p.prefix(1).x.has_canonical_format
        assert scans == []

    def test_row_block_of_a_non_canonical_matrix_is_merged(self):
        # column 0 twice in row 0: the block keeps the flag False, and Dataset merges it
        x = sparse.csr_matrix((np.array([0.75, -0.25, 0.5, 0.8]), np.array([0, 0, 1, 1]),
                               np.array([0, 3, 4])), shape=(2, 2))
        block = data.row_block(x, 0, 1)
        assert not block.has_canonical_format
        np.testing.assert_array_equal(Dataset(block, np.array([1.0])).x.toarray(), [[0.5, 0.5]])

    def test_prefix_nesting(self, small_train):
        v400 = small_train.prefix(400)
        v500 = small_train.prefix(500)
        np.testing.assert_array_equal(v500.x[:400].toarray(), v400.x.toarray())
        np.testing.assert_array_equal(v500.y[:400], v400.y)

    def test_prefix_out_of_range(self, small_train):
        with pytest.raises(ValueError):
            small_train.prefix(0)
        with pytest.raises(ValueError):
            small_train.prefix(small_train.n_samples + 1)

    def test_dataset_immutable(self, small_train):
        with pytest.raises(ValueError):
            small_train.y[0] = 5.0
        with pytest.raises(ValueError):
            small_train.x.data[0] = 5.0
