import numpy as np
import pytest

from adasize import generate_synthetic, normalize, parse_sparse_text, shuffle_and_split
from adasize.data import EmptyDatasetError, SparseTextError


class TestParser:
    def test_single_line(self):
        ds = parse_sparse_text("+1 1:0.5 3:-2\n")
        assert ds.n_samples == 1 and ds.dim == 3
        indices, values, label = ds.full_view().sample_arrays(0)
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
        assert normalize(ds).row_norms().max() <= 1 + 1e-12


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

    def test_split_range_check(self):
        ds, _ = generate_synthetic(10, 3, 1.0, seed=1)
        with pytest.raises(ValueError):
            shuffle_and_split(ds, 11, seed=0)
        with pytest.raises(ValueError):
            shuffle_and_split(ds, 0, seed=0)

    def test_prefix_identity(self, small_train):
        view = small_train.prefix(small_train.n_samples)
        assert view.count == small_train.n_samples
        assert view.x.shape == small_train.x.shape

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
