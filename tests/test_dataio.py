"""Tests for LibSVM parsing, relabeling, standardization, and splitting."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from aucmax.dataio import (
    Dataset,
    SparseVector,
    binary_labels,
    open_text,
    parse_libsvm,
    split,
    standardize_apply,
    standardize_fit,
    to_libsvm,
)
from aucmax.errors import ConfigError, DataError, ParseError


class TestSparseVector:
    def test_valid(self):
        v = SparseVector([0, 2, 5], [1.0, -2.0, 0.5])
        np.testing.assert_array_equal(v.to_dense(6), [1.0, 0.0, -2.0, 0.0, 0.0, 0.5])

    def test_rejects_unsorted_indices(self):
        with pytest.raises(DataError):
            SparseVector([2, 0], [1.0, 1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(DataError):
            SparseVector([1, 1], [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            SparseVector([0], [np.inf])

    def test_to_dense_rejects_index_outside_dim(self):
        with pytest.raises(DataError, match="outside dimension 5"):
            SparseVector([1, 5], [1.0, 2.0]).to_dense(5)
        np.testing.assert_array_equal(SparseVector([], []).to_dense(2), [0.0, 0.0])


class TestDataset:
    @pytest.mark.parametrize("X", [
        sp.csr_matrix(np.eye(2)),
        np.array([1.0, 2.0]),
        np.array([["a", "b"], ["c", "d"]]),
    ], ids=["csr", "1-d", "text"])
    def test_rejects_non_dense_2d_x(self, X):
        with pytest.raises(DataError, match="X must be"):
            Dataset(X, np.array([1, -1]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_x(self, value):
        with pytest.raises(DataError, match="finite"):
            Dataset(np.array([[1.0, value], [0.0, 2.0]]), np.array([1, -1]))

    def test_dim_is_the_column_count(self):
        assert Dataset(np.zeros((2, 3)), np.array([1, -1])).dim == 3
        assert Dataset(np.zeros((0, 4)), np.array([], dtype=np.int64)).dim == 4

    def test_class_indices(self):
        ds = Dataset(np.zeros((4, 1)), np.array([1, -1, -1, 1]))
        pos_idx, neg_idx = ds.class_indices()
        np.testing.assert_array_equal(pos_idx, [0, 3])
        np.testing.assert_array_equal(neg_idx, [1, 2])

    @pytest.mark.parametrize("labels, message", [
        ([0, 1, 0], "[+]-1 labels"),
        ([1, -1, 2], "[+]-1 labels"),
        ([1, 1, 1], "each class"),
        ([-1, -1, -1], "each class"),
    ], ids=["zero-one", "third-value", "only-positive", "only-negative"])
    def test_class_indices_rejects(self, labels, message):
        with pytest.raises(DataError, match=message):
            Dataset(np.zeros((3, 1)), np.array(labels)).class_indices()


class TestParseLibsvm:
    def test_basic_two_rows(self):
        ds = parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0")
        assert ds.n == 2
        assert ds.dim == 3
        np.testing.assert_array_equal(ds.y, [1, -1])
        assert ds.X.dtype == np.float64
        np.testing.assert_array_equal(ds.X, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])

    def test_empty_stream(self):
        ds = parse_libsvm("")
        assert ds.n == 0
        with pytest.raises(DataError, match="empty"):
            binary_labels(ds.y)

    def test_nonincreasing_indices_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("+1 3:1 1:2")

    def test_bad_value_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:1\n-1 2:abc")

    def test_bad_label_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("pos 1:1")

    def test_fractional_label_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("0.5 1:1")

    @pytest.mark.parametrize("label", ["1e30", "9223372036854775808", "-9223372036854775809", "-1e19"])
    def test_label_outside_int64_rejected(self, label):
        with pytest.raises(ParseError, match=f"line 2: label '{label}' does not fit"):
            parse_libsvm(f"+1 1:1\n{label} 1:0.5\n")

    @pytest.mark.parametrize("label", ["1.5", "nan", "-inf"])
    def test_non_integer_label_rejected(self, label):
        with pytest.raises(ParseError, match=f"line 2: label '{label}' is not an integer"):
            parse_libsvm(f"+1 1:1\n{label} 1:0.5\n")

    def test_int64_extreme_labels_kept(self):
        ds = parse_libsvm("-9223372036854775808 1:1\n4611686018427387904 1:2\n9223372036854775807 1:3\n")
        np.testing.assert_array_equal(ds.y, [-(2**63), 2**62, 2**63 - 1])

    @pytest.mark.parametrize("label, value", [
        ("9007199254740993", 2**53 + 1), ("-9007199254740993", -(2**53) - 1),
        ("1.0", 1), ("1e0", 1), ("-2E1", -20), ("+3", 3),
    ])
    def test_integer_label_kept_exactly(self, label, value):
        # integer text is read by int, so no label is rounded through a double
        assert parse_libsvm(f"{label} 1:1\n").y.tolist() == [value]

    def test_blank_lines_skipped(self):
        ds = parse_libsvm("+1 1:1\n\n\n-1 1:2\n")
        assert ds.n == 2

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 0:1")

    def test_zero_one_labels_remapped(self):
        # parsing keeps the labels; binary_labels makes the smaller one negative
        ds = parse_libsvm("0 1:1\n1 1:2")
        np.testing.assert_array_equal(ds.y, [0, 1])
        np.testing.assert_array_equal(binary_labels(ds.y), [-1, 1])

    def test_multiclass_labels_kept(self):
        ds = parse_libsvm("1 1:1\n2 1:2\n7 1:3")
        np.testing.assert_array_equal(ds.y, [1, 2, 7])

    def test_dim_override(self):
        ds = parse_libsvm("+1 1:1", dim=10)
        assert ds.dim == 10
        with pytest.raises(DataError, match="feature index 5 exceeds dimension 3"):
            parse_libsvm("+1 5:1", dim=3)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(7)
        lines = []
        for _ in range(40):
            label = rng.choice([-1, 1])
            idx = np.sort(rng.choice(30, size=rng.integers(0, 8), replace=False))
            vals = rng.standard_normal(idx.size) * 10.0 ** rng.integers(-8, 8)
            toks = [f"{label:+d}"] + [f"{i + 1}:{v:.17g}" for i, v in zip(idx, vals)]
            lines.append(" ".join(toks))
        text = "\n".join(lines) + "\n"
        ds = parse_libsvm(text)
        again = parse_libsvm(to_libsvm(ds), dim=ds.dim)
        assert again.n == ds.n
        np.testing.assert_array_equal(again.y, ds.y)
        np.testing.assert_array_equal(again.X, ds.X)

    def test_explicit_zeros_not_written_back(self):
        ds = parse_libsvm("+1 1:0 2:3.5\n-1 2:0\n")
        assert to_libsvm(ds) == "1 2:3.5\n-1\n"


class TestOpenText:
    def test_parse_error_names_the_file_and_keeps_its_line(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("+1 1:1\nx 1:2\n")
        with pytest.raises(ParseError) as exc:
            with open_text(str(path)) as fh:
                parse_libsvm(fh)
        assert str(exc.value) == f"{path}: line 2: label 'x' is not numeric"
        assert exc.value.line == 2

    def test_other_errors_pass_unchanged(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("")
        with pytest.raises(ConfigError, match="^bad flag$"):
            with open_text(str(path)):
                raise ConfigError("bad flag")


class TestBinaryLabels:
    def test_definition(self):
        np.testing.assert_array_equal(binary_labels([1, 2, 3, 4], {1, 2}), [1, 1, -1, -1])

    def test_no_negatives_errors(self):
        with pytest.raises(DataError, match="no negative"):
            binary_labels([1, 1], {1})

    def test_input_unchanged(self):
        y = np.array([3, 5, 3])
        np.testing.assert_array_equal(binary_labels(y, {5}), [-1, 1, -1])
        np.testing.assert_array_equal(y, [3, 5, 3])

    def test_multiclass_needs_positive_set(self):
        with pytest.raises(DataError, match="3 values"):
            binary_labels([1, 2, 7])

    @given(
        st.lists(st.integers(-3, 3), max_size=12),
        st.none() | st.frozensets(st.integers(-4, 4), max_size=3),
    )
    def test_rule(self, labels, positive):
        # a positive set decides; otherwise exactly two values, the smaller
        # one negative (so {-1, +1} passes through); both classes or DataError
        y = np.array(labels, dtype=np.int64)
        if positive is not None:
            expected = np.where(np.isin(y, list(positive)), 1, -1)
        elif len(set(labels)) == 2:
            expected = np.where(y == min(labels), -1, 1)
        else:
            expected = None
        if expected is None or len(set(expected.tolist())) < 2:
            with pytest.raises(DataError):
                binary_labels(y, positive)
        else:
            out = binary_labels(y, positive)
            assert out.dtype == np.int64
            np.testing.assert_array_equal(out, expected)


class TestStandardize:
    def test_two_point_symmetry(self):
        ds = Dataset(np.array([[1.0], [3.0]]), np.array([1, -1]))
        s = standardize_fit(ds)
        np.testing.assert_allclose(s.mean, [2.0])
        np.testing.assert_allclose(s.stdev, [1.0])
        out = standardize_apply(s, ds)
        np.testing.assert_allclose(out.X, [[-1.0], [1.0]])

    def test_constant_feature_guard(self):
        ds = Dataset(np.array([[5.0], [5.0], [5.0]]), np.array([1, 1, -1]))
        s = standardize_fit(ds)
        assert s.stdev[0] == 1.0
        out = standardize_apply(s, ds)
        np.testing.assert_allclose(out.X, np.zeros((3, 1)))

    def test_constant_feature_guard_inexact_mean(self):
        # values whose mean is not exactly representable must still be
        # detected as constant rather than divided by float noise
        ds = Dataset(np.full((7, 1), 5.1), np.array([1] * 6 + [-1]))
        s = standardize_fit(ds)
        assert s.stdev[0] == 1.0

    def test_random_moments(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((50, 5)) * rng.uniform(0.5, 4.0, size=5) + rng.uniform(
            -3, 3, size=5
        )
        ds = Dataset(X, np.where(rng.random(50) < 0.5, 1, -1))
        out = standardize_apply(standardize_fit(ds), ds)
        np.testing.assert_allclose(out.X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.X.var(axis=0), 1.0, atol=1e-12)

    def test_dim_mismatch(self):
        s = standardize_fit(Dataset(np.ones((2, 3)), np.array([1, -1])))
        with pytest.raises(DataError):
            standardize_apply(s, Dataset(np.ones((2, 2)), np.array([1, -1])))

    def test_test_data_uses_train_statistics(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.array([1, -1]))
        test = Dataset(np.array([[4.0]]), np.array([1]))
        s = standardize_fit(train)
        out = standardize_apply(s, test)
        np.testing.assert_allclose(out.X, [[3.0]])


class TestSplit:
    def _make(self, n, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 3))
        y = np.where(rng.random(n) < 0.3, 1, -1)
        if not (y == 1).any():
            y[0] = 1
        if not (y == -1).any():
            y[1] = -1
        return Dataset(X, y)

    def test_sizes_and_union(self):
        ds = self._make(10)
        tr, te = split(ds, 0.2, seed=5)
        assert tr.n == 8 and te.n == 2
        merged = np.vstack([tr.X, te.X])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.X))

    def test_deterministic(self):
        ds = self._make(57)
        a_tr, a_te = split(ds, 0.2, seed=9)
        b_tr, b_te = split(ds, 0.2, seed=9)
        np.testing.assert_array_equal(a_tr.X, b_tr.X)
        np.testing.assert_array_equal(a_te.y, b_te.y)

    def test_different_seed_differs(self):
        ds = self._make(200)
        a_tr, _ = split(ds, 0.2, seed=1)
        b_tr, _ = split(ds, 0.2, seed=2)
        assert not np.array_equal(a_tr.X, b_tr.X)

    def test_disjoint(self):
        ds = Dataset(np.arange(20.0).reshape(20, 1), np.array([1, -1] * 10))
        tr, te = split(ds, 0.25, seed=3)
        assert set(tr.X.ravel()).isdisjoint(te.X.ravel())
        assert tr.n + te.n == 20

    def test_class_ratio_preserved_on_average(self):
        rng = np.random.default_rng(42)
        n = 5000
        X = rng.standard_normal((n, 2))
        y = np.where(rng.random(n) < 0.25, 1, -1)
        ds = Dataset(X, y)
        full_ratio = np.count_nonzero(ds.y == 1) / n
        bad = 0
        for seed in range(20):
            tr, _ = split(ds, 0.2, seed=seed)
            if abs(np.count_nonzero(tr.y == 1) / tr.n - full_ratio) > 0.03:
                bad += 1
        assert bad == 0

    def test_bad_fraction(self):
        ds = self._make(10)
        for f in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                split(ds, f, seed=0)

    def test_too_small(self):
        ds = Dataset(np.ones((1, 1)), np.array([1]))
        with pytest.raises(DataError):
            split(ds, 0.5, seed=0)
