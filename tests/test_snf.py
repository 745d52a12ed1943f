"""Exact integer linear algebra: Smith form, determinants, rank statistics."""

import math
from fractions import Fraction
from itertools import permutations as iter_permutations

import pytest
from hypothesis import given, settings, strategies as st

import bruhatops.snf as snf_module
from bruhatops.hasse import mahonian_numbers, predicted_snf, rank_size, verify_snf_theorem
from bruhatops.permutations import length
from bruhatops.snf import (
    compose_steps,
    determinant,
    diagonal_model_snf,
    divisibility_normalize,
    identity_matrix,
    matmul,
    push_rows,
    snf,
    snf_via_minor_gcd,
    transpose,
)


def fraction_determinant(mat):
    """Oracle: Gaussian elimination over Fraction, fully independent of the
    integer-preserving routine under test."""
    size = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, size):
            factor = a[r][col] / a[col][col]
            for c in range(col, size):
                a[r][c] -= factor * a[col][c]
    assert det.denominator == 1
    return int(det)


matrix_strategy = st.integers(1, 5).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-30, 30), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)

square_strategy = st.integers(1, 5).flatmap(
    lambda size: st.lists(
        st.lists(st.integers(-12, 12), min_size=size, max_size=size),
        min_size=size,
        max_size=size,
    )
)



@st.composite
def low_rank_strategy(draw):
    """Products B * C whose inner dimension is below min(rows, cols), so that
    the rank is deficient."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    inner = draw(st.integers(0, min(rows, cols) - 1))
    entry = st.integers(-6, 6)
    b = [draw(st.lists(entry, min_size=inner, max_size=inner)) for _ in range(rows)]
    c = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(inner)]
    return [
        [sum(b[i][k] * c[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)
    ]


class TestDeterminant:
    def test_frozen(self):
        assert determinant([[2, 1], [0, 1]]) == 2
        assert determinant([[1, 1], [1, 3]]) == 2
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[5]]) == 5
        assert determinant([]) == 1
        assert determinant([[1, 2], [2, 4]]) == 0
        assert determinant([[0, 0, 1], [0, 2, 3], [0, 4, 5]]) == 0
        assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1

    @given(square_strategy)
    def test_matches_fraction_oracle(self, mat):
        assert determinant(mat) == fraction_determinant(mat)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            determinant([[1, 2, 3], [4, 5, 6]])


class TestMatmulHelpers:
    def test_matmul_shapes(self):
        a = [[1, 2], [3, 4], [5, 6]]
        b = [[1, 0, 0], [0, 1, 1]]
        assert matmul(a, b) == [[1, 2, 2], [3, 4, 4], [5, 6, 6]]
        with pytest.raises(ValueError):
            matmul(a, a)

    def test_identity_and_transpose(self):
        assert identity_matrix(2) == [[1, 0], [0, 1]]
        assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]


class TestComposer:
    def test_no_steps_is_identity(self):
        assert compose_steps([], 3, 3) == identity_matrix(3)
        assert compose_steps([], 0, 0) == []

    def test_matches_matmul_with_cancellation(self):
        a = [(0, 0, 2), (0, 1, -1), (1, 1, 3)]  # 2x2
        b = [(0, 0, 1), (1, 0, 2), (1, 2, 5)]  # 2x3
        dense_a = [[2, -1], [0, 3]]
        dense_b = [[1, 0, 0], [2, 0, 5]]
        assert compose_steps([a, b], 2, 3) == matmul(dense_a, dense_b) == [[0, 0, -5], [6, 0, 15]]

    def test_push_rows_keeps_row_order(self):
        step = [(0, 1, 4), (1, 0, 1)]
        assert push_rows([{1: 3}, {0: 1, 1: 1}, {}], [step, step]) == [{1: 12}, {0: 4, 1: 4}, {}]


class TestSmithForm:
    def test_printed_examples(self):
        assert snf([[1, 1], [1, 3]]) == (1, 2)
        assert snf([[2, 0], [0, 1]]) == (1, 2)
        assert snf([[2, 4], [4, 6]]) == (2, 2)

    def test_degenerate_shapes(self):
        assert snf([[0, 0], [0, 0]]) == (0, 0)
        assert snf([[0, 0, 0], [0, 0, 0]]) == (0, 0)
        assert snf([[]]) == ()
        assert snf([]) == ()
        assert snf([[6]]) == (6,)
        assert snf([[4, 6]]) == (2,)
        assert snf([[4], [6]]) == (2,)
        assert snf([[2, 0], [0, 3]]) == (1, 6)

    def test_rank_deficient_examples(self):
        # the rows of a nonsingular maximal minor need not span the row
        # lattice: [[1, 1]] alone would give (1, 0), [[2, 2]] alone (2, 0)
        assert snf([[2, 2], [1, 1]]) == snf_via_minor_gcd([[2, 2], [1, 1]]) == (1, 0)
        assert snf([[2, 4], [3, 6]]) == snf_via_minor_gcd([[2, 4], [3, 6]]) == (1, 0)
        assert snf([[2, 4], [4, 8], [6, 12]]) == (2, 0)

    def test_does_not_call_public_determinant(self, monkeypatch):
        # a tracer may wrap the public name in a deadline of its own
        def refuse(mat):
            raise AssertionError("snf called the public determinant")

        monkeypatch.setattr(snf_module, "determinant", refuse)
        assert snf([[2, 4], [4, 6]]) == (2, 2)
        assert snf([[2, 2], [1, 1], [0, 3]]) == (1, 3)

    def test_oracle_agrees_on_printed_examples(self):
        assert snf_via_minor_gcd([[1, 1], [1, 3]]) == (1, 2)
        assert snf_via_minor_gcd([[2, 0], [0, 1]]) == (1, 2)
        assert snf_via_minor_gcd([[2, 4], [4, 6]]) == (2, 2)
        assert snf_via_minor_gcd([[0, 0], [0, 0]]) == (0, 0)

    @given(matrix_strategy)
    @settings(max_examples=300)
    def test_equals_minor_gcd_oracle(self, mat):
        assert snf(mat) == snf_via_minor_gcd(mat)

    @given(low_rank_strategy())
    @settings(max_examples=200)
    def test_low_rank_products_equal_minor_gcd_oracle(self, mat):
        inv = snf(mat)
        assert inv == snf_via_minor_gcd(mat)
        assert inv[-1] == 0

    @given(matrix_strategy)
    def test_divisibility_chain(self, mat):
        inv = snf(mat)
        assert len(inv) == min(len(mat), len(mat[0]))
        for a, b in zip(inv, inv[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        assert all(x >= 0 for x in inv)

    @given(square_strategy)
    def test_product_is_absolute_determinant(self, mat):
        inv = snf(mat)
        prod = math.prod(inv)
        assert prod == abs(determinant(mat))

    @given(matrix_strategy)
    def test_invariant_under_transpose(self, mat):
        padded = snf(mat)
        flipped = snf(transpose(mat))
        # tilde form: same nonzero invariants, zero-padding per shape
        assert [x for x in padded if x] == [x for x in flipped if x]

    @given(square_strategy, st.randoms(use_true_random=False))
    def test_invariant_under_row_permutation(self, mat, rng):
        rows = list(mat)
        rng.shuffle(rows)
        assert snf(rows) == snf(mat)

    def test_oracle_refuses_oversized_input(self):
        big = identity_matrix(9)
        with pytest.raises(ValueError):
            snf_via_minor_gcd(big)

    def test_divisibility_normalize(self):
        assert divisibility_normalize([2, 3]) == (1, 6)
        assert divisibility_normalize([4, 6, 0]) == (2, 12, 0)
        assert divisibility_normalize([]) == ()


class TestRankStatistics:
    def test_mahonian_frozen(self):
        assert mahonian_numbers(1) == (1,)
        assert mahonian_numbers(3) == (1, 2, 2, 1)
        assert mahonian_numbers(4) == (1, 3, 5, 6, 5, 3, 1)

    def test_mahonian_against_brute_count(self):
        for n in range(1, 7):
            counts = [0] * (n * (n - 1) // 2 + 1)
            for w in iter_permutations(range(1, n + 1)):
                counts[length(w)] += 1
            assert mahonian_numbers(n) == tuple(counts)

    def test_rank_size(self):
        assert rank_size(4, 3) == 6
        assert sum(rank_size(5, k) for k in range(11)) == 120
        with pytest.raises(ValueError):
            rank_size(4, 7)


class TestLayerTheorem:
    def test_predicted_frozen(self):
        assert predicted_snf(3, 1, 2) == (1, 2)
        assert predicted_snf(4, 2, 3) == (1, 1, 1, 2, 6)
        assert predicted_snf(3, 0, 3) == (6,)

    def test_diagonal_model_of_rank_sizes(self):
        assert diagonal_model_snf(mahonian_numbers(4), 2, 3) == predicted_snf(4, 2, 3)
        assert diagonal_model_snf((1, 2, 2, 1), 1, 2) == (1, 2)

    def test_predicted_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            predicted_snf(3, 2, 2)
        with pytest.raises(ValueError):
            predicted_snf(3, 2, 3)  # 2 + 3 > 3
        with pytest.raises(ValueError):
            predicted_snf(3, -1, 1)

    def test_theorem_all_windows_n3(self):
        top = 3
        for low in range(top + 1):
            for high in range(low + 1, top + 1):
                if low + high <= top:
                    report = verify_snf_theorem(3, low, high)
                    assert report["checked"] == 4
                    assert report["failures"] == []

    def test_theorem_spot_windows_n4(self):
        for low, high in ((0, 1), (1, 2), (2, 3), (0, 6), (1, 4)):
            report = verify_snf_theorem(4, low, high)
            assert report["failures"] == [], (low, high)
            assert report["suite"] == "snf"

    def test_report_values_are_strings(self):
        report = verify_snf_theorem(3, 1, 2)
        assert report["predicted"] == ["1", "2"]

