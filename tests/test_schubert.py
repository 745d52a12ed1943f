"""Schubert polynomials, padding, operator actions, and the basis change."""

import random
import sys
from fractions import Fraction
from itertools import permutations as iter_permutations

import pytest

import bruhatops.schubert as schubert_module
from bruhatops.permutations import (
    inverse,
    lehmer_code,
    length,
    num_inversions_max,
)
from bruhatops.schubert import (
    IntPolynomial,
    PaddedPolynomial,
    apply_delta,
    apply_nabla,
    basis_matrix_inverse,
    divided_difference,
    expand_in_padded_schubert_basis,
    monomials_of_rank,
    pad,
    principal_specialization,
    schubert,
    schubert_standard,
    staircase,
    unpad,
)
from bruhatops.hasse import mahonian_numbers

from oracles import basis_matrix, reference_ranks


def specialization_table(n):
    """S_w(1) by w over S_n, from the ranks that the recursion yields in
    turn, each in the lex order of the brute-force ranks."""
    ranks = reference_ranks(n)
    values = list(schubert_module._specialization_table(n))
    assert [len(v) for v in values] == [len(stratum) for stratum in ranks]
    return {w: v for stratum, row in zip(ranks, values) for w, v in zip(stratum, row)}


def reference_divided_difference(i, p):
    """Oracle: (p - s_i p)/(x_i - x_{i+1}) computed with Fraction-coefficient
    polynomial long division over a dense dict, independent of the
    production synthetic-division routine."""
    n = p.n
    width = max(n, i + 1)
    num = {}
    for alpha, c in p.terms.items():
        ext = alpha + (0,) * (width - len(alpha))
        swapped = list(ext)
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        num[ext] = num.get(ext, 0) + c
        key = tuple(swapped)
        num[key] = num.get(key, 0) - c
    num = {a: Fraction(c) for a, c in num.items() if c}
    quo = {}
    # repeatedly cancel the term with the largest x_i exponent
    while num:
        alpha = max(num, key=lambda a: (a[i - 1], a))
        c = num[alpha]
        assert alpha[i - 1] > 0, "division must be exact"
        q = list(alpha)
        q[i - 1] -= 1
        q = tuple(q)
        quo[q] = quo.get(q, 0) + c
        # subtract c * x^q * (x_i - x_{i+1})
        for pos, sign in ((i - 1, 1), (i, -1)):
            t = list(q)
            t[pos] += 1
            t = tuple(t)
            val = num.get(t, Fraction(0)) - sign * c
            if val:
                num[t] = val
            else:
                num.pop(t, None)
    out = {}
    for alpha, c in quo.items():
        assert c.denominator == 1
        assert all(e == 0 for e in alpha[n - 1 :])
        out[tuple(alpha[: n - 1])] = int(c)
    return IntPolynomial(n, out)


def reference_basis_inverse(n, k):
    """Oracle: the inverse of the change-of-basis matrix by Fraction
    Gauss-Jordan elimination, independent of the production peeling."""
    base = basis_matrix(n, k)
    size = len(base)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
        for i, row in enumerate(base)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    out = []
    for row in aug:
        tail = row[size:]
        assert all(v.denominator == 1 for v in tail), "inverse must be integral"
        out.append(tuple(int(v) for v in tail))
    return tuple(out)


# frozen table for S_3, checked by hand from the top monomial x1^2 x2
GOLDEN_3 = {
    (1, 2, 3): "1",
    (2, 1, 3): "x1",
    (1, 3, 2): "x1 + x2",
    (2, 3, 1): "x1^2",
    (3, 1, 2): "x1*x2",
    (3, 2, 1): "x1^2*x2",
}


class TestPolynomialArithmetic:
    def test_construction_drops_zeros(self):
        p = IntPolynomial(3, {(1, 0): 2, (0, 1): 0})
        assert p.terms == {(1, 0): 2}

    def test_add_sub_scale(self):
        for cls in (IntPolynomial, PaddedPolynomial):
            p = cls(3, {(1, 0): 1})
            q = cls(3, {(1, 0): 2, (0, 1): 5})
            assert (p + q).terms == {(1, 0): 3, (0, 1): 5}
            assert (q - p).terms == {(1, 0): 1, (0, 1): 5}
            assert (p - p).terms == {}
            assert not (p - p)
            assert p.scaled(0) == cls.zero(3)
            assert type(p + q) is type(q - p) is type(p.scaled(2)) is cls

    def test_classes_never_mix(self):
        plain = IntPolynomial(3, {(1, 0): 1})
        padded = PaddedPolynomial(3, {(1, 0): 1})
        assert plain != padded and padded != plain
        assert not (plain == padded or padded == plain)
        assert IntPolynomial.zero(3) != PaddedPolynomial.zero(3)
        for a, b in ((plain, padded), (padded, plain)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b

    def test_str_and_repr_frozen(self):
        terms = {(1, 0): -3, (2, 1): 1, (0, 0): 2}
        plain, padded = IntPolynomial(3, terms), PaddedPolynomial(3, terms)
        assert str(plain) == "x1^2*x2 - 3*x1 + 2"
        assert str(padded) == "x1^2*x2 - 3*x1*y1*y2 + 2*y1^2*y2"
        assert repr(plain) == "IntPolynomial(3, {(2, 1): 1, (1, 0): -3, (0, 0): 2})"
        assert repr(padded) == "PaddedPolynomial(3, {(2, 1): 1, (1, 0): -3, (0, 0): 2})"

    def test_zero_renders_as_zero(self):
        assert str(IntPolynomial.zero(4)) == "0"
        assert str(PaddedPolynomial.zero(4)) == "0"

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            IntPolynomial(3, {(1, 0, 0): 1})  # wrong arity
        with pytest.raises(ValueError):
            IntPolynomial(3, {(-1, 0): 1})

    def test_padded_respects_staircase_bound(self):
        PaddedPolynomial(3, {(2, 1): 1})
        with pytest.raises(ValueError):
            PaddedPolynomial(3, {(3, 0): 1})


class TestDividedDifference:
    def test_matches_reference_oracle_on_schubert_inputs(self):
        for n in (2, 3, 4):
            for w in iter_permutations(range(1, n + 1)):
                p = schubert(w)
                for i in range(1, n):
                    assert divided_difference(i, p) == reference_divided_difference(i, p)

    def test_matches_reference_oracle_on_random_inputs(self):
        rng = random.Random(20261018)
        for n in (3, 4, 5):
            # x_{n-1} at most linear keeps N_{n-1}(p) free of x_n
            caps = staircase(n)[:-1] + (1,)
            for _ in range(20):
                p = IntPolynomial(
                    n,
                    {
                        tuple(rng.randint(0, cap) for cap in caps): rng.randint(-5, 5)
                        for _ in range(rng.randint(0, 12))
                    },
                )
                for i in range(1, n):
                    assert divided_difference(i, p) == reference_divided_difference(i, p)
            # above the staircase, where N_i with i < n-1 stays in x_1..x_{n-1}
            for _ in range(20):
                p = IntPolynomial(
                    n,
                    {
                        tuple(rng.randint(0, n + 2) for _ in range(n - 1)): rng.randint(-5, 5)
                        for _ in range(rng.randint(0, 12))
                    },
                )
                for i in range(1, n - 1):
                    assert divided_difference(i, p) == reference_divided_difference(i, p)

    def test_index_out_of_range(self):
        p = schubert((3, 2, 1))
        for i in (0, 3):
            with pytest.raises(ValueError, match="index out of range"):
                divided_difference(i, p)

    def test_last_index_needs_linear_last_variable(self):
        # N_{n-1}(x_{n-1}^2) = x_{n-1} + x_n leaves x_1..x_{n-1}
        for n in (2, 3, 4):
            square = IntPolynomial.monomial(n, (0,) * (n - 2) + (2,))
            with pytest.raises(ValueError, match="does not lie in"):
                divided_difference(n - 1, square)

    def test_kills_symmetric_parts(self):
        # x1 + x2 is symmetric in (1,2): difference is zero
        p = IntPolynomial(3, {(1, 0): 1, (0, 1): 1})
        assert divided_difference(1, p) == IntPolynomial.zero(3)

    def test_square_is_zero(self):
        for w in iter_permutations(range(1, 5)):
            p = schubert(w)
            for i in (1, 2, 3):
                assert divided_difference(i, divided_difference(i, p)) == IntPolynomial.zero(4)

    def test_braid_relation(self):
        # d_i d_{i+1} d_i = d_{i+1} d_i d_{i+1} on every S_4 Schubert input
        def d(i, p):
            return divided_difference(i, p)

        for w in iter_permutations(range(1, 5)):
            p = schubert(w)
            assert d(1, d(2, d(1, p))) == d(2, d(1, d(2, p)))


class TestSchubert:
    def test_golden_table_n3(self):
        for w, want in GOLDEN_3.items():
            assert str(schubert(w)) == want

    def test_top_is_staircase_monomial(self):
        for n in (2, 3, 4, 5):
            w0 = tuple(range(n, 0, -1))
            assert schubert(w0).terms == {staircase(n): 1}

    def test_identity_is_one(self):
        for n in (2, 3, 4, 5):
            assert schubert(tuple(range(1, n + 1))) == IntPolynomial.one(n)

    def test_homogeneous_of_degree_length(self):
        for w in iter_permutations(range(1, 6)):
            assert schubert(w).homogeneous_degree() == length(w)

    def test_all_coefficients_positive(self):
        for w in iter_permutations(range(1, 6)):
            assert all(c > 0 for c in schubert(w).terms.values())

    def test_standard_convention_bridge(self):
        # the two conventions differ by inverting the indexing permutation
        for w in iter_permutations(range(1, 6)):
            winv = tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))
            assert schubert_standard(w).terms == schubert(winv).terms

    def test_standard_frozen_values(self):
        assert str(schubert_standard((2, 3, 1))) == "x1*x2"
        assert str(schubert_standard((3, 1, 2))) == "x1^2"
        assert str(schubert_standard((1, 4, 3, 2))) == (
            "x1^2*x2 + x1^2*x3 + x1*x2^2 + x1*x2*x3 + x2^2*x3"
        )

    def test_lex_least_exponent_is_the_code(self):
        # the minimal exponent vector of the standard polynomial, in plain
        # lexicographic order, is the Lehmer code
        for n in (2, 3, 4, 5):
            for w in iter_permutations(range(1, n + 1)):
                assert min(schubert_standard(w).terms) == lehmer_code(w)
                assert schubert_standard(w).terms[lehmer_code(w)] == 1

    def test_leading_term_is_code_of_inverse(self):
        # unitriangularity of the basis change in the left convention
        for n in range(1, 7):
            for w in iter_permutations(range(1, n + 1)):
                terms = schubert(w).terms
                lead = min(terms)
                assert lead == lehmer_code(inverse(w))
                assert terms[lead] == 1

    def test_principal_specialization_frozen(self):
        assert principal_specialization(schubert((1, 3, 2))) == 2
        assert principal_specialization(schubert((3, 2, 1))) == 1
        assert principal_specialization(schubert((1, 4, 3, 2))) == 5

    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_chain_equals_the_table(self, n):
        # schubert(w) divides down one chain; the table fills all of S_n
        table = schubert_module._schubert_table(n)
        for w, poly in table.items():
            assert schubert(w) == poly, w

    @pytest.mark.parametrize("n", range(1, 8))
    def test_specialization_table_sums_the_coefficients(self, n):
        # the integer transition recursion against the polynomial table
        table = specialization_table(n)
        assert table.keys() == schubert_module._schubert_table(n).keys()
        assert all(v == principal_specialization(schubert(w)) for w, v in table.items())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_specialization_equals_the_table(self, n):
        # S_u(1) from the transition steps of u alone, in both conventions
        table = specialization_table(n)
        for u, value in table.items():
            assert schubert_module._specialization(u) == value, u
            assert schubert_module._specialization(inverse(u)) == value, u

    def test_single_specialization_needs_no_recursion_limit(self):
        # the walk keeps its own stack, 67 permutations deep for w0 of S_12,
        # so it runs with only 15 frames to spare above the caller
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 15)
        try:
            value = schubert_module._specialization(tuple(range(12, 0, -1)))
        finally:
            sys.setrecursionlimit(limit)
        assert value == 1

    def test_table_validates_only_at_the_constructor(self, monkeypatch):
        # divided differences build trusted results: only the top monomial
        # passes through the validating constructor
        calls = []
        real = schubert_module._clean

        def counting(n, items):
            calls.append(n)
            return real(n, items)

        monkeypatch.setattr(schubert_module, "_clean", counting)
        table = schubert_module._schubert_table.__wrapped__(5)
        assert len(table) == 120
        assert len(calls) == 1


class TestPadding:
    def test_pad_unpad_round_trip(self):
        for w in iter_permutations(range(1, 5)):
            p = schubert(w)
            assert unpad(pad(p)) == p

    def test_padded_total_degree(self):
        for n in (2, 3, 4):
            top = num_inversions_max(n)
            rho = staircase(n)
            for w in iter_permutations(range(1, n + 1)):
                sp = pad(schubert(w))
                assert sp.x_degree() == length(w)
                for alpha in sp.terms:
                    assert sum(alpha) + sum(r - a for r, a in zip(rho, alpha)) == top

    def test_pad_rejects_exponents_above_the_staircase(self):
        with pytest.raises(ValueError, match="exceeds the staircase"):
            pad(IntPolynomial(3, {(3, 0): 1}))

    def test_padded_string_shows_both_alphabets(self):
        assert str(pad(schubert((1, 3, 2)))) == "x1*y1*y2 + x2*y1^2"


class TestActions:
    def test_nabla_frozen(self):
        assert apply_nabla(pad(schubert((1, 3, 2)))) == pad(schubert((1, 2, 3))).scaled(2)
        assert apply_nabla(pad(schubert((1, 2, 3)))) == PaddedPolynomial.zero(3)

    def test_delta_frozen(self):
        got = apply_delta(pad(schubert((1, 2, 3))))
        want = pad(schubert((2, 1, 3))) + pad(schubert((1, 3, 2)))
        assert got == want

    def test_delta_on_monomials(self):
        p = PaddedPolynomial(3, {(1, 0): 1})
        assert apply_delta(p).terms == {(2, 0): 1, (1, 1): 1}
        top = PaddedPolynomial(3, {(2, 1): 1})
        assert apply_delta(top) == PaddedPolynomial.zero(3)

    def test_nabla_on_monomials(self):
        p = PaddedPolynomial(3, {(2, 1): 1})
        assert apply_nabla(p).terms == {(1, 1): 2, (2, 0): 1}

    def test_delta_validates_its_result(self):
        with pytest.raises(ValueError, match="exceeds the staircase"):
            apply_delta(IntPolynomial(3, {(3, 0): 1}))

    def test_actions_shift_degree_by_one(self):
        for w in iter_permutations(range(1, 5)):
            sp = pad(schubert(w))
            down = apply_nabla(sp)
            up = apply_delta(sp)
            if down:
                assert down.x_degree() == length(w) - 1
            if up:
                assert up.x_degree() == length(w) + 1


class TestBasis:
    def test_rank_sizes_match_mahonian(self):
        for n in (2, 3, 4, 5):
            mah = mahonian_numbers(n)
            for k, size in enumerate(mah):
                assert len(monomials_of_rank(n, k)) == size
                assert len(basis_matrix(n, k)) == size

    def test_monomials_sorted_descending(self):
        assert monomials_of_rank(3, 2) == ((2, 0), (1, 1))
        assert monomials_of_rank(4, 2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1))

    def test_inverse_is_exact_integer_inverse(self):
        for n in (2, 3, 4, 5):
            for k in range(num_inversions_max(n) + 1):
                s = basis_matrix(n, k)
                inv = basis_matrix_inverse(n, k)
                size = len(s)
                prod = [
                    [sum(s[i][t] * inv[t][j] for t in range(size)) for j in range(size)]
                    for i in range(size)
                ]
                assert prod == [[int(i == j) for j in range(size)] for i in range(size)]

    def test_inverse_matches_gauss_jordan_oracle(self):
        for n in (1, 2, 3, 4, 5):
            for k in range(num_inversions_max(n) + 1):
                assert basis_matrix_inverse(n, k) == reference_basis_inverse(n, k)

    def test_leading_index_guards_unitriangularity(self, monkeypatch):
        mod = schubert_module
        build = mod._leading_index.__wrapped__
        table = dict(mod._schubert_table(3))
        doubled = dict(table)
        doubled[(1, 3, 2)] = table[(1, 3, 2)].scaled(2)
        monkeypatch.setattr(mod, "_schubert_table", lambda n: doubled)
        with pytest.raises(ArithmeticError, match="not 1"):
            build(3)
        repeated = dict(table)
        repeated[(1, 3, 2)] = table[(2, 1, 3)]
        monkeypatch.setattr(mod, "_schubert_table", lambda n: repeated)
        with pytest.raises(ArithmeticError, match="repeats"):
            build(3)

    def test_expansion_round_trip_random_combos(self):
        rng = random.Random(20240811)
        for n in (3, 4, 5, 6):
            for k in range(num_inversions_max(n) + 1):
                perms = [w for w in iter_permutations(range(1, n + 1)) if length(w) == k]
                coeffs = {w: rng.randint(-9, 9) for w in perms}
                total = PaddedPolynomial.zero(n)
                for w, c in coeffs.items():
                    total = total + pad(schubert(w)).scaled(c)
                got = expand_in_padded_schubert_basis(total)
                assert got == {w: c for w, c in coeffs.items() if c}

    def test_expansion_rejects_mixed_ranks(self):
        mixed = pad(schubert((1, 2, 3))) + pad(schubert((2, 1, 3)))
        with pytest.raises(ValueError):
            expand_in_padded_schubert_basis(mixed)

    def test_expansion_of_zero(self):
        assert expand_in_padded_schubert_basis(PaddedPolynomial.zero(3)) == {}
