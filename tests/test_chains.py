"""Products of chains: bases, raising/lowering matrices, Smith forms."""

import json
import math
from itertools import product as iter_product

import pytest

import bruhatops.chains as chains
from bruhatops.chains import (
    _dm_step,
    _proved_sizes,
    _um_step,
    base_change_report,
    base_change_unimodular_check,
    construct_A,
    construct_B,
    dm_layer_matrix,
    monomials_of_profile_rank,
    normalize_profile,
    predicted_um_snf,
    profile_rank_size,
    profile_rank_sizes,
    um_determinant_check,
    um_determinant_formula,
    um_determinant_report,
    um_layer_matrix,
    um_snf_check,
)
from bruhatops.cli import main
from bruhatops.hasse import predicted_snf
from bruhatops.permutations import num_inversions_max, permutations_by_rank
from bruhatops.schubert import staircase
from bruhatops.snf import determinant, diagonal_model_snf, matmul, snf, transpose


def brute_rank_sizes(M):
    """Oracle: enumerate the whole box and bucket by coordinate sum."""
    sizes = [0] * (sum(M) + 1)
    for alpha in iter_product(*(range(m + 1) for m in M)):
        sizes[sum(alpha)] += 1
    return tuple(sizes)


def raising_power_vector(M, f, n):
    """Oracle: coordinates of U^{n-|f|}/(n-|f|)! applied to x^f over the
    rank-n monomials, by the closed form prod_i C(beta_i, f_i)."""
    vec = []
    for beta in monomials_of_profile_rank(M, n):
        if all(b >= a for a, b in zip(f, beta)):
            vec.append(math.prod(math.comb(b, a) for a, b in zip(f, beta)))
        else:
            vec.append(0)
    return vec


def closed_form_basis(M, n):
    """Oracle: the rank-n basis from the closed form, generators of rank
    m = 0..min(n, |M| - n) in the order of construct_A."""
    bound = min(n, sum(M) - n)
    return [raising_power_vector(M, f, n) for m in range(bound + 1) for f in construct_A(M, m)]


def brute_um_layer(M, low, high):
    """Oracle: repeated application of the raising rule to dict vectors."""
    lows = monomials_of_profile_rank(tuple(M), low)
    highs = monomials_of_profile_rank(tuple(M), high)
    col = {beta: j for j, beta in enumerate(highs)}
    out = []
    for alpha in lows:
        vec = {alpha: 1}
        for _ in range(high - low):
            nxt = {}
            for a, c in vec.items():
                for i, m in enumerate(M):
                    if a[i] < m:
                        b = a[:i] + (a[i] + 1,) + a[i + 1 :]
                        nxt[b] = nxt.get(b, 0) + c * (a[i] + 1)
            vec = nxt
        out.append([vec.get(beta, 0) for beta in highs])
    return out


class TestProfiles:
    def test_normalize(self):
        prof, order = normalize_profile((1, 3, 2))
        assert prof == (3, 2, 1)
        restored = [None] * 3
        for spot, original in enumerate(order):
            restored[original] = prof[spot]
        assert restored == [1, 3, 2]

    def test_normalize_drops_zeros(self):
        prof, order = normalize_profile((0, 2, 0, 1))
        assert prof == (2, 1)
        assert order == (1, 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            profile_rank_sizes((2, -1))

    def test_rank_sizes_frozen(self):
        assert profile_rank_sizes((2, 1)) == (1, 2, 2, 1)
        assert profile_rank_sizes((2, 2)) == (1, 2, 3, 2, 1)
        assert profile_rank_size((3, 2, 1), 3) == 6

    @pytest.mark.parametrize("M", [(1,), (3,), (2, 1), (2, 2), (3, 2, 1), (3, 3, 1), (5, 1)])
    def test_rank_sizes_against_enumeration(self, M):
        assert profile_rank_sizes(M) == brute_rank_sizes(M)

    @pytest.mark.parametrize("M", [(2, 1), (2, 2, 2), (4, 3, 2, 1), (3, 3, 1)])
    def test_rank_sizes_symmetric_unimodal(self, M):
        sizes = profile_rank_sizes(M)
        assert sizes == sizes[::-1]
        mid = len(sizes) // 2
        assert all(a <= b for a, b in zip(sizes[: mid + 1], sizes[1 : mid + 1]))

    @pytest.mark.parametrize("M", [(2, 1), (3, 2, 1), (3, 3, 1), (2, 2, 2)])
    def test_rank_size_partition_recurrence(self, M):
        # splitting on the last coordinate being maximal or not
        shrunk = M[:-1] + (M[-1] - 1,)
        dropped = M[:-1]
        for k in range(sum(M) + 1):
            left = profile_rank_size(shrunk, k) if k <= sum(shrunk) else 0
            right = profile_rank_size(dropped, k - M[-1]) if 0 <= k - M[-1] <= sum(dropped) else 0
            assert profile_rank_size(M, k) == left + right

    def test_monomials_sorted_and_bounded(self):
        mons = monomials_of_profile_rank((2, 1), 2)
        assert mons == ((2, 0), (1, 1))
        with pytest.raises(ValueError):
            monomials_of_profile_rank((2, 1), 9)


class TestBasisConstruction:
    def test_a_sets_frozen_21(self):
        assert construct_A((2, 1), 0) == [(0, 0)]
        assert construct_A((2, 1), 1) == [(0, 1)]

    def test_a_sets_frozen_22(self):
        assert construct_A((2, 2), 0) == [(0, 0)]
        assert construct_A((2, 2), 1) == [(0, 1)]
        assert construct_A((2, 2), 2) == [(0, 2)]

    def test_a_set_single_chain(self):
        assert construct_A((4,), 0) == [(0,)]
        assert construct_A((4,), 1) == []
        assert construct_A((4,), 2) == []

    def test_a_set_bounds(self):
        with pytest.raises(ValueError):
            construct_A((2, 1), 2)  # 2*2 > 3
        with pytest.raises(ValueError):
            construct_A((2, 1), -1)

    @pytest.mark.parametrize("M", [(2, 1), (2, 2), (3, 2, 1), (3, 3, 1), (2, 2, 2), (5, 1)])
    def test_a_set_cardinality(self, M):
        # |A_n| = |P_n| - |P_{n-1}|, the new dimensions at rank n
        sizes = profile_rank_sizes(M)
        for k in range(sum(M) // 2 + 1):
            want = sizes[k] - (sizes[k - 1] if k else 0)
            got = construct_A(M, k)
            assert len(got) == want
            assert len(set(got)) == len(got)
            assert all(sum(v) == k for v in got)
            assert all(all(0 <= e <= m for e, m in zip(v, M)) for v in got)

    def test_b_set_frozen_21(self):
        # rank-1 generators: raise the bottom once, then the new element x2
        assert construct_B((2, 1), 1) == [[1, 1], [0, 1]]

    def test_b_set_single_chain_recovers_monomials(self):
        for k in range(4):
            assert construct_B((3,), k) == [[1]]

    @pytest.mark.parametrize("M", [(2, 1), (2, 2), (3, 2, 1), (3, 3, 1), (2, 2, 2), (5, 1)])
    def test_b_set_is_square_spanning(self, M):
        sizes = profile_rank_sizes(M)
        for k in range(sum(M) + 1):
            vectors = construct_B(M, k)
            assert len(vectors) == sizes[k]
            assert all(len(v) == sizes[k] for v in vectors)

    @pytest.mark.parametrize("M", [(2, 1), (2, 2), (3, 2, 1), (3, 3, 1), (2, 2, 2), (5, 1)])
    def test_unimodular_all_ranks(self, M):
        for k in range(sum(M) + 1):
            ok, witness = base_change_unimodular_check(M, k)
            assert ok, (M, k, witness)

    @pytest.mark.parametrize("M", [(2, 1), (3, 2, 1), (2, 2, 2), (4, 3, 3, 2, 2), (4, 4, 3, 3, 2)])
    def test_pushed_basis_matches_closed_form(self, M):
        for k in range(sum(M) + 1):
            assert construct_B(M, k) == closed_form_basis(M, k), (M, k)

    def test_unimodular_invariant_under_profile_relabeling(self):
        for k in range(7):
            assert base_change_unimodular_check((1, 2, 3), k) == (True, None)
            assert base_change_unimodular_check((2, 3, 1), k) == (True, None)


class TestLayerMatrices:
    def test_single_chain_trivial(self):
        assert um_layer_matrix((1,), 0, 1) == [[1]]
        assert um_layer_matrix((3,), 1, 3) == [[6]]  # 2 * 3

    def test_frozen_21(self):
        # rows (1,0), (0,1); columns (2,0), (1,1)
        assert um_layer_matrix((2, 1), 1, 2) == [[2, 1], [0, 1]]
        assert dm_layer_matrix((2, 1), 1, 2) == [[1, 1], [0, 2]]

    @pytest.mark.parametrize("M", [(2, 1), (2, 2), (3, 2, 1), (3, 3, 1)])
    def test_matches_brute_raising(self, M):
        total = sum(M)
        for low in range(total + 1):
            for high in range(low, total + 1):
                assert um_layer_matrix(M, low, high) == brute_um_layer(M, low, high)

    @pytest.mark.parametrize("M", [(2, 1), (2, 2), (3, 2, 1), (0, 2, 1)])
    def test_composer_matches_dense_step_product(self, M):
        total = sum(M)
        for layer, step in ((um_layer_matrix, _um_step), (dm_layer_matrix, _dm_step)):
            dense = []
            for k in range(total):
                mat = [[0] * profile_rank_size(M, k + 1) for _ in range(profile_rank_size(M, k))]
                for r, c, w in step(M, k):
                    mat[r][c] = w
                dense.append(mat)
            for low in range(total + 1):
                size = profile_rank_size(M, low)
                want = [[int(i == j) for j in range(size)] for i in range(size)]
                for high in range(low, total + 1):
                    assert layer(M, low, high) == want, (layer.__name__, low, high)
                    if high < total:
                        want = matmul(want, dense[high])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            um_layer_matrix((2, 1), 2, 1)
        with pytest.raises(ValueError):
            um_layer_matrix((2, 1), 0, 4)

    @pytest.mark.parametrize("M", [(2, 1), (2, 2), (3, 2, 1)])
    def test_raising_lowering_transpose_bridge(self, M):
        # U over [l, h] and D over the complementary window coincide after
        # relabeling both index sets by alpha -> M - alpha
        total = sum(M)
        for low in range(total + 1):
            for high in range(low, total + 1):
                um = um_layer_matrix(M, low, high)
                dm = dm_layer_matrix(M, total - high, total - low)
                lows = monomials_of_profile_rank(tuple(M), low)
                highs = monomials_of_profile_rank(tuple(M), high)
                co_lo = {v: i for i, v in enumerate(monomials_of_profile_rank(tuple(M), total - high))}
                co_hi = {v: i for i, v in enumerate(monomials_of_profile_rank(tuple(M), total - low))}
                comp = lambda a: tuple(m - e for m, e in zip(M, a))
                for r, alpha in enumerate(lows):
                    for c, beta in enumerate(highs):
                        assert um[r][c] == dm[co_lo[comp(beta)]][co_hi[comp(alpha)]]

    def test_sl2_commutator_on_the_box(self):
        for M in ((2, 1), (2, 2), (3, 2, 1), (2, 2, 2)):
            total = sum(M)
            sizes = profile_rank_sizes(M)
            for k in range(total + 1):
                acc = [[0] * sizes[k] for _ in range(sizes[k])]
                if k > 0:
                    down_then_up = matmul(
                        transpose(dm_layer_matrix(M, k - 1, k)), um_layer_matrix(M, k - 1, k)
                    )
                    for i, row in enumerate(down_then_up):
                        for j, v in enumerate(row):
                            acc[i][j] += v
                if k < total:
                    up_then_down = matmul(
                        um_layer_matrix(M, k, k + 1), transpose(dm_layer_matrix(M, k, k + 1))
                    )
                    for i, row in enumerate(up_then_down):
                        for j, v in enumerate(row):
                            acc[i][j] -= v
                want = 2 * k - total
                for i in range(sizes[k]):
                    for j in range(sizes[k]):
                        assert acc[i][j] == (want if i == j else 0), (M, k)


class TestSmithPredictions:
    def test_predicted_frozen(self):
        assert predicted_um_snf((2, 1), 1, 2) == (1, 2)
        assert predicted_um_snf((1, 1), 0, 1) == (1,)

    def test_predicted_staircase_matches_flag_prediction(self):
        # the S_n side counts the enumerated length strata, independently of
        # the chain rank sizes that both library predictions read
        for n in (2, 3, 4):
            M = staircase(n)
            total = num_inversions_max(n)
            sizes = [len(stratum) for stratum in permutations_by_rank(n)]
            for low in range(total + 1):
                for high in range(low + 1, total + 1):
                    if low + high <= total:
                        want = diagonal_model_snf(sizes, low, high)
                        assert predicted_um_snf(M, low, high) == predicted_snf(n, low, high) == want

    def test_single_chain_prediction(self):
        # 1x1 matrix: the rising factorial h!/l!
        assert predicted_um_snf((5,), 1, 3) == (math.factorial(3) // math.factorial(1),)
        assert snf(um_layer_matrix((5,), 1, 3)) == (6,)

    @pytest.mark.parametrize("M", [(2, 1), (2, 2), (3, 2, 1), (3, 3, 1), (2, 2, 2), (5, 1)])
    def test_snf_check_all_valid_windows(self, M):
        total = sum(M)
        for low in range(total + 1):
            for high in range(low + 1, total + 1):
                if low + high <= total:
                    report = um_snf_check(M, low, high)
                    assert report["failures"] == [], (M, low, high)

    def test_snf_check_rejects_windows_past_the_middle(self):
        with pytest.raises(ValueError):
            um_snf_check((2, 2), 3, 4)


class TestDeterminants:
    def test_formula_frozen_21(self):
        assert um_determinant_formula((2, 1), 1, 2) == 2
        assert abs(determinant(um_layer_matrix((2, 1), 1, 2))) == 2

    def test_formula_single_chain(self):
        assert um_determinant_formula((1,), 0, 1) == 1

    @pytest.mark.parametrize("M", [(2, 1), (2, 2), (3, 2, 1), (3, 3, 1), (2, 2, 2), (5, 1)])
    def test_determinant_check_square_windows(self, M):
        total = sum(M)
        for low in range(total // 2 + 1):
            ok, witness = um_determinant_check(M, low, total - low)
            assert ok, (M, low, witness)

    def test_rejects_non_complementary_windows(self):
        with pytest.raises(ValueError):
            um_determinant_formula((2, 1), 0, 2)
        with pytest.raises(ValueError):
            um_determinant_formula((2, 1), 2, 1)


class TestWitnesses:
    def test_failures_name_their_witness(self, monkeypatch):
        import bruhatops.chains as chains

        monkeypatch.setattr(chains, "determinant", lambda mat: -3)
        assert base_change_unimodular_check((2, 1), 1) == (False, {"determinant": "-3"})
        assert um_determinant_check((2, 1), 1, 2) == (False, {"expected": "2", "actual": "3"})
        assert base_change_report((2, 1), 1)["failures"] == [
            {"witness": "rank 1", "expected": "unimodular", "determinant": "-3"}
        ]
        assert um_determinant_report((2, 1), 0, 3)["failures"] == [
            {"witness": "raising[0,3]", "expected": "6", "actual": "3"}
        ]

    def test_short_basis_names_its_vector_count(self, monkeypatch):
        import bruhatops.chains as chains

        real = chains.construct_B
        monkeypatch.setattr(chains, "construct_B", lambda M, n: real(M, n)[:-1])
        assert base_change_unimodular_check((2, 1), 1) == (
            False,
            {"vectors": "1", "rank_size": "2"},
        )


CERTIFIED_PROFILES = [
    (1,),
    (3,),
    (5,),
    (1, 1),
    (2, 1),
    (2, 2),
    (5, 1),
    (0, 2, 1),
    (1, 2, 3),
    (2, 3, 1),
    (3, 2, 1),
    (3, 3, 1),
    (2, 2, 2),
    (4, 3, 2, 1),
]


def snf_windows(M):
    total = sum(M)
    return [(a, b) for a in range(total + 1) for b in range(a + 1, total + 1) if a + b <= total]


def det_windows(M):
    total = sum(M)
    return [(a, total - a) for a in range(total // 2 + 1)]


def chain_reports(M):
    """The chains-snf report of every window of M, then the chains-det
    report of every square window."""
    return [um_snf_check(M, a, b) for a, b in snf_windows(M)] + [
        um_determinant_report(M, a, b) for a, b in det_windows(M)
    ]


def exact_route(monkeypatch):
    """From here on the certificate proves no window, so every window is
    eliminated."""
    monkeypatch.setattr(chains, "_proved_sizes", lambda M, low, high: None)


def raise_one_weight(monkeypatch, at):
    """From here on the first triple of the raising step out of rank ``at``
    weighs one more."""
    real = chains._um_step

    def perturbed(M, k):
        step = real(M, k)
        if k == at:
            (r, c, w), *rest = step
            step = ((r, c, w + 1), *rest)
        return step

    monkeypatch.setattr(chains, "_um_step", perturbed)


class TestCertificate:
    @pytest.mark.parametrize("M", CERTIFIED_PROFILES)
    def test_every_window_is_proved(self, M):
        sizes = profile_rank_sizes(M)
        for low, high in snf_windows(M) + det_windows(M):
            assert _proved_sizes(M, low, high) == list(sizes[: low + 1]), (low, high)

    @pytest.mark.parametrize("M", CERTIFIED_PROFILES)
    def test_reports_equal_the_exact_route(self, M, monkeypatch):
        proved = chain_reports(M)
        exact_route(monkeypatch)
        assert chain_reports(M) == proved

    @pytest.mark.parametrize("at", range(14))
    def test_raised_weight_proves_no_window_through_it(self, monkeypatch, at):
        M = (4, 3, 3, 2, 2)
        raise_one_weight(monkeypatch, at)
        for low, high in snf_windows(M) + det_windows(M):
            if low <= at < high:
                assert _proved_sizes(M, low, high) is None, (low, high)
            elif high <= at:
                assert _proved_sizes(M, low, high) is not None, (low, high)

    @pytest.mark.parametrize("at", range(14))
    def test_raised_weight_determinants_match_the_exact_route(self, monkeypatch, at):
        # a window the raised weight does not reach has the composite it had
        # before, which passes; one it reaches gets what elimination says
        M = (4, 3, 3, 2, 2)
        raise_one_weight(monkeypatch, at)
        reports = [um_determinant_report(M, low, high) for low, high in det_windows(M)]
        exact_route(monkeypatch)
        for (low, high), report in zip(det_windows(M), reports):
            if low <= at < high:
                assert report == um_determinant_report(M, low, high), (low, high)
            else:
                assert report["failures"] == [], (low, high)

    @pytest.mark.parametrize("at", range(10))
    def test_raised_weight_reports_match_the_exact_route(self, monkeypatch, at):
        M = (3, 3, 2, 2)
        raise_one_weight(monkeypatch, at)
        reports = chain_reports(M)
        assert any(report["failures"] for report in reports)
        exact_route(monkeypatch)
        assert chain_reports(M) == reports

    def test_raised_weight_fails_the_pushed_basis(self, monkeypatch):
        M = (3, 3, 2, 2)
        raise_one_weight(monkeypatch, 3)
        failures = [base_change_report(M, k)["failures"] for k in range(sum(M) + 1)]
        assert failures[:4] == [[]] * 4
        assert failures[4] == [
            {
                "witness": "rank 4",
                "expected": "unimodular",
                "divided_power": "a divided power into rank 4 of (3, 3, 2, 2) is not integral",
            }
        ]

    def test_chains_det_eliminates_nothing(self, monkeypatch, capsys):
        calls = []
        real = chains.determinant

        def spy(mat):
            calls.append(len(mat))
            return real(mat)

        def refuse(M, low, high):
            raise AssertionError(f"raising[{low},{high}] was composed")

        monkeypatch.setattr(chains, "determinant", spy)
        monkeypatch.setattr(chains, "um_layer_matrix", refuse)
        assert main(["verify", "--suite", "chains-det", "--M", "4,4,3,3,2"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert calls == list(profile_rank_sizes((4, 4, 3, 3, 2)))
