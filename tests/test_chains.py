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
    um_layer_matrix,
    um_snf_check,
    verify_chains_basis,
    verify_chains_det,
)
from bruhatops.cli import main
from bruhatops.hasse import predicted_snf
from bruhatops.permutations import num_inversions_max, permutations_by_rank
from bruhatops.schubert import staircase
from bruhatops.snf import SparseStep, _dense, _mirror_scan, _sl2_scan, determinant, diagonal_model_snf, snf, transpose

from conftest import clear_chain_caches
from oracles import matmul


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


def dense_commutators(M):
    """Oracle: D_{k-1}^T U_{k-1} - U_k D_k^T on every rank k, from dense
    layer matrices (which read the steps through the module)."""
    total = sum(M)
    sizes = profile_rank_sizes(M)
    out = []
    for k in range(total + 1):
        acc = [[0] * sizes[k] for _ in range(sizes[k])]
        if k > 0:
            down_then_up = matmul(transpose(dm_layer_matrix(M, k - 1, k)), um_layer_matrix(M, k - 1, k))
            for i, row in enumerate(down_then_up):
                for j, v in enumerate(row):
                    acc[i][j] += v
        if k < total:
            up_then_down = matmul(um_layer_matrix(M, k, k + 1), transpose(dm_layer_matrix(M, k, k + 1)))
            for i, row in enumerate(up_then_down):
                for j, v in enumerate(row):
                    acc[i][j] -= v
        out.append(acc)
    return out


def dense_sl2_check(M):
    """Oracle: (True, None), or (False, witness) at the first entry, rank by
    rank and row by row, where a dense commutator differs from (2k - N) I."""
    total = sum(M)
    for k, acc in enumerate(dense_commutators(M)):
        for i, row in enumerate(acc):
            for j, got in enumerate(row):
                want = 2 * k - total if i == j else 0
                if got != want:
                    return False, {"rank": k, "entry": [i, j], "expected": str(want), "actual": str(got)}
    return True, None


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

    @pytest.mark.parametrize("M", [(3, 0, 2), (2, 2, 1), (4, 4, 3, 3, 2), (5, 4, 3, 2, 1)])
    def test_monomials_equal_the_per_rank_filter(self, M):
        box = list(iter_product(*[range(m, -1, -1) for m in M]))
        for k in range(sum(M) + 1):
            assert monomials_of_profile_rank(M, k) == tuple(alpha for alpha in box if sum(alpha) == k), k


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

    def test_steps_frozen(self):
        # the raising and lowering triples of the box (2, 1), sorted
        assert [_um_step((2, 1), k) for k in range(3)] == [
            ((0, 0, 1), (0, 1, 1)),
            ((0, 0, 2), (0, 1, 1), (1, 1, 1)),
            ((0, 0, 1), (1, 0, 2)),
        ]
        assert [_dm_step((2, 1), k) for k in range(3)] == [
            ((0, 0, 2), (0, 1, 1)),
            ((0, 0, 1), (0, 1, 1), (1, 1, 2)),
            ((0, 0, 1), (1, 0, 1)),
        ]

    @pytest.mark.parametrize("M", [(2, 1), (2, 2), (3, 2, 1), (0, 2, 1)])
    def test_composer_matches_dense_step_product(self, M):
        total = sum(M)
        for layer, step in ((um_layer_matrix, _um_step), (dm_layer_matrix, _dm_step)):
            dense = []
            for k in range(total):
                assert type(step(M, k)) is SparseStep, (M, k)
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
        # the sparse scan over every rank, and the verdict (which scans to the
        # middle once the mirror holds), agree with the dense products
        for M in ((2, 1), (2, 2), (3, 2, 1), (2, 2, 2), (2, 0, 1)):
            total = sum(M)
            up, down = [_um_step(M, k) for k in range(total)], [_dm_step(M, k) for k in range(total)]
            assert dense_sl2_check(M) == (True, None), M
            assert _sl2_scan(down, up, profile_rank_sizes(M)) == (True, None), M
            assert chains._sl2_holds(M) is True, M

    @pytest.mark.parametrize("at", range(6))
    def test_sl2_witness_of_a_raised_weight(self, monkeypatch, at):
        # only the raising step moves, so the mirror fails, and the scan over
        # every rank first fails on the rank the step leaves
        M = (3, 2, 1)
        raise_one_weight(monkeypatch, at)
        sl2, mirror = box_scans(M)
        assert mirror[0] is False
        assert sl2 == dense_sl2_check(M)
        assert sl2[0] is False and sl2[1]["rank"] == at

    @pytest.mark.parametrize("at", range(6))
    def test_mirror_carries_each_commutator_onto_its_complement(self, monkeypatch, at):
        # C_j = -J C_{N-j} J for the commutator C_j on rank j and the rank
        # reversal J, as _sl2_holds proves from the mirror; here on a
        # perturbation that keeps the mirror, so the first failure of the
        # dense scan over every rank lies at or below the middle, where the
        # verdict's scan stops
        M = (3, 2, 1)
        total = sum(M)
        raise_mirrored_weights(monkeypatch, M, at)
        sl2, mirror = box_scans(M)
        assert mirror == (True, None)
        commutators = dense_commutators(M)
        for j in range(total + 1):
            flipped = [[-v for v in row[::-1]] for row in commutators[total - j][::-1]]
            assert commutators[j] == flipped, j
        assert sl2 == dense_sl2_check(M)
        assert sl2[0] is False and sl2[1]["rank"] <= total // 2


    @pytest.mark.parametrize("at", range(6))
    def test_mirror_fails_on_a_repeated_raising_triple(self, monkeypatch, at):
        # a second copy of the first raising triple out of rank ``at`` finds
        # its mirror in the lowering step out of rank N-1-at already used
        M = (3, 2, 1)
        sizes = profile_rank_sizes(M)
        real = chains._um_step
        (r, c, w), *_ = real(M, at)
        monkeypatch.setattr(chains, "_um_step", lambda P, k: tuple(real(P, k))[:1] * (k == at) + tuple(real(P, k)))
        clear_chain_caches()
        place = [sizes[at + 1] - 1 - c, sizes[at] - 1 - r]
        witness = {"rank": at, "mirrored": [*place, w], "lowering": "missing"}
        assert box_scans(M)[1] == (False, witness)

    @pytest.mark.parametrize("at", range(6))
    def test_mirror_fails_on_a_repeated_lowering_triple(self, monkeypatch, at):
        # a second copy of the first lowering triple out of rank ``at``:
        # every raising triple finds its mirror, and the copy is left over
        M = (3, 2, 1)
        sizes = profile_rank_sizes(M)
        k = sum(M) - 1 - at
        real = chains._dm_step
        (r, c, w), *_ = real(M, at)
        monkeypatch.setattr(chains, "_dm_step", lambda P, j: tuple(real(P, j))[:1] * (j == at) + tuple(real(P, j)))
        clear_chain_caches()
        witness = {"rank": k, "mirrored": "missing", "lowering": [r, c, w]}
        assert box_scans(M)[1] == (False, witness)
        assert (sizes[k] - 1 - c, sizes[k + 1] - 1 - r) in {t[:2] for t in chains._um_step(M, k)}

    @pytest.mark.parametrize("M, at", [(M, at) for M in ((3, 2, 1), (3, 3, 2, 2)) for at in range(sum(M))])
    @pytest.mark.parametrize("perturb", ["raised", "mirrored", "split"])
    def test_verdict_is_the_full_scans(self, monkeypatch, split_lowering_triple, perturb, M, at):
        # a weight raised alone or with its mirror, or a lowering triple split
        # in two, at every step: the verdict's scan to the middle decides as
        # the scans over every rank do
        if perturb == "raised":
            raise_one_weight(monkeypatch, at)
        elif perturb == "mirrored":
            raise_mirrored_weights(monkeypatch, M, at)
        else:
            split_lowering_triple(at)
        assert_verdict_is_the_full_scans(M)


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
        # the check refuses them too, though the sl2 verdict holds on the box
        for check in (um_determinant_formula, um_determinant_check):
            with pytest.raises(ValueError):
                check((2, 1), 0, 2)
            with pytest.raises(ValueError):
                check((2, 1), 2, 1)


class TestWitnesses:
    def test_failures_name_their_witness(self, monkeypatch, split_lowering_triple):
        # chains-det takes no determinant while the sl2 certificate holds, so
        # its mirror scan is made to fail and the windows fall back to the
        # determinant, which lies
        split_lowering_triple(0)
        monkeypatch.setattr(chains, "determinant", lambda mat: -3)
        clear_chain_caches()
        assert base_change_unimodular_check((2, 1), 1) == (False, {"determinant": "-3"})
        assert um_determinant_check((2, 1), 1, 2) == (False, {"expected": "2", "actual": "3"})
        assert verify_chains_basis((2, 1))["failures"] == [
            {"witness": f"rank {k}", "expected": "unimodular", "determinant": "-3"} for k in range(4)
        ]
        assert verify_chains_det((2, 1))["failures"] == [
            {"witness": "raising[0,3]", "expected": "6", "actual": "3"},
            {"witness": "raising[1,2]", "expected": "2", "actual": "3"},
        ]

    def test_short_basis_names_its_vector_count(self, monkeypatch):
        import bruhatops.chains as chains

        short_basis(monkeypatch)
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
    (2, 0, 1),
    (1, 2, 3),
    (2, 3, 1),
    (3, 2, 1),
    (3, 3, 1),
    (2, 2, 2),
    (4, 3, 2, 1),
]


STAIRCASES = [staircase(n) for n in range(3, 7)]  # (2, 1) .. (5, 4, 3, 2, 1)


def snf_windows(M):
    total = sum(M)
    return [(a, b) for a in range(total + 1) for b in range(a + 1, total + 1) if a + b <= total]


def det_windows(M):
    total = sum(M)
    return [(a, total - a) for a in range(total // 2 + 1)]


def chain_reports(M):
    """The chains-snf report of every window of M, then the chains-det
    report."""
    return [um_snf_check(M, a, b) for a, b in snf_windows(M)] + [verify_chains_det(M)]


def exact_route(monkeypatch):
    """From here on neither the pushed basis nor the sl2 certificate proves
    anything, so every window is eliminated and every basis rank reduced."""
    monkeypatch.setattr(chains, "_proved_sizes", lambda M, low, high: None)
    monkeypatch.setattr(chains, "_sl2_holds", lambda M: False)


def short_basis(monkeypatch):
    """From here on every basis B_k of the shared walk reports one vector
    fewer than it has, and no determinant."""
    real = chains._rank_det
    monkeypatch.setattr(chains, "_rank_det", lambda M, k: (real(M, k)[0] - 1, None))


def count_calls(monkeypatch, name):
    """The argument tuples of every call of ``chains.<name>`` from here on."""
    calls = []
    real = getattr(chains, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(chains, name, spy)
    return calls


def made_walks(monkeypatch):
    """Every ``chains._Walk`` made from here on, shared or fresh."""
    made = []

    class Spy(chains._Walk):
        def __init__(self, M):
            super().__init__(M)
            made.append(self)

    monkeypatch.setattr(chains, "_Walk", Spy)
    return made


def determinants_taken_at(monkeypatch, walks):
    """The rank the one walk of ``walks`` stands at for every determinant
    the chains module takes from here on."""
    taken, real = [], chains.determinant

    def spy(mat):
        (walk,) = walks
        taken.append(walk.at)
        return real(mat)

    monkeypatch.setattr(chains, "determinant", spy)
    return taken


def raise_one_weight(monkeypatch, at, by=1):
    """From here on the first triple of the raising step out of rank ``at``
    weighs ``by`` more."""
    real = chains._um_step

    def perturbed(M, k):
        step = real(M, k)
        if k == at:
            (r, c, w), *rest = step
            step = ((r, c, w + by), *rest)
        return step

    monkeypatch.setattr(chains, "_um_step", perturbed)
    clear_chain_caches()


def raise_mirrored_weights(monkeypatch, M, at):
    """From here on the first triple of the raising step out of rank ``at``
    and its mirror in the lowering step out of rank |M| - 1 - at both weigh
    one more, so the mirror scan still holds."""
    sizes, total = profile_rank_sizes(M), sum(M)
    (r, c, _), *_ = _um_step(M, at)
    mirror = (sizes[at + 1] - 1 - c, sizes[at] - 1 - r)
    real = chains._dm_step
    raise_one_weight(monkeypatch, at)

    def perturbed(P, k):
        step = real(P, k)
        if (P, k) == (M, total - 1 - at):
            step = tuple((i, j, w + ((i, j) == mirror)) for i, j, w in step)
        return step

    monkeypatch.setattr(chains, "_dm_step", perturbed)
    clear_chain_caches()


def box_scans(M):
    """(sl2 scan over every rank, mirror scan) of the box M on the module's
    steps, each as (True, None) or (False, witness).  The mirror's witness
    names the raising step's rank k and a place of the lowering step out of
    rank N-1-k, with the mirrored raising triple and the lowering one there."""
    total, sizes = sum(M), profile_rank_sizes(M)
    up = [chains._um_step(M, k) for k in range(total)]
    down = [chains._dm_step(M, k) for k in range(total)]
    sl2, failure = _sl2_scan(down, up, sizes), _mirror_scan(up, down, sizes)
    if failure is None:
        return sl2, (True, None)
    k, (r, c, w), got = failure
    at = [sizes[k + 1] - 1 - c, sizes[k] - 1 - r]
    mirrored, lowering = ("missing" if v is None else [*at, v] for v in (w, got))
    return sl2, (False, {"rank": k, "mirrored": mirrored, "lowering": lowering})


def assert_verdict_is_the_full_scans(M):
    """``_sl2_holds`` says yes exactly when the sl2 scan over every rank and
    the mirror scan both hold, so its scan to the middle loses nothing."""
    sl2, mirror = box_scans(M)
    assert chains._sl2_holds(M) is (sl2[0] and mirror[0]), (sl2, mirror)


def assert_sl2_fails_at(M, at):
    """The sl2 scan of the box under the module's steps fails first on rank
    ``at``, where a raised weight leaves."""
    sl2, mirror = box_scans(M)
    assert mirror[0] is False
    assert sl2[0] is False and sl2[1]["rank"] == at, sl2


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

    @pytest.mark.parametrize("M", CERTIFIED_PROFILES + STAIRCASES)
    def test_certificate_verdicts_equal_elimination(self, M, monkeypatch):
        # every basis rank and every square window, proved with the sl2
        # certificate, against each rank reduced and each composite
        # eliminated on its own
        assert box_scans(M) == ((True, None), (True, None))
        assert chains._sl2_holds(M) is True
        bases = verify_chains_basis(M)
        dets = [um_determinant_check(M, low, high) for low, high in det_windows(M)]
        exact_route(monkeypatch)
        assert bases == reference_chains_basis(M)
        assert dets == [um_determinant_check(M, low, high) for low, high in det_windows(M)]
        assert bases["failures"] == []
        assert dets == [(True, None)] * len(dets)

    @pytest.mark.parametrize("at", range(1, 11))
    def test_inexact_division_between_keeps_the_rank_above_unproved(self, monkeypatch, at):
        # a division into rank ``at`` flagged inexact for a generator of B_low
        # stops every rank high with low < at <= high from being read from
        # low = |M| - high; one flagged for a generator born after low does not
        M = (3, 3, 2, 2)
        total = sum(M)
        walk = chains._Walk(M).reach(total)
        monkeypatch.setattr(chains, "_walk", lambda P: walk)
        for high in range(total // 2 + 1, total + 1):
            low = total - high
            walk.inexact[at] = (0,)
            assert chains._proved_from_below(M, high) == (not low < at <= high), high
            walk.inexact[at] = (walk.live[low],)
            assert chains._proved_from_below(M, high), high

    @pytest.mark.parametrize("m", range(6))
    def test_born_count_off_keeps_the_ranks_above_unproved(self, monkeypatch, m):
        M = (3, 3, 2, 2)
        total = sum(M)
        walk = chains._Walk(M).reach(total)
        walk.born[m] += 1
        monkeypatch.setattr(chains, "_walk", lambda P: walk)
        for high in range(total // 2 + 1, total + 1):
            assert chains._proved_from_below(M, high) == (total - high < m), high

    @pytest.mark.parametrize("at", range(10))
    def test_mirror_failure_alone_falls_back(self, monkeypatch, split_lowering_triple, at):
        # the verdict is no, from the mirror scan alone
        M = (3, 3, 2, 2)
        split_lowering_triple(at)
        scans = count_calls(monkeypatch, "_sl2_scan")
        assert chains._sl2_holds(M) is False
        assert scans == []
        sl2, mirror = box_scans(M)
        assert sl2 == (True, None)
        assert mirror[0] is False and mirror[1]["rank"] == sum(M) - 1 - at
        reports = chain_reports(M) + [verify_chains_basis(M)]
        exact_route(monkeypatch)
        assert reports == chain_reports(M) + [reference_chains_basis(M)]
        assert all(report["failures"] == [] for report in reports)

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
        assert_sl2_fails_at(M, at)
        report = verify_chains_det(M)
        checks = [um_determinant_check(M, low, high) for low, high in det_windows(M)]
        exact_route(monkeypatch)
        for (low, high), check in zip(det_windows(M), checks):
            if low <= at < high:
                assert check == um_determinant_check(M, low, high), (low, high)
            else:
                assert check == (True, None), (low, high)
        assert report["failures"] == [
            {"witness": f"raising[{low},{high}]", **witness}
            for (low, high), (ok, witness) in zip(det_windows(M), checks)
            if not ok
        ]

    @pytest.mark.parametrize("at", range(10))
    def test_raised_weight_reports_match_the_exact_route(self, monkeypatch, at):
        M = (3, 3, 2, 2)
        raise_one_weight(monkeypatch, at)
        assert_sl2_fails_at(M, at)
        reports = chain_reports(M)
        assert any(report["failures"] for report in reports)
        exact_route(monkeypatch)
        assert chain_reports(M) == reports

    def test_raised_weight_fails_the_pushed_basis(self, monkeypatch):
        M = (3, 3, 2, 2)
        raise_one_weight(monkeypatch, 3)
        # the first failing rank is 4
        assert verify_chains_basis(M)["failures"][0] == {
            "witness": "rank 4",
            "expected": "unimodular",
            "divided_power": "a divided power into rank 4 of (3, 3, 2, 2) is not integral",
        }

    def test_chains_det_eliminates_nothing(self, monkeypatch, capsys):
        # the sl2 certificate proves every square window: no walk, no
        # determinant, no composite, where the walk took one per rank
        def refuse(M, low, high):
            raise AssertionError(f"raising[{low},{high}] was composed")

        chains._walk.cache_clear()
        chains._sl2_holds.cache_clear()
        walks, pushes = count_calls(monkeypatch, "_walk"), count_calls(monkeypatch, "push_rows")
        dets = count_calls(monkeypatch, "determinant")
        monkeypatch.setattr(chains, "um_layer_matrix", refuse)
        assert main(["verify", "--suite", "chains-det", "--M", "4,4,3,3,2"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert (walks, pushes, dets) == ([], [], [])

    def test_chains_basis_walks_once(self, monkeypatch, capsys):
        # one push per step and one determinant per rank at or below the
        # middle (ranks 0..8), where a walk per rank made 136 pushes and every
        # rank took a determinant
        pushes, dets = count_calls(monkeypatch, "push_rows"), count_calls(monkeypatch, "determinant")
        chains._walk.cache_clear()
        assert main(["verify", "--suite", "chains-basis", "--M", "4,4,3,3,2"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert (len(pushes), len(dets)) == (16, 9)

    def test_single_window_takes_its_end_determinants(self, monkeypatch):
        # rank 9 is above the middle of |M| = 14, so it is read from rank 5;
        # sizes[5] == sizes[9], so only the ranks asked tell them apart
        M = (4, 3, 3, 2, 2)
        ranks, dets = count_calls(monkeypatch, "_rank_det"), count_calls(monkeypatch, "determinant")
        assert um_snf_check(M, 2, 9)["failures"] == []
        assert [k for (_, k) in ranks] == [2, 5]
        assert len(dets) == 2

    def test_window_at_or_below_the_middle_runs_no_scan(self, monkeypatch, capsys):
        chains._sl2_holds.cache_clear()
        mirrors, scans = count_calls(monkeypatch, "_mirror_scan"), count_calls(monkeypatch, "_sl2_scan")
        argv = ["verify", "--suite", "chains-snf", "--M", "4,3,3,2,2", "--from", "3", "--to", "7"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert (mirrors, scans) == ([], [])

    def test_chains_snf_reduces_one_diagonal_per_window(self, monkeypatch, capsys):
        # the predicted diagonal only: a proved window compares generator
        # counts and reduces no second diagonal, and nothing is eliminated
        diagonals, smiths = count_calls(monkeypatch, "diagonal_model_snf"), count_calls(monkeypatch, "snf")
        assert main(["verify", "--suite", "chains-snf", "--M", "4,3,3,2,2"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert (len(diagonals), smiths) == (len(snf_windows((4, 3, 3, 2, 2))), [])

    def test_no_rank_is_taken_twice(self, monkeypatch, capsys):
        # the three chain suites in one process share one walk per profile,
        # and each rank's determinant is taken once, where that walk stands
        walks = made_walks(monkeypatch)
        taken = determinants_taken_at(monkeypatch, walks)
        for suite in ("chains-basis", "chains-snf", "chains-det"):
            assert main(["verify", "--suite", suite, "--M", "4,4,3,3,2"]) == 0
            assert json.loads(capsys.readouterr().out)["ok"] is True
        assert walks == [chains._walk((4, 4, 3, 3, 2))]
        assert sorted(taken) == list(range(9))

    @pytest.mark.parametrize(
        "argv, walks_made, ranks",
        [
            (["chains-basis", "--M", "4,4,3,3,2"], 1, list(range(9))),
            (["chains-snf", "--M", "4,4,3,3,2"], 1, list(range(9))),
            (["chains-snf", "--M", "4,3,3,2,2", "--from", "2", "--to", "9"], 1, [2, 5]),
            (["chains-snf", "--M", "4,3,3,2,2", "--from", "5", "--to", "9"], 1, [5]),
            (["chains-snf", "--M", "6,5,4,3,2,1", "--from", "3", "--to", "10"], 1, [3, 10]),
            (["chains-det", "--M", "6,5,4,3,2,1"], 0, []),
        ],
    )
    def test_each_chain_run_walks_once(self, monkeypatch, capsys, argv, walks_made, ranks):
        # one walk per profile, and each determinant in rank order where the
        # walk stands; chains-det walks nowhere
        walks = made_walks(monkeypatch)
        taken = determinants_taken_at(monkeypatch, walks)
        assert main(["verify", "--suite", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert len(walks) == walks_made
        assert taken == ranks

    @pytest.mark.parametrize(
        "M, route",
        [((4, 3, 3, 2, 2), "working")] + [((3, 3, 2, 2), r) for r in ("working", "raised weight", "tripled determinant")],
    )
    def test_calls_in_decreasing_rank_order(self, monkeypatch, M, route):
        # a rank behind the shared walk is read from a fresh walk, so the
        # public checks give what they give in rank order, witnesses and
        # signs of determinants included
        if route == "raised weight":
            raise_one_weight(monkeypatch, 4)
        elif route == "tripled determinant":
            real = chains.determinant
            monkeypatch.setattr(chains, "determinant", lambda mat: 3 * real(mat))

        def checks(order):
            clear_chain_caches()
            ranks = sorted(range(sum(M) + 1), reverse=order == "down")
            windows = sorted(snf_windows(M), key=lambda w: w[::-1], reverse=order == "down")
            bases = {n: base_change_unimodular_check(M, n) for n in ranks}
            return bases, {w: um_snf_check(M, *w) for w in windows}

        bases, windows = checks("up")
        walks = made_walks(monkeypatch)
        assert checks("down") == (bases, windows)
        assert len(walks) > 1
        assert all(ok for ok, _ in bases.values()) == (route == "working")

    def test_rebinding_a_step_forgets_the_certificate(self, monkeypatch):
        # the caches are keyed by the profile alone, so a helper that rebinds
        # a step clears them; a stale certificate would prove every window
        M = (3, 3, 2, 2)
        assert not any(report["failures"] for report in chain_reports(M))
        raise_one_weight(monkeypatch, 3)
        assert any(report["failures"] for report in chain_reports(M))

    @pytest.mark.parametrize("order", [(0, 2, 3, 6), tuple(range(7)), (6,)])
    def test_walk_hands_out_the_rows_of_construct_B(self, order):
        # the rows read at each rank the walk is asked to reach, skipped
        # ranks included; a rank behind it leaves it where it stands
        M = (3, 2, 1)
        walk = chains._Walk(M)
        for k in order:
            assert walk.reach(k).at == k
            assert _dense(walk.rows, profile_rank_size(M, k)) == construct_B(M, k), k
        assert walk.reach(0).at == 6
        assert walk.born == [1, 2, 2, 1, 0, 0, 0]
        assert walk.live == [1, 3, 5, 6, 5, 3, 1]


def reference_chains_basis(M):
    """Oracle: the chains-basis report with B_n of each rank n built on its
    own by ``construct_B`` and reduced by ``determinant``, both read through
    the module, so a patched one reaches it."""
    failures = []
    for n in range(sum(M) + 1):
        try:
            vectors = chains.construct_B(M, n)
        except ArithmeticError as exc:
            witness = {"divided_power": str(exc)}
        else:
            size = profile_rank_size(M, n)
            if len(vectors) != size:
                witness = {"vectors": str(len(vectors)), "rank_size": str(size)}
            else:
                det = chains.determinant(vectors)
                witness = None if abs(det) == 1 else {"determinant": str(det)}
        if witness is not None:
            failures.append({"witness": f"rank {n}", "expected": "unimodular", **witness})
    return {"suite": "chains-basis", "M": list(M), "checked": sum(M) + 1, "failures": failures}


class TestBasisWitnesses:
    """The chains-basis report, read from the shared walk, equals the one
    each rank's own construct_B and determinant give."""

    @pytest.mark.parametrize("M", CERTIFIED_PROFILES)
    def test_every_rank(self, M):
        report = verify_chains_basis(M)
        assert report == reference_chains_basis(M)
        assert report["failures"] == []

    @pytest.mark.parametrize(
        "M, at", [((3, 3, 2, 2), at) for at in range(10)] + [((4, 3, 3, 2, 2), at) for at in range(14)]
    )
    def test_raised_weight(self, monkeypatch, M, at):
        raise_one_weight(monkeypatch, at)
        assert_sl2_fails_at(M, at)
        report = verify_chains_basis(M)
        assert report == reference_chains_basis(M)
        assert report["failures"]

    @pytest.mark.parametrize("at", range(10))
    def test_weight_raised_by_the_divisor(self, monkeypatch, at):
        # raised by the divisor at + 1, the row of the rank-0 generator stays
        # integral into rank at + 1 while other rows need not; the top basis
        # holds only that generator, so its first inexact rank comes later
        M = (3, 3, 2, 2)
        raise_one_weight(monkeypatch, at, by=at + 1)
        report = verify_chains_basis(M)
        assert report == reference_chains_basis(M)
        if 4 <= at < 9:
            top = report["failures"][-1]
            assert top["witness"] == f"rank {sum(M)}"
            assert top["divided_power"].startswith(f"a divided power into rank {at + 2} ")

    @pytest.mark.parametrize("M", [(2, 1), (3, 2, 1), (3, 3, 2, 2)])
    def test_patched_determinant_keeps_its_sign(self, monkeypatch, M):
        real = chains.determinant
        monkeypatch.setattr(chains, "determinant", lambda mat: 3 * real(mat))
        clear_chain_caches()
        report = verify_chains_basis(M)
        assert report == reference_chains_basis(M)
        failures = report["failures"]
        assert [failure["witness"] for failure in failures] == [f"rank {k}" for k in range(sum(M) + 1)]
        signs = {failure["determinant"] for failure in failures}
        assert signs == ({"3"} if M == (2, 1) else {"3", "-3"})

    @pytest.mark.parametrize("M", [(2, 1), (3, 2, 1)])
    def test_short_basis(self, monkeypatch, M):
        real = chains.construct_B
        monkeypatch.setattr(chains, "construct_B", lambda M, n: real(M, n)[:-1])
        short_basis(monkeypatch)
        report = verify_chains_basis(M)
        assert report == reference_chains_basis(M)
        by_rank = {failure["witness"]: failure for failure in report["failures"]}
        assert by_rank["rank 1"]["vectors"] == str(profile_rank_size(M, 1) - 1)
