"""Acceptance suite: twelve end-to-end checks, one test and one printed
pass/fail line per criterion.  Every comparison is exact integer equality."""

import functools
import math
import random
import time
from itertools import permutations as iter_permutations

from bruhatops.chains import base_change_unimodular_check, um_determinant_check, um_snf_check
from bruhatops.hasse import (
    build_hasse,
    layer_matrix,
    predicted_snf,
    verify_snf_theorem,
    w0_symmetry_check,
    weighted_path_count,
)
from bruhatops.operators import (
    commutator_check,
    differential_layer_matrix,
    verify_delta_theorem,
    verify_macdonald,
    verify_nabla_theorem,
    verify_path_identities,
)
from bruhatops.permutations import identity, longest_element, num_inversions_max
from bruhatops.snf import snf

from oracles import snf_via_minor_gcd

SNF_SAMPLE_PAIRS_N5 = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 10), (2, 8))

BOX_PROFILES = ((3, 2, 1), (2, 2, 2), (4, 3, 2, 1), (3, 3, 1), (5, 1))


def rank_mod_p(mat, p):
    """Rank over GF(p) by Gauss-Jordan elimination; independent of snf."""
    rows = [[x % p for x in row] for row in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def primes_up_to(bound):
    return [q for q in range(2, bound + 1) if all(q % d for d in range(2, math.isqrt(q) + 1))]


def criterion(number, description):
    """Emit exactly one [PASS]/[FAIL] line per criterion, then defer to pytest."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        return run

    return wrap


@criterion(1, "three weighted cover graphs of S_3 and their total path count")
def test_criterion_01_figure_reproduction():
    start = time.monotonic()
    weak = build_hasse(3, "weak", "nabla")
    assert len(weak.edges) == 6
    assert sorted(wt for _, _, wt in weak.edges) == [1, 1, 1, 2, 2, 2]

    code = build_hasse(3, "strong", "code")
    assert len(code.edges) == 8
    threes = [(src, dst) for src, dst, wt in code.edges if wt == 3]
    assert threes == [((1, 3, 2), (3, 1, 2))]
    assert all(wt in (1, 3) for _, _, wt in code.edges)

    chev = build_hasse(3, "strong", "chevalley")
    assert len(chev.edges) == 8
    twos = {(src, dst) for src, dst, wt in chev.edges if wt == 2}
    assert twos == {((1, 3, 2), (2, 3, 1)), ((2, 1, 3), (3, 1, 2))}

    for g in (weak, code, chev):
        assert weighted_path_count(g, (1, 2, 3), (3, 2, 1)) == 6
    assert time.monotonic() - start < 1.0


@criterion(2, "printed rank-1-to-2 matrices match up to relabeling, Smith form (1,2)")
def test_criterion_02_example_matrices():
    start = time.monotonic()
    delta = differential_layer_matrix("delta", 3, 1, 2)
    nabla = differential_layer_matrix("nabla", 3, 1, 2)
    printed_delta = [[1, 1], [1, 3]]
    printed_nabla = [[2, 0], [0, 1]]

    def relabelings(mat):
        for rows in iter_permutations(range(2)):
            for cols in iter_permutations(range(2)):
                yield (rows, cols), [[mat[r][c] for c in cols] for r in rows]

    matches = [
        key
        for (key, d), (_, v) in zip(relabelings(delta), relabelings(nabla))
        if d == printed_delta and v == printed_nabla
    ]
    assert matches, "no simultaneous relabeling reproduces both printed matrices"
    assert snf(delta) == (1, 2)
    assert snf(nabla) == (1, 2)
    assert time.monotonic() - start < 1.0


@criterion(3, "bottom-to-top weighted path counts equal N! for n = 2..6")
def test_criterion_03_factorial_counts():
    start = time.monotonic()
    frozen = {2: 1, 3: 6, 4: 720, 5: 3628800, 6: 1307674368000}
    for n, want in frozen.items():
        assert math.factorial(num_inversions_max(n)) == want
        eps, w0 = identity(n), longest_element(n)
        for order, weights in (("weak", "nabla"), ("strong", "code"), ("strong", "chevalley")):
            g = build_hasse(n, order, weights)
            assert weighted_path_count(g, eps, w0) == want, (n, order, weights)
    assert time.monotonic() - start < 10.0


@criterion(4, "four path counts against the specialized polynomial, every u, n = 2..5")
def test_criterion_04_five_way_identity():
    start = time.monotonic()
    for n in (2, 3, 4, 5):
        report = verify_path_identities(n)
        assert report["failures"] == [], n
        assert report["checked"] == 4 * math.factorial(n)
    assert time.monotonic() - start < 30.0


@criterion(5, "weighted count from the bottom equals l(u)! times the specialization")
def test_criterion_05_macdonald_identity():
    for n in (2, 3, 4, 5):
        report = verify_macdonald(n)
        assert report["failures"] == [], n


@criterion(6, "operator actions expand with the graph weights; raising coefficients odd")
def test_criterion_06_action_theorems():
    for n in (2, 3, 4, 5):
        down = verify_nabla_theorem(n)
        assert down["failures"] == [], n
        up = verify_delta_theorem(n)
        assert up["failures"] == [], n
        # with the expansions verified, the raising coefficients are exactly
        # the code-distance weights; all of those must be odd
        assert all(wt % 2 == 1 for _, _, wt in build_hasse(n, "strong", "code").edges)


@criterion(7, "commutator of raising and lowering is the scalar 2k - N on rank k")
def test_criterion_07_sl2_commutator():
    for n in (2, 3, 4, 5):
        ok, witness = commutator_check(n)
        assert ok, (n, witness)


@criterion(8, "Smith forms of all four layer windows match the binomial model")
def test_criterion_08_snf_theorem():
    start = time.monotonic()
    windows = {}
    for n in (2, 3, 4, 5):
        top = num_inversions_max(n)
        windows[n] = []
        for low in range(top + 1):
            for high in range(low + 1, top + 1):
                if low + high <= top:
                    windows[n].append((low, high))
                    report = verify_snf_theorem(n, low, high)
                    assert report["failures"] == [], (n, low, high)
                    # p-local oracle (Stanley, arXiv:1602.00166): the rank
                    # mod p counts the invariants prime to p
                    predicted = predicted_snf(n, low, high)
                    for p in primes_up_to(high):
                        units = sum(1 for b in predicted if b % p)
                        for order, weights in (("strong", "code"), ("weak", "nabla")):
                            g = build_hasse(n, order, weights)
                            for a, b in ((low, high), (top - high, top - low)):
                                got = rank_mod_p(layer_matrix(g, a, b), p)
                                assert got == units, (n, order, a, b, p)
    assert len(windows[5]) == 30
    assert len(SNF_SAMPLE_PAIRS_N5) >= 5
    assert set(SNF_SAMPLE_PAIRS_N5) <= set(windows[5])
    assert time.monotonic() - start < 120.0


@criterion(9, "recursive generating sets are integral bases at every rank")
def test_criterion_09_box_bases():
    for M in BOX_PROFILES:
        for k in range(sum(M) + 1):
            ok, witness = base_change_unimodular_check(M, k)
            assert ok, (M, k, witness)


@criterion(10, "raising-power Smith forms and determinants on the box profiles")
def test_criterion_10_box_snf_and_determinants():
    for M in BOX_PROFILES:
        total = sum(M)
        for low in range(total + 1):
            for high in range(low + 1, total + 1):
                if low + high <= total:
                    report = um_snf_check(M, low, high)
                    assert report["failures"] == [], (M, low, high)
        for low in range(total // 2 + 1):
            ok, witness = um_determinant_check(M, low, total - low)
            assert ok, (M, low, witness)


@criterion(11, "elimination and minor-gcd Smith forms agree on 1000 random matrices")
def test_criterion_11_snf_oracle_equivalence():
    assert snf([[1, 1], [1, 3]]) == snf_via_minor_gcd([[1, 1], [1, 3]]) == (1, 2)
    assert snf([[2, 4], [4, 6]]) == snf_via_minor_gcd([[2, 4], [4, 6]]) == (2, 2)
    rng = random.Random(987654321)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert snf(mat) == snf_via_minor_gcd(mat), mat


@criterion(12, "flip symmetry of every weighted edge, all three systems, n = 2..5")
def test_criterion_12_w0_symmetry():
    for n in (2, 3, 4, 5):
        for order, weights in (("weak", "nabla"), ("strong", "code"), ("strong", "chevalley")):
            ok, witness = w0_symmetry_check(build_hasse(n, order, weights))
            assert ok, (n, order, weights, witness)
