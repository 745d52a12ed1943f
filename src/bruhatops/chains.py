"""
Products of chains: the poset of monomials x^alpha with alpha <= M
componentwise, its standard raising/lowering operators, a recursively
constructed integral basis, and exact Smith-form / determinant checks for
powers of the raising operator.

The raising operator sends x^alpha to sum_i (alpha_i + 1) x_i x^alpha,
truncating any monomial that escapes the box M to zero; the lowering
operator sends x^beta to sum_i (M_i - beta_i + 1) x^beta / x_i.  The m-th
divided power of the raising operator has the closed form

    U^m / m! (x^alpha)  =  sum over alpha <= beta <= M, |beta| = |alpha| + m
                            of  prod_i C(beta_i, alpha_i)  x^beta,

which is what the basis construction below consumes.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from itertools import product
from typing import Iterable

from .snf import IntMatrix, SparseStep, compose_steps, determinant, diagonal_model_snf, snf

ChainProfile = tuple[int, ...]
Exponent = tuple[int, ...]

__all__ = [
    "normalize_profile",
    "profile_rank_sizes",
    "profile_rank_size",
    "monomials_of_profile_rank",
    "construct_A",
    "construct_B",
    "base_change_unimodular_check",
    "base_change_report",
    "um_layer_matrix",
    "dm_layer_matrix",
    "predicted_um_snf",
    "um_snf_check",
    "um_determinant_formula",
    "um_determinant_check",
    "um_determinant_report",
]


def _as_profile(M: Iterable[int]) -> ChainProfile:
    prof = tuple(int(m) for m in M)
    if any(m < 0 for m in prof):
        raise ValueError(f"chain lengths must be nonnegative: {prof}")
    return prof


def normalize_profile(M: Iterable[int]) -> tuple[ChainProfile, tuple[int, ...]]:
    """Sort weakly decreasing and drop zero-length chains.

    Returns (normalized profile, positions): positions[j] is the index in
    the caller's profile of the j-th normalized coordinate, letting results
    be mapped back to the caller's variable order.
    """
    prof = _as_profile(M)
    order = sorted(range(len(prof)), key=lambda i: (-prof[i], i))
    keep = [i for i in order if prof[i] > 0]
    return tuple(prof[i] for i in keep), tuple(keep)


@lru_cache(maxsize=None)
def profile_rank_sizes(M: ChainProfile) -> tuple[int, ...]:
    """Coefficients of prod_i (1 + q + ... + q^{M_i}); index = rank."""
    prof = _as_profile(M)
    coeffs = [1]
    for m in prof:
        nxt = [0] * (len(coeffs) + m)
        for shift in range(m + 1):
            for k, c in enumerate(coeffs):
                nxt[k + shift] += c
        coeffs = nxt
    return tuple(coeffs)


def profile_rank_size(M: Iterable[int], k: int) -> int:
    sizes = profile_rank_sizes(_as_profile(M))
    return sizes[k] if 0 <= k < len(sizes) else 0


@lru_cache(maxsize=None)
def monomials_of_profile_rank(M: ChainProfile, k: int) -> tuple[Exponent, ...]:
    """Exponent vectors alpha <= M with |alpha| = k, lex-descending."""
    prof = _as_profile(M)
    if not 0 <= k <= sum(prof):
        raise ValueError(f"rank out of range for the box {prof}: {k}")
    return tuple(
        alpha
        for alpha in product(*[range(m, -1, -1) for m in prof])
        if sum(alpha) == k
    )


@cache
def _a_set(M: ChainProfile, n: int) -> frozenset[Exponent]:
    """A-sets of the recursive basis construction.

    ``M`` is weakly decreasing with positive entries.  Defined for
    2n <= |M|; the recursion may also probe the boundary 2n = |M| + 1,
    which is empty by convention.  Splitting is always on the LAST entry:
    when n < M_k the box shrinks to (M_1..M_{k-1}, n); otherwise the set
    splits by whether the last exponent is maximal.
    """
    total = sum(M)
    if 2 * n > total:
        assert 2 * n == total + 1, f"A-set probed outside its domain: {M}, {n}"
        return frozenset()
    k = len(M)
    if n == 0:
        return frozenset({(0,) * k})
    if k <= 1:
        return frozenset()
    last = M[-1]
    if n < last:
        return _a_set(M[:-1] + (n,), n)
    shrunk = M[:-1] + (last - 1,)
    if shrunk[-1] == 0:
        part1 = frozenset(v + (0,) for v in _a_set(shrunk[:-1], n))
    else:
        part1 = _a_set(shrunk, n)
    part2 = frozenset(v + (last,) for v in _a_set(M[:-1], n - last))
    return part1 | part2


def construct_A(M: Iterable[int], n: int) -> list[Exponent]:
    """The rank-n generators of the recursive basis, |P_n| - |P_{n-1}| many.

    Only defined up to the middle: requires 0 <= 2n <= |M|.  Exponents come
    back in the caller's variable order, lex-descending.
    """
    prof = _as_profile(M)
    total = sum(prof)
    if not 0 <= 2 * n <= total:
        raise ValueError(f"need 0 <= 2n <= |M| = {total}, got n = {n}")
    norm, positions = normalize_profile(prof)
    out = []
    for vec in _a_set(norm, n):
        full = [0] * len(prof)
        for j, e in enumerate(vec):
            full[positions[j]] = e
        out.append(tuple(full))
    return sorted(out, reverse=True)


def _raising_power_vector(M: ChainProfile, f: Exponent, n: int) -> list[int]:
    """Coordinates of U^{n-|f|}/(n-|f|)! applied to x^f, over rank-n monomials."""
    monos = monomials_of_profile_rank(M, n)
    vec = []
    for beta in monos:
        if all(b >= a for a, b in zip(f, beta)):
            vec.append(math.prod(math.comb(b, a) for a, b in zip(f, beta)))
        else:
            vec.append(0)
    return vec


def construct_B(M: Iterable[int], n: int) -> list[list[int]]:
    """The full rank-n basis as integer vectors in the monomial basis.

    Divided powers of the raising operator push every A-generator of rank
    m up to rank n; m runs to n below the middle and to |M| - n above it.
    The vector count always matches the rank size.
    """
    prof = _as_profile(M)
    total = sum(prof)
    if not 0 <= n <= total:
        raise ValueError(f"rank out of range for the box {prof}: {n}")
    bound = min(n, total - n)
    out = []
    for m in range(bound + 1):
        for f in construct_A(prof, m):
            out.append(_raising_power_vector(prof, f, n))
    return out


def base_change_unimodular_check(M: Iterable[int], n: int) -> tuple[bool, dict | None]:
    """The rank-n basis vectors must form a square unimodular matrix.

    Returns (True, None) or (False, witness): the vector count against the
    rank size when they differ, else the determinant.
    """
    prof = _as_profile(M)
    vectors = construct_B(prof, n)
    size = len(monomials_of_profile_rank(prof, n))
    if len(vectors) != size:
        return False, {"vectors": str(len(vectors)), "rank_size": str(size)}
    det = determinant(vectors)
    if abs(det) != 1:
        return False, {"determinant": str(det)}
    return True, None


def base_change_report(M: Iterable[int], n: int) -> dict:
    """The chains-basis report on rank n; reports of several ranks merge by
    summing ``checked`` and concatenating ``failures``."""
    prof = _as_profile(M)
    ok, witness = base_change_unimodular_check(prof, n)
    failures = [] if ok else [{"witness": f"rank {n}", "expected": "unimodular", **witness}]
    return {"suite": "chains-basis", "M": list(prof), "checked": 1, "failures": failures}


def _cover_step(M: ChainProfile, k: int, weight) -> SparseStep:
    """Sparse step rank k -> k+1 over the covers alpha -> alpha + e_i, as
    (index of alpha, index of alpha + e_i, weight(M_i, alpha_i)) triples."""
    high = monomials_of_profile_rank(M, k + 1)
    col = {beta: idx for idx, beta in enumerate(high)}
    out = []
    for r, alpha in enumerate(monomials_of_profile_rank(M, k)):
        for idx, e in enumerate(alpha):
            if e < M[idx]:
                out.append((r, col[alpha[:idx] + (e + 1,) + alpha[idx + 1 :]], weight(M[idx], e)))
    return tuple(out)


@lru_cache(maxsize=None)
def _um_step(M: ChainProfile, k: int) -> SparseStep:
    """Raising step rank k -> k+1: entry (alpha, alpha + e_i) = alpha_i + 1."""
    return _cover_step(M, k, lambda m, e: e + 1)


@lru_cache(maxsize=None)
def _dm_step(M: ChainProfile, k: int) -> SparseStep:
    """Lowering step read against rows=lower: entry (beta - e_i, beta) =
    M_i - beta_i + 1."""
    return _cover_step(M, k, lambda m, e: m - e)


def _layer(M: Iterable[int], low: int, high: int, step) -> IntMatrix:
    prof = _as_profile(M)
    sizes = profile_rank_sizes(prof)
    if not 0 <= low <= high < len(sizes):
        raise ValueError(f"need 0 <= l <= l' <= {len(sizes) - 1}, got ({low}, {high})")
    return compose_steps([step(prof, k) for k in range(low, high)], sizes[low], sizes[high])


def um_layer_matrix(M: Iterable[int], low: int, high: int) -> IntMatrix:
    """Composite raising matrix between two ranks; rows = rank ``low``
    monomials, columns = rank ``high``, both lex-descending."""
    return _layer(M, low, high, _um_step)


def dm_layer_matrix(M: Iterable[int], low: int, high: int) -> IntMatrix:
    """Composite lowering matrix between the same index sets (rows = lower
    rank), entry (x, y) = coefficient tying x to y."""
    return _layer(M, low, high, _dm_step)


def predicted_um_snf(M: Iterable[int], low: int, high: int) -> tuple[int, ...]:
    """Smith chain of the diagonal model of the box's rank sizes:
    |P_i| - |P_{i-1}| entries equal to C(high-i, low-i) for i = 0..low,
    scaled by (high-low)!."""
    prof = _as_profile(M)
    total = sum(prof)
    if not (0 <= low < high <= total and low + high <= total):
        raise ValueError(f"need 0 <= l < l' and l + l' <= {total}, got ({low}, {high})")
    return diagonal_model_snf(profile_rank_sizes(prof), low, high)


def _smith_window_report(head: dict, low: int, high: int, expected, windows) -> dict:
    """The report of one Smith window: ``head`` (suite and scope), the window
    and its predicted invariants, and a failure for every (label, matrix)
    pair whose Smith form differs.  ``windows`` may be a generator, so that
    each matrix is built just before its :func:`snf` call."""
    checked, failures = 0, []
    for label, mat in windows:
        got = snf(mat)
        checked += 1
        if got != expected:
            failures.append(
                {
                    "witness": label,
                    "expected": [str(x) for x in expected],
                    "actual": [str(x) for x in got],
                }
            )
    return {
        **head,
        "from": low,
        "to": high,
        "predicted": [str(x) for x in expected],
        "checked": checked,
        "failures": failures,
    }


def um_snf_check(M: Iterable[int], low: int, high: int) -> dict:
    """Smith form of the raising composite against the diagonal prediction.

    Only the window below the middle (low + high <= |M|) is covered; the
    complementary window belongs to the lowering operator, whose composite
    is the transpose of this one and therefore adds nothing new.
    """
    prof = _as_profile(M)
    expected = predicted_um_snf(prof, low, high)
    head = {"suite": "chains-snf", "M": list(prof)}
    window = [(f"raising[{low},{high}]", um_layer_matrix(prof, low, high))]
    return _smith_window_report(head, low, high, expected, window)


def um_determinant_formula(M: Iterable[int], low: int, high: int) -> int:
    """Predicted |det| of the square raising composite between complementary
    ranks: prod over m = 0..low of ((high-m)!/(low-m)!)^(|P_m| - |P_{m-1}|)."""
    prof = _as_profile(M)
    total = sum(prof)
    if high != total - low or low > high:
        raise ValueError(f"need l' = |M| - l with l <= l', got ({low}, {high})")
    sizes = profile_rank_sizes(prof)
    out = 1
    for m in range(low + 1):
        count = sizes[m] - (sizes[m - 1] if m > 0 else 0)
        ratio = math.factorial(high - m) // math.factorial(low - m)
        out *= ratio**count
    return out


def um_determinant_check(M: Iterable[int], low: int, high: int) -> tuple[bool, dict | None]:
    """Exact determinant of the complementary-rank raising composite against
    the closed formula.  Returns (True, None) or (False, witness) with the
    expected and the actual |det|."""
    prof = _as_profile(M)
    expected = um_determinant_formula(prof, low, high)
    got = abs(determinant(um_layer_matrix(prof, low, high)))
    if got != expected:
        return False, {"expected": str(expected), "actual": str(got)}
    return True, None


def um_determinant_report(M: Iterable[int], low: int, high: int) -> dict:
    """The chains-det report on the window [low, high]; reports of several
    windows merge by summing ``checked`` and concatenating ``failures``."""
    prof = _as_profile(M)
    ok, witness = um_determinant_check(prof, low, high)
    failures = [] if ok else [{"witness": f"raising[{low},{high}]", **witness}]
    return {"suite": "chains-det", "M": list(prof), "checked": 1, "failures": failures}
