"""
Products of chains: the poset of monomials x^alpha with alpha <= M
componentwise, its standard raising/lowering operators, a recursively
constructed integral basis, and exact Smith-form / determinant checks for
powers of the raising operator.

The raising operator sends x^alpha to sum_i (alpha_i + 1) x_i x^alpha,
truncating any monomial that escapes the box M to zero; the lowering
operator sends x^beta to sum_i (M_i - beta_i + 1) x^beta / x_i.

The basis B_k of rank k holds one row per generator f of rank m <= min(k,
|M| - k): the divided power U^(k-m)/(k-m)! applied to x^f.  One walk up the
ranks builds every B_k: the rows of rank k-1 are pushed through the raising
step, each entry is divided exactly by k - m, the generators whose range
ends are dropped, and below the middle the unit rows of the new generators
are appended.  That walk is also a proof.  If B_l and B_h are square with
det +-1 and every division on the way from l to h was exact, then

    B_l U_[l,h]  =  (h-l)! [Pi | 0] P B_h,    Pi = diag C(h-m, l-m),

with P a permutation, so the raising composite U_[l,h] has the Smith form
of the diagonal (h-l)! Pi and, on a square window, |det| = |det (h-l)! Pi|;
no composite is built.  The proof trusts neither the generators nor a closed
form: any rows that pass are a certificate, and a window they do not prove
falls back to exact elimination of its composite.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from itertools import accumulate, product
from typing import Iterable, Iterator, Sequence

from .snf import (
    IntMatrix,
    SparseStep,
    _dense,
    compose_steps,
    determinant,
    diagonal_model_snf,
    push_rows,
    snf,
)

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


def _pushed_bases(
    M: ChainProfile, step, keep: int
) -> Iterator[tuple[list[dict[int, int]], list[int], bool]]:
    """The rows of the bases B_0, ..., B_|M| as sparse rows over the
    monomials of each rank, built by one walk up the ranks; only the
    generators of rank at most ``keep`` (at most |M|/2) take part.

    Yields, per rank k, (rows, born, exact): the row of every live
    generator, the rank each generator was born at, and whether every
    division on the step into rank k was exact.  The rows of rank k - 1 are
    pushed through ``step(M, k - 1)`` together, each entry is divided by
    k - m for its generator's rank m, the generators with m > |M| - k are
    dropped, and for k <= keep the unit rows of :func:`construct_A` are
    appended.  Only two ranks of rows are alive at once.
    """
    total = sum(M)
    rows: list[dict[int, int]] = []
    born: list[int] = []
    for k in range(total + 1):
        exact = True
        if k:
            live = [i for i, m in enumerate(born) if m <= total - k]
            born = [born[i] for i in live]
            pushed = push_rows([rows[i] for i in live], [step(M, k - 1)])
            rows = []
            for row, m in zip(pushed, born):
                divided = {}
                for c, v in row.items():
                    q, r = divmod(v, k - m)
                    if r:
                        exact = False
                    if q:
                        divided[c] = q
                rows.append(divided)
        if k <= keep:
            col = {alpha: idx for idx, alpha in enumerate(monomials_of_profile_rank(M, k))}
            for f in construct_A(M, k):
                rows.append({col[f]: 1})
                born.append(k)
        yield rows, born, exact


def construct_B(M: Iterable[int], n: int) -> list[list[int]]:
    """The full rank-n basis as integer vectors in the monomial basis.

    Divided powers of the raising operator push every A-generator of rank
    m up to rank n; m runs to n below the middle and to |M| - n above it.
    Rows come in order of m, then of :func:`construct_A`, and the vector
    count always matches the rank size.  Raises ArithmeticError if a
    divided power is not integral, which the raising step rules out.
    """
    prof = _as_profile(M)
    sizes = profile_rank_sizes(prof)
    if not 0 <= n < len(sizes):
        raise ValueError(f"rank out of range for the box {prof}: {n}")
    keep = min(n, len(sizes) - 1 - n)
    for k, (rows, _, exact) in zip(range(n + 1), _pushed_bases(prof, _um_step, keep)):
        if not exact:
            raise ArithmeticError(f"a divided power into rank {k} of {prof} is not integral")
    return _dense(rows, sizes[n])


def base_change_unimodular_check(M: Iterable[int], n: int) -> tuple[bool, dict | None]:
    """The rank-n basis vectors must form a square unimodular matrix.

    Returns (True, None) or (False, witness): the divided power that is not
    integral, else the vector count against the rank size when they differ,
    else the determinant.
    """
    prof = _as_profile(M)
    try:
        vectors = construct_B(prof, n)
    except ArithmeticError as exc:
        return False, {"divided_power": str(exc)}
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


@lru_cache(maxsize=None)
def _rank_certificate(M: ChainProfile, step, det) -> tuple[tuple[int, bool, bool], ...]:
    """Per rank k of the box, from one walk of :func:`_pushed_bases` over
    ``step``: (generators born at k, every division into rank k was exact,
    the rows of rank k are square with |det| = 1 under ``det``).

    Only these facts are kept, never the rows.  The step and the determinant
    are part of the key, so a rebound one (a tracer, a test double) gets its
    own certificate.  The rows go to ``det`` ordered by leading column.
    """
    sizes = profile_rank_sizes(M)
    out = []
    for k, (rows, born, exact) in enumerate(_pushed_bases(M, step, sum(M) // 2)):
        size = sizes[k]
        square = len(rows) == size
        if square:
            rows = sorted(rows, key=lambda row: min(row, default=size))
        out.append((born.count(k), exact, square and abs(det(_dense(rows, size))) == 1))
    return tuple(out)


def _proved_sizes(M: ChainProfile, low: int, high: int) -> list[int] | None:
    """When the certificate proves the window [low, high] (l + h <= |M|),
    the number of its generators of rank <= i for i = 0..low, from which
    the diagonal (h-l)! Pi of the module docstring is read; else None.

    A window is proved when its two end ranks are unimodular and every
    division on the ranks low + 1 .. high was exact.
    """
    cert = _rank_certificate(M, _um_step, determinant)
    exact = all(step_exact for _, step_exact, _ in cert[low + 1 : high + 1])
    if not (exact and cert[low][2] and cert[high][2]):
        return None
    return list(accumulate(born for born, _, _ in cert[: low + 1]))


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
    and its predicted invariants, and a failure for every (label, invariants)
    pair that differs from the prediction.  ``windows`` may be a generator,
    so that each matrix is built and reduced just before the next."""
    checked, failures = 0, []
    for label, got in windows:
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
    is the transpose of this one and therefore adds nothing new.  A window
    the certificate proves is not eliminated; any other goes to :func:`snf`.
    """
    prof = _as_profile(M)
    expected = predicted_um_snf(prof, low, high)
    sizes = _proved_sizes(prof, low, high)
    if sizes is not None and diagonal_model_snf(sizes, low, high) == expected:
        got = expected
    else:
        got = snf(um_layer_matrix(prof, low, high))
    head = {"suite": "chains-snf", "M": list(prof)}
    return _smith_window_report(head, low, high, expected, [(f"raising[{low},{high}]", got)])


def _diagonal_det(sizes: Sequence[int], low: int, high: int) -> int:
    """|det| of the diagonal model on a square window: prod over m = 0..low
    of ((high-m)!/(low-m)!)^(sizes[m] - sizes[m-1])."""
    out = 1
    for m in range(low + 1):
        count = sizes[m] - (sizes[m - 1] if m > 0 else 0)
        out *= (math.factorial(high - m) // math.factorial(low - m)) ** count
    return out


def um_determinant_formula(M: Iterable[int], low: int, high: int) -> int:
    """Predicted |det| of the square raising composite between complementary
    ranks: prod over m = 0..low of ((high-m)!/(low-m)!)^(|P_m| - |P_{m-1}|)."""
    prof = _as_profile(M)
    total = sum(prof)
    if high != total - low or low > high:
        raise ValueError(f"need l' = |M| - l with l <= l', got ({low}, {high})")
    return _diagonal_det(profile_rank_sizes(prof), low, high)


def um_determinant_check(M: Iterable[int], low: int, high: int) -> tuple[bool, dict | None]:
    """|det| of the complementary-rank raising composite against the closed
    formula: proved by the certificate, or else by exact elimination.
    Returns (True, None) or (False, witness) with the expected and the
    actual |det|."""
    prof = _as_profile(M)
    expected = um_determinant_formula(prof, low, high)
    sizes = _proved_sizes(prof, low, high)
    if sizes is not None and _diagonal_det(sizes, low, high) == expected:
        return True, None
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
