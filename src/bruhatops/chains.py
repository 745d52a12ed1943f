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

Above the middle the determinants of the basis come from the sl2 relation
instead.  Let U_k and D_k be the raising and lowering steps out of rank k
(rows = rank k) and N = |M|.  Suppose two facts hold.  First, the relation
D_{k-1}^T U_{k-1} - U_k D_k^T = (2k - N) I holds on every rank k, the form
the sl2 suite checks for S_n.  Second, the box mirror alpha -> M - alpha
carries U onto D.  Then the box is a finite-dimensional sl2-module (Stanley,
"Weyl groups, the hard Lefschetz theorem, and the Sperner property", SIAM
J. Algebraic Discrete Methods 1, 1980; Proctor, "Representations of
sl(2, C) on posets and the Sperner property", ibid. 3, 1982).  Its lowest
weight vectors at rank m number |P_m| - |P_{m-1}|.  On rank k <= N/2, with
j = N - 2k, D^j U^j acts on the part they generate by ((N-k-m)!/(k-m)!)^2.
The mirror gives |det D^j| = |det U^j|, so

    |det U_[k,N-k]|  =  prod_m ((N-k-m)!/(k-m)!)^(|P_m| - |P_{m-1}|),

which is :func:`um_determinant_formula`: every square window is proved.
If the walk's divisions on the ranks k+1 .. N-k were exact for the
generators of B_k, then B_k U_[k,N-k] = Lambda B_{N-k}, with
Lambda = diag (N-k-m)!/(k-m)! over those generators.  If also they number
|P_m| - |P_{m-1}| at each rank m, then |det Lambda| = |det U_[k,N-k]|, and
hence |det B_{N-k}| = |det B_k|.  The code checks each hypothesis of this
theorem exactly: the mirror and sl2 scans of :func:`_sl2_holds`, the
divisions, the born counts and det B_k.  Any rank they do not prove is
reduced by Bareiss as before, so no determinant is taken above the middle
on working code.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from itertools import accumulate, product
from typing import Iterable, Iterator

from .snf import (
    IntMatrix,
    SparseStep,
    _dense,
    _mirror_scan,
    _sl2_scan,
    compose_steps,
    determinant,
    diagonal_model_snf,
    push_rows,
    snf,
)

ChainProfile = tuple[int, ...]
Exponent = tuple[int, ...]

__all__ = [
    "staircase",
    "normalize_profile",
    "profile_rank_sizes",
    "profile_rank_size",
    "monomials_of_profile_rank",
    "construct_A",
    "construct_B",
    "base_change_unimodular_check",
    "verify_chains_basis",
    "um_layer_matrix",
    "dm_layer_matrix",
    "predicted_um_snf",
    "um_snf_check",
    "um_determinant_formula",
    "um_determinant_check",
    "verify_chains_det",
]


def _as_profile(M: Iterable[int]) -> ChainProfile:
    prof = tuple(int(m) for m in M)
    if any(m < 0 for m in prof):
        raise ValueError(f"chain lengths must be nonnegative: {prof}")
    return prof


def staircase(n: int) -> ChainProfile:
    """The componentwise exponent ceiling (n-1, n-2, ..., 1); empty for n=1.
    As a profile, the box whose ranks have the sizes of the ranks of S_n."""
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    return tuple(range(n - 1, 0, -1))


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
def _monomials_by_rank(M: ChainProfile) -> tuple[tuple[Exponent, ...], ...]:
    """The box bucketed by rank in one lex-descending pass over it."""
    ranks: list[list[Exponent]] = [[] for _ in range(sum(M) + 1)]
    for alpha in product(*[range(m, -1, -1) for m in M]):
        ranks[sum(alpha)].append(alpha)
    return tuple(map(tuple, ranks))


def monomials_of_profile_rank(M: ChainProfile, k: int) -> tuple[Exponent, ...]:
    """Exponent vectors alpha <= M with |alpha| = k, lex-descending."""
    prof = _as_profile(M)
    if not 0 <= k <= sum(prof):
        raise ValueError(f"rank out of range for the box {prof}: {k}")
    return _monomials_by_rank(prof)[k]


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


def _pushed_bases(M: ChainProfile, keep: int) -> Iterator[tuple[list[dict[int, int]], list[int], tuple[int, ...]]]:
    """The rows of the bases B_0, ..., B_|M| as sparse rows over the
    monomials of each rank, built by one walk up the ranks; only the
    generators of rank at most ``keep`` (at most |M|/2) take part.

    Yields, per rank k, (rows, born, inexact): the row of every live
    generator, the rank each generator was born at, and the positions of
    the rows whose division on the step into rank k was not exact.  The
    rows of rank k - 1 are pushed through ``_um_step(M, k - 1)`` together,
    each entry is divided by k - m for its generator's rank m, the
    generators with m > |M| - k are dropped, and for k <= keep the unit
    rows of :func:`construct_A` are appended.  Generators are born in order
    of rank and die in the reverse order, so the live ones are always the
    first in order of birth, and a row's position names its generator.
    The generator keeps only two ranks of rows alive at once; a caller that
    holds the rows of the last rank yielded keeps a third.
    """
    total = sum(M)
    rows: list[dict[int, int]] = []
    born: list[int] = []
    for k in range(total + 1):
        inexact = []
        if k:
            live = [i for i, m in enumerate(born) if m <= total - k]
            born = [born[i] for i in live]
            pushed = push_rows([rows[i] for i in live], [_um_step(M, k - 1)])
            rows = []
            for i, (row, m) in enumerate(zip(pushed, born)):
                divided, exact = {}, True
                for c, v in row.items():
                    q, r = divmod(v, k - m)
                    if r:
                        exact = False
                    if q:
                        divided[c] = q
                rows.append(divided)
                if not exact:
                    inexact.append(i)
            del pushed  # between yields only the rows of one rank stay alive
        if k <= keep:
            col = {alpha: idx for idx, alpha in enumerate(monomials_of_profile_rank(M, k))}
            for f in construct_A(M, k):
                rows.append({col[f]: 1})
                born.append(k)
        yield rows, born, tuple(inexact)


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
    for k, (rows, _, inexact) in zip(range(n + 1), _pushed_bases(prof, keep)):
        if inexact:
            raise ArithmeticError(f"a divided power into rank {k} of {prof} is not integral")
    return _dense(rows, sizes[n])


class _Walk:
    """One walk of :func:`_pushed_bases` over all generators, advanced only
    as far as a caller asks.

    For every rank k reached it records the generators born at k
    (``born[k]``), the generators alive at k (``live[k]``, the first ones in
    order of birth) and the positions of the rows whose division into rank k
    was not exact (``inexact[k]``).  Of the rows it keeps only those of the
    rank it stands at (``at``), in order of birth of their generators
    (``rows``): a rank behind the walk is read again from a fresh walk.
    """

    def __init__(self, M: ChainProfile):
        self.born: list[int] = []
        self.live: list[int] = []
        self.inexact: list[tuple[int, ...]] = []
        self._ranks = enumerate(_pushed_bases(M, sum(M) // 2))
        self.at = -1
        self.rows: list[dict[int, int]] = []

    def reach(self, k: int) -> _Walk:
        """Walk on to rank k, forgetting the rows of every rank passed."""
        while self.at < k:
            self.at, (self.rows, born, inexact) = next(self._ranks)
            self.born.append(born.count(self.at))
            self.live.append(len(self.rows))
            self.inexact.append(inexact)
        return self


@lru_cache(maxsize=None)
def _walk(M: ChainProfile) -> _Walk:
    return _Walk(M)


@lru_cache(maxsize=None)
def _rank_det(M: ChainProfile, k: int) -> tuple[int, int | None]:
    """(vector count, determinant) of the basis B_k: :func:`determinant` of
    its rows in order of birth of their generators, or None when they are
    not square.  The rows are read where the shared walk stands, after
    walking it on to rank k; a rank the walk has passed, which only a call
    out of rank order asks for, is read from a fresh walk.  Cached without
    the rows."""
    walk = _walk(M).reach(k)
    rows = walk.rows if walk.at == k else _Walk(M).reach(k).rows
    size = profile_rank_sizes(M)[k]
    return len(rows), (determinant(_dense(rows, size)) if len(rows) == size else None)


def base_change_unimodular_check(M: Iterable[int], n: int) -> tuple[bool, dict | None]:
    """The rank-n basis vectors must form a square unimodular matrix.

    Returns (True, None) or (False, witness): the first rank into which a
    divided power of a generator of B_n is not integral, else the vector
    count against the rank size when they differ, else the determinant.
    These are the facts :func:`construct_B` and :func:`determinant` give,
    read from the one walk the window checks share.
    """
    prof = _as_profile(M)
    sizes = profile_rank_sizes(prof)
    if not 0 <= n < len(sizes):
        raise ValueError(f"rank out of range for the box {prof}: {n}")
    walk = _walk(prof).reach(n)
    for k in range(1, n + 1):
        if walk.inexact[k] and walk.inexact[k][0] < walk.live[n]:
            return False, {"divided_power": f"a divided power into rank {k} of {prof} is not integral"}
    if _proved_from_below(prof, n):
        return True, None
    vectors, det = _rank_det(prof, n)
    if vectors != sizes[n]:
        return False, {"vectors": str(vectors), "rank_size": str(sizes[n])}
    if abs(det) != 1:
        return False, {"determinant": str(det)}
    return True, None


def verify_chains_basis(M: Iterable[int]) -> dict:
    """The chains-basis report: :func:`base_change_unimodular_check` on every
    rank 0..|M|, with a failure for each rank it refutes, in order of rank."""
    prof = _as_profile(M)
    ranks = range(sum(prof) + 1)
    failures = []
    for n in ranks:
        ok, witness = base_change_unimodular_check(prof, n)
        if not ok:
            failures.append({"witness": f"rank {n}", "expected": "unimodular", **witness})
    return {"suite": "chains-basis", "M": list(prof), "checked": len(ranks), "failures": failures}


def _cover_step(M: ChainProfile, k: int, weight) -> SparseStep:
    """Sparse step rank k -> k+1 over the covers alpha -> alpha + e_i, as
    sorted (index of alpha, index of alpha + e_i, weight(M_i, alpha_i))
    triples."""
    high = monomials_of_profile_rank(M, k + 1)
    col = {beta: idx for idx, beta in enumerate(high)}
    out = SparseStep()
    rows, cols, weights = out.rows.append, out.cols.append, out.weights.append
    for r, alpha in enumerate(monomials_of_profile_rank(M, k)):
        for idx, e in enumerate(alpha):
            if e < M[idx]:
                rows(r)
                cols(col[alpha[:idx] + (e + 1,) + alpha[idx + 1 :]])
                weights(weight(M[idx], e))
    return out


@lru_cache(maxsize=None)
def _um_step(M: ChainProfile, k: int) -> SparseStep:
    """Raising step rank k -> k+1: entry (alpha, alpha + e_i) = alpha_i + 1."""
    return _cover_step(M, k, lambda m, e: e + 1)


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
def _sl2_holds(M: ChainProfile) -> bool:
    """Whether both hypotheses of the sl2 half of the module docstring hold
    on the box M with the raising steps :func:`_um_step` and the lowering
    steps :func:`_dm_step`: the mirror, then the sl2 relation.

    The monomials of a rank are lex-descending, so alpha -> M - alpha lays
    rank k onto rank N - k backwards, and the mirror is the scan
    :func:`snf._mirror_scan` that the w0 check of S_n runs.  When it fails,
    no sl2 scan is run.

    Once the mirror holds, the sl2 scan stops at the middle rank.  Write
    C_j = D_{j-1}^T U_{j-1} - U_j D_j^T for the commutator on rank j and J
    for the reversal of a rank.
    The mirror says U_k = J D_{N-1-k}^T J for every k, and so also
    D_k^T = J U_{N-1-k} J.  Then

        J C_{N-j} J = (J D_{N-j-1}^T J)(J U_{N-j-1} J) - (J U_{N-j} J)(J D_{N-j}^T J)
                    = U_j D_j^T - D_{j-1}^T U_{j-1}  =  -C_j,

    so C_{N-j} = (N - 2j) I gives C_j = (2j - N) I, and the ranks above the
    middle hold when those at or below it do (the zero steps that pad
    either end are their own mirrors).
    """
    total = sum(M)
    sizes = profile_rank_sizes(M)
    up = [_um_step(M, k) for k in range(total)]
    down = [_dm_step(M, k) for k in range(total)]
    return _mirror_scan(up, down, sizes) is None and _sl2_scan(down, up, sizes, total // 2)[0]


def _proved_from_below(M: ChainProfile, high: int) -> bool:
    """Whether the rows of B_high, for a rank above the middle, are square
    with det +-1 by the sl2 half of the module docstring, read from rank
    low = |M| - high: the rows of B_low are square with det +-1, every
    generator of B_low was divided exactly on the ranks low + 1 .. high,
    the generators born at each rank m <= low number |P_m| - |P_{m-1}|, and
    :func:`_sl2_holds`.  The verdict is asked only here and in
    :func:`um_determinant_check`, so a window that asks for no rank above
    the middle runs neither of its scans.  Rank low is settled before the
    walk goes on to high, so its determinant is taken where the walk stands.
    """
    low = sum(M) - high
    if low >= high:
        return False
    walk = _walk(M).reach(low)
    sizes = profile_rank_sizes(M)
    return (
        all(walk.born[m] == sizes[m] - (sizes[m - 1] if m else 0) for m in range(low + 1))
        and _unimodular(M, low)
        and all(not bad or bad[0] >= walk.live[low] for bad in walk.reach(high).inexact[low + 1 : high + 1])
        and _sl2_holds(M)
    )


def _unimodular(M: ChainProfile, k: int) -> bool:
    """Whether the rows of B_k are square with det +-1: proved from the rank
    below when :func:`_proved_from_below` can, else by the determinant."""
    if _proved_from_below(M, k):
        return True
    det = _rank_det(M, k)[1]
    return det is not None and abs(det) == 1


def _proved_sizes(M: ChainProfile, low: int, high: int) -> list[int] | None:
    """When the basis proves the window [low, high] (l + h <= |M|), the
    number of its generators of rank <= i for i = 0..low, from which the
    diagonal (h-l)! Pi of the module docstring is read; else None.

    A window is proved when every division on the ranks low + 1 .. high was
    exact and its two end ranks are unimodular.  Only the determinants of
    the two end ranks are taken, or, for an end above the middle that
    :func:`_proved_from_below` proves, that of the rank it is read from.
    The end ranks are settled in rank order, before the divisions, so each
    determinant is taken where the walk stands.
    """
    if not (_unimodular(M, low) and _unimodular(M, high)):
        return None
    walk = _walk(M).reach(high)
    if any(walk.inexact[low + 1 : high + 1]):
        return None
    return list(accumulate(walk.born[: low + 1]))


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
    the certificate proves with the box's own generator counts has the
    predicted diagonal and is not eliminated; any other goes to
    :func:`snf`, which agrees with the certificate's diagonal whenever the
    certificate holds.
    """
    prof = _as_profile(M)
    expected = predicted_um_snf(prof, low, high)
    if _proved_sizes(prof, low, high) == list(profile_rank_sizes(prof)[: low + 1]):
        got = expected
    else:
        got = snf(um_layer_matrix(prof, low, high))
    head = {"suite": "chains-snf", "M": list(prof)}
    return _smith_window_report(head, low, high, expected, [(f"raising[{low},{high}]", got)])


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
        out *= (math.factorial(high - m) // math.factorial(low - m)) ** count
    return out


def um_determinant_check(M: Iterable[int], low: int, high: int) -> tuple[bool, dict | None]:
    """|det| of the complementary-rank raising composite against the closed
    formula: proved with no determinant when :func:`_sl2_holds`, else by
    exact elimination, and only then is the formula evaluated.  Returns
    (True, None) or (False, witness) with the expected and the actual
    |det|."""
    prof = _as_profile(M)
    square = high == sum(prof) - low and low <= high
    if square and _sl2_holds(prof):
        return True, None
    expected = um_determinant_formula(prof, low, high)  # refuses a window that is not square
    got = abs(determinant(um_layer_matrix(prof, low, high)))
    if got != expected:
        return False, {"expected": str(expected), "actual": str(got)}
    return True, None


def verify_chains_det(M: Iterable[int]) -> dict:
    """The chains-det report: :func:`um_determinant_check` on every square
    window [k, |M| - k], with a failure for each window it refutes, in order
    of k."""
    prof = _as_profile(M)
    total = sum(prof)
    lows = range(total // 2 + 1)
    failures = []
    for low in lows:
        ok, witness = um_determinant_check(prof, low, total - low)
        if not ok:
            failures.append({"witness": f"raising[{low},{total - low}]", **witness})
    return {"suite": "chains-det", "M": list(prof), "checked": len(lows), "failures": failures}
