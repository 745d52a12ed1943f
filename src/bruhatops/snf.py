"""
Exact integer linear algebra: dense matrices over Python ints, the sparse
step composer, determinants, Smith normal form, and the diagonal model whose
Smith chain the layer-matrix theorems predict.  No other module of the
package is imported here.

Everything here is exact; no floating point anywhere.  A matrix is a plain
list of rows of ints.  A rank step is a sparse matrix read as its (row, col,
weight) triples: a :class:`SparseStep`, or any sequence of such tuples, since
every reader only iterates a step and takes its ``len``.  Every layer matrix
of the package is composed from consecutive steps by :func:`compose_steps`.
Smith invariants are returned as a tuple of
nonnegative integers b_1 | b_2 | ... of length min(rows, cols) -- the
diagonal of the Smith form with the surrounding zero padding trimmed away,
so rank-deficient matrices show trailing zeros.  :func:`snf` eliminates
modulo a nonzero maximal minor found by the Bareiss pass behind
:func:`determinant`, so its entries never outgrow that minor.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from typing import Iterable, Iterator, Sequence

IntMatrix = list[list[int]]

__all__ = [
    "IntMatrix",
    "SparseStep",
    "push_rows",
    "compose_steps",
    "transpose",
    "determinant",
    "snf",
    "divisibility_normalize",
    "diagonal_model_snf",
]


class SparseStep:
    """One step of a graded space, from rank k to rank k + 1: the triples
    (row, column, weight) of its sparse matrix, rows in rank k, in the order
    they were added, kept as three columns.  ``rows`` and ``cols`` are
    ``array('i')``; ``weights`` is one too, or, with ``shared``, a list of
    the weight objects themselves (the strong steps of S_n weighed by the
    pair of their code and chevalley weights share one object per pair).
    So a triple takes 12 bytes, against about 90 as a tuple of ints.

    A step iterates as its triples and has ``len``, which is all a reader
    takes, so a tuple of triples serves every reader as well; a step equals
    such a tuple, or another step, with the same triples in the same order.
    """

    __slots__ = ("rows", "cols", "weights")

    def __init__(self, shared: bool = False):
        self.rows, self.cols = array("i"), array("i")
        self.weights: array | list = [] if shared else array("i")

    def append(self, r: int, c: int, w) -> None:
        self.rows.append(r)
        self.cols.append(c)
        self.weights.append(w)

    def __iter__(self) -> Iterator[tuple]:
        return zip(self.rows, self.cols, self.weights)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SparseStep, tuple)):
            return NotImplemented
        return tuple(self) == tuple(other)

    __hash__ = None  # type: ignore[assignment]


def transpose(a: IntMatrix) -> IntMatrix:
    return [list(col) for col in zip(*a)] if a else []


def _flipped(step: SparseStep) -> SparseStep:
    """The transposed step: (r, c, w) becomes (c, r, w)."""
    out = SparseStep()
    for r, c, w in step:
        out.append(c, r, w)
    return out


def push_rows(rows: list[dict[int, int]], steps: Iterable[SparseStep]) -> list[dict[int, int]]:
    """Push sparse row vectors (index -> value) through consecutive steps.

    A triple (r, c, w) of a step sends w times coordinate r to coordinate c
    of the next rank, so each row comes out as itself times the product of
    the steps.  Entries that cancel may stay behind as explicit zeros.
    """
    for step in steps:
        out_of: dict[int, list[tuple[int, int]]] = {}
        for r, c, w in step:
            out_of.setdefault(r, []).append((c, w))
        pushed = []
        for row in rows:
            nxt: dict[int, int] = {}
            for r, v in row.items():
                for c, w in out_of.get(r, ()):
                    nxt[c] = nxt.get(c, 0) + v * w
            pushed.append(nxt)
        rows = pushed
    return rows


def _sl2_scan(
    down: Sequence[SparseStep], up: Sequence[SparseStep], sizes: Sequence[int], last: int | None = None
) -> tuple[bool, dict | None]:
    """The sl2 relation D_{k-1}^T U_{k-1} - U_k D_k^T = (2k - N) I on the
    ranks k = 0..``last`` (default N = len(sizes) - 1) of a graded space,
    with D_k = ``down[k]`` and U_k = ``up[k]`` the steps out of rank k (rows
    = rank k); the steps below rank 0 and out of rank N are zero.

    Each row of the commutator is summed in one sparse row: through D_{k-1}
    read by column and U_{k-1} by row, then less U_k by row and D_k by
    column, each step indexed once.  Returns (True, None) or (False, witness)
    naming the first failing rank, the entry (row, column) within it, and
    the expected and actual values.
    """
    top = len(sizes) - 1
    below_down: dict[int, list[tuple[int, int]]] = {}  # D_{k-1}: column -> (row, weight)
    below_up: dict[int, list[tuple[int, int]]] = {}  # U_{k-1}: row -> (column, weight)
    for k in range((top if last is None else last) + 1):
        above_down: dict[int, list[tuple[int, int]]] = {}
        above_up: dict[int, list[tuple[int, int]]] = {}
        if k < top:
            for r, c, w in down[k]:
                above_down.setdefault(c, []).append((r, w))
            for r, c, w in up[k]:
                above_up.setdefault(r, []).append((c, w))
        want = 2 * k - top
        for i in range(sizes[k]):
            row = {i: 0}
            for r, w in below_down.get(i, ()):
                for c, v in below_up.get(r, ()):
                    row[c] = row.get(c, 0) + w * v
            for c, w in above_up.get(i, ()):
                for r, v in above_down.get(c, ()):
                    row[r] = row.get(r, 0) - w * v
            if row[i] == want and not any(v for j, v in row.items() if j != i):
                continue
            for j in sorted(row):
                expected = want if i == j else 0
                if row[j] != expected:
                    return False, {"rank": k, "entry": [i, j], "expected": str(expected), "actual": str(row[j])}
        below_down, below_up = above_down, above_up
    return True, None


def _mirror_scan(
    up: Sequence[SparseStep], down: Sequence[SparseStep], sizes: Sequence[int]
) -> tuple[int, tuple[int, int, int | None], int | None] | None:
    """The mirror that lays rank k of a graded space onto rank N - k
    backwards (N = len(sizes) - 1) must carry each triple (r, c, w) of
    ``up[k]`` onto the triple (sizes[k+1]-1-c, sizes[k]-1-r, w) of
    ``down[N-1-k]``, one to one, for every k.  Step k is read before step
    N-1-k, each once.

    When ``up is down`` (a space mirrored onto itself, as S_n under w0) the
    scan stops at the middle rank: the mirror is an involution, so the
    relation at k is the one at N-1-k read backwards, and the full scan
    first fails, if at all, at a k <= (N-1)/2 with the same witness.

    Each lowering step is read into one dict by place, the int
    r * sizes[k] + c for its triple (r, c, w) (so the triples index within
    their ranks), and a step with an extra or repeated triple fails.
    Returns None when the mirror holds,
    else (k, (r, c, w), found) for the first failing rank k: the first
    raising triple whose mirror is missing (found None) or weighs ``found``;
    failing that, the first lowering triple that repeats a place or that no
    raising triple mirrors, as its preimage (r, c, None) with its weight.
    """
    total = len(sizes) - 1
    for k in range((total + 1) // 2 if up is down else total):
        step = up[k]
        width = sizes[k]
        hi, lo = sizes[k + 1] - 1, width - 1
        lowering = down[total - 1 - k]
        found = {r * width + c: w for r, c, w in lowering}
        for r, c, w in step:
            got = found.pop((hi - c) * width + lo - r, None)
            if got != w:
                return k, (r, c, w), got
        if len(lowering) != len(step):
            repeats = Counter(r * width + c for r, c, _ in lowering)
            r, c, w = next(t for t in lowering if (at := t[0] * width + t[1]) in found or repeats[at] > 1)
            return k, (lo - c, hi - r, None), w
    return None


def _dense(rows: list[dict[int, int]], cols: int) -> IntMatrix:
    """Sparse rows (index -> value) as a dense matrix with ``cols`` columns."""
    out = [[0] * cols for _ in rows]
    for out_i, row in zip(out, rows):
        for c, v in row.items():
            out_i[c] = v
    return out


def compose_steps(steps: Sequence[SparseStep], rows: int, cols: int) -> IntMatrix:
    """Dense rows x cols product of consecutive sparse steps; the identity
    when there are no steps."""
    return _dense(push_rows([{i: 1} for i in range(rows)], steps), cols)


def _bareiss(mat: IntMatrix) -> tuple[int, int]:
    """Rank r of ``mat`` and its last fraction-free pivot, signed by the row
    swaps: a nonzero r x r minor, the determinant when ``mat`` is square and
    nonsingular, and 1 when r = 0.

    Bareiss elimination down the columns, with a search for a nonzero pivot
    in each; a column without one is skipped.  Rows are scaled lazily: each
    row records the pivot ``level`` it is current at, and a row with a zero
    in the pivot column is left alone instead of being rescaled by
    pivot / previous pivot.  A row with an entry there is updated to
    (v * pivot - x * w) / level, and a stale pivot row is brought current
    once, as v * prev / level.  Both divisions are exact: the results are
    the rows of the eager elimination, whose entries are minors of ``mat``,
    so entry growth stays polynomial.
    """
    a = [list(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    level = [1] * rows
    rank, sign, prev = 0, 1, 1
    for c in range(cols):
        if rank == rows:
            break
        found = next((i for i in range(rank, rows) if a[i][c]), None)
        if found is None:
            continue
        if found != rank:
            a[rank], a[found] = a[found], a[rank]
            level[rank], level[found] = level[found], level[rank]
            sign = -sign
        if level[rank] != prev:
            a[rank][c:] = [v * prev // level[rank] for v in a[rank][c:]]
        pivot = a[rank][c]
        tail = a[rank][c + 1 :]
        for i in range(rank + 1, rows):
            row = a[i]
            x = row[c]
            if x:
                row[c + 1 :] = [(v * pivot - x * w) // level[i] for v, w in zip(row[c + 1 :], tail)]
                level[i] = pivot
        prev = pivot
        rank += 1
    return rank, sign * prev


def determinant(mat: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant requires a square matrix")
    rank, minor = _bareiss(mat)
    return minor if rank == n else 0


def divisibility_normalize(diag: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Smith invariants of a diagonal matrix.

    Prime by prime, the invariants carry the sorted exponents of the
    entries.  So each distinct nonzero |entry| c, with its count m, is merged
    into the chain A_1 | A_2 | ... of the entries before it in one pass:
    position k becomes gcd(A_k, lcm(A_{k-m}, c)), reading A_j as 1 for
    j < 1 and as 0 past the end.  Zeros come last.

    >>> divisibility_normalize([4, 0, -6, 4])
    (2, 4, 12, 0)
    """
    counts = Counter(map(abs, diag))
    zeros = counts.pop(0, 0)
    chain: list[int] = []
    for c, m in counts.items():
        chain = [math.gcd(a, math.lcm(b, c)) for a, b in zip(chain + [0] * m, [1] * m + chain)]
    return tuple(chain) + (0,) * zeros


def snf(mat: IntMatrix) -> tuple[int, ...]:
    """Smith invariants b_1 | b_2 | ... of an integer matrix.

    Elimination modulo a determinant (Cohen, *A Course in Computational
    Algebraic Number Theory*, section 2.4, after Kannan-Bachem and
    Domich-Kannan-Trotter).  The matrix is transposed to m = min(rows, cols)
    rows.  One Bareiss pass gives its rank r and D = |a nonsingular r x r
    minor|; b_1 * ... * b_r divides D, so over Z/D the Smith form is
    (b_1, ..., b_r, D, ..., D).  Entries are therefore kept as symmetric
    residues mod D and never outgrow it.  Each pivot is the smallest nonzero
    entry of the trailing block; its column and row are reduced, and a
    nonzero remainder (strictly smaller) becomes the new pivot, so each
    round ends.  A trailing block that vanishes mod D gives invariants D.
    The pivots' gcds with D, in divisibility order, start with b_1..b_r;
    the other m - r invariants are 0.  All m rows stay in play, since the
    rows of a maximal minor need not span the row lattice: [[2, 2], [1, 1]]
    has invariants (1, 0).
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if any(len(row) != cols for row in mat):
        raise ValueError("ragged matrix")
    if rows > cols:
        mat = transpose(mat)
        rows, cols = cols, rows
    rank, minor = _bareiss(mat)
    modulus = abs(minor)
    half = modulus // 2
    a = [[r - modulus if (r := v % modulus) > half else r for v in row] for row in mat]
    diag: list[int] = []
    for t in range(rows):
        best = min(
            ((abs(v), i, j) for i in range(t, rows) for j, v in enumerate(a[i][t:], t) if v),
            default=None,
        )
        if best is None:
            diag.extend([0] * (rows - t))
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a[t:]:
                row[t], row[bj] = row[bj], row[t]
        while True:
            swapped = False
            for i in range(t + 1, rows):
                row_i, row_t = a[i], a[t]
                if row_i[t]:
                    q = row_i[t] // row_t[t]
                    if q:
                        row_i[t:] = [
                            r - modulus if (r := (v - q * w) % modulus) > half else r
                            for v, w in zip(row_i[t:], row_t[t:])
                        ]
                    if row_i[t]:
                        # remainder is strictly smaller: promote it to pivot
                        a[t], a[i] = row_i, row_t
                        swapped = True
            if swapped:
                continue
            # column t is clear below the pivot, so a column move changes
            # only row t
            row_t = a[t]
            pivot = row_t[t]
            for j in range(t + 1, cols):
                if row_t[j]:
                    row_t[j] %= pivot
                    if row_t[j]:
                        for row in a[t:]:
                            row[t], row[j] = row[j], row[t]
                        swapped = True
                        break
            if not swapped:
                break
        diag.append(a[t][t])
    chain = divisibility_normalize([math.gcd(d, modulus) for d in diag])
    return chain[:rank] + (0,) * (rows - rank)


def diagonal_model_snf(sizes: Sequence[int], low: int, high: int) -> tuple[int, ...]:
    """Smith chain of the diagonal model of a graded poset's rank sizes:
    sizes[i] - sizes[i-1] entries equal to C(high-i, low-i) for i = 0..low,
    scaled by (high-low)!.  Callers check the window."""
    entries: list[int] = []
    for i in range(low + 1):
        count = sizes[i] - (sizes[i - 1] if i > 0 else 0)
        entries.extend([math.comb(high - i, low - i)] * count)
    scale = math.factorial(high - low)
    return tuple(scale * b for b in divisibility_normalize(entries))
