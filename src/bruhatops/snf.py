"""
Exact integer linear algebra: dense matrices over Python ints, the sparse
step composer, determinants, Smith normal form, and the diagonal model whose
Smith chain the layer-matrix theorems predict.  No other module of the
package is imported here.

Everything here is exact; no floating point anywhere.  A matrix is a plain
list of rows of ints.  A rank step is a sparse list of (row, col, weight)
triples, and every layer matrix of the package is composed from consecutive
steps by :func:`compose_steps`.  Smith invariants are returned as a tuple of
nonnegative integers b_1 | b_2 | ... of length min(rows, cols) -- the
diagonal of the Smith form with the surrounding zero padding trimmed away,
so rank-deficient matrices show trailing zeros.  :func:`snf` eliminates
modulo a nonzero maximal minor found by the Bareiss pass behind
:func:`determinant`, so its entries never outgrow that minor.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

IntMatrix = list[list[int]]
SparseStep = Sequence[tuple[int, int, int]]

__all__ = [
    "IntMatrix",
    "SparseStep",
    "identity_matrix",
    "push_rows",
    "compose_steps",
    "matmul",
    "transpose",
    "determinant",
    "snf",
    "snf_via_minor_gcd",
    "divisibility_normalize",
    "diagonal_model_snf",
    "MINOR_GCD_SIZE_BOUND",
]

# snf_via_minor_gcd enumerates all k x k minors; past this size the count
# explodes combinatorially, so refuse rather than hang.
MINOR_GCD_SIZE_BOUND = 8


def identity_matrix(k: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product; shapes must agree."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in a]
    for i, row in enumerate(a):
        out_i = out[i]
        for k, aik in enumerate(row):
            if aik:
                b_k = b[k]
                for j in range(cols):
                    out_i[j] += aik * b_k[j]
    return out


def transpose(a: IntMatrix) -> IntMatrix:
    return [list(col) for col in zip(*a)] if a else []


def _flipped(step: SparseStep) -> SparseStep:
    """The transposed step: (r, c, w) becomes (c, r, w)."""
    return tuple((c, r, w) for r, c, w in step)


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

    Repeatedly replaces adjacent pairs (a, b) violating a | b with
    (gcd, lcm); both operations are realizable by unimodular row/column
    moves, and the sweep converges to the unique divisibility chain.
    """
    d = [abs(x) for x in diag]
    changed = True
    while changed:
        changed = False
        for i in range(len(d) - 1):
            x, y = d[i], d[i + 1]
            if y == 0 or (x != 0 and y % x == 0):
                continue
            g = math.gcd(x, y)
            d[i], d[i + 1] = g, 0 if g == 0 else x * y // g
            changed = True
    return tuple(d)


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


def snf_via_minor_gcd(mat: IntMatrix) -> tuple[int, ...]:
    """Smith invariants via determinantal divisors; independent oracle.

    d_k = gcd of all k x k minors, b_k = d_k / d_{k-1}.  Exponential in the
    matrix size, hence the hard size bound.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if any(len(row) != cols for row in mat):
        raise ValueError("ragged matrix")
    size = min(rows, cols)
    if size > MINOR_GCD_SIZE_BOUND:
        raise ValueError(
            f"matrix too large for the minor-gcd route: min dim {size} > {MINOR_GCD_SIZE_BOUND}"
        )
    out: list[int] = []
    d_prev = 1
    for k in range(1, size + 1):
        if d_prev == 0:
            out.append(0)
            continue
        g = 0
        done = False
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                sub = [[mat[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, determinant(sub))
                if g == d_prev:
                    # every k-minor is a Z-combination of (k-1)-minors, so
                    # the gcd can never drop below d_{k-1}: stop early
                    done = True
                    break
            if done:
                break
        out.append(0 if g == 0 else g // d_prev)
        d_prev = g
    return tuple(out)


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
