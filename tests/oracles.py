"""Independent oracles shared by several test modules: the ranks of S_n by
brute force, dense integer matrix products, Smith invariants from gcds of
minors or by pairwise (gcd, lcm) swaps on a diagonal, and the dense change
of basis into padded Schubert polynomials.  The
package never calls them; the tests compare its fast routes against them at
small sizes."""

import itertools
import math
from functools import lru_cache

from bruhatops.permutations import length, num_inversions_max, permutations_of_rank
from bruhatops.schubert import monomials_of_rank, schubert
from bruhatops.snf import IntMatrix, determinant

# snf_via_minor_gcd enumerates all k x k minors; past this size the count
# explodes combinatorially, so refuse rather than hang.
MINOR_GCD_SIZE_BOUND = 8


def reference_ranks(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """S_n grouped by inversion count, each stratum in lex order."""
    ranks = [[] for _ in range(num_inversions_max(n) + 1)]
    for w in sorted(itertools.permutations(range(1, n + 1))):
        ranks[length(w)].append(w)
    return tuple(map(tuple, ranks))


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


def divisibility_normalize_by_swaps(diag) -> tuple[int, ...]:
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


def snf_via_minor_gcd(mat: IntMatrix) -> tuple[int, ...]:
    """Smith invariants via determinantal divisors.

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


@lru_cache(maxsize=None)
def basis_matrix(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Rank-k change of basis: rows = permutations of length k (lex), columns
    = staircase monomials of rank k (lex-descending); entry = coefficient of
    the monomial in the padded Schubert polynomial.  Unimodular."""
    perms = permutations_of_rank(n, k)
    monos = monomials_of_rank(n, k)
    col = {alpha: idx for idx, alpha in enumerate(monos)}
    rows = []
    for w in perms:
        vec = [0] * len(monos)
        for alpha, c in schubert(w).terms.items():
            vec[col[alpha]] = c
        rows.append(tuple(vec))
    return tuple(rows)
