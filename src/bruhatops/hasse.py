"""
Weak and strong Bruhat orders on S_n as weighted, rank-stratified Hasse
diagrams, with exact weighted path counting.

Three nontrivial weight systems on cover edges:

* ``nabla``  (weak order):   the cover w -> w*s_i carries weight i;
* ``code``   (strong order): the cover w -> w*t_ij carries the Manhattan
  distance between the Lehmer codes of its endpoints (always odd);
* ``chevalley`` (strong order): the cover by t_ij carries weight j - i;

plus ``unit`` weights on either order.  The weighted count m(u, v) sums the
product of edge weights over all saturated chains from u to v; with every
system above, the count from the identity to the longest element is N! for
N = n(n-1)/2.  Every count is a sweep of sparse rows through the per-rank
steps of the diagram with :func:`snf.push_rows`.

The Smith-form theorem for the layer matrices lives here too.  Its
prediction is the diagonal model of the rank sizes of S_n, the Mahonian
numbers, which through Lehmer codes are the rank sizes of the chain product
at the staircase (n-1, ..., 1).
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import Iterator

from .chains import _smith_window_report, predicted_um_snf, profile_rank_sizes, staircase
from .permutations import (
    Permutation,
    _lex_codes,
    _rank_index,
    length,
    num_inversions_max,
    permutations_by_rank,
    to_string,
    validated,
    w0_times,
)
from .snf import IntMatrix, SparseStep, _flipped, _mirror_scan, compose_steps, push_rows, snf

__all__ = [
    "WeightedHasseDiagram",
    "nabla_weight",
    "code_weight",
    "chevalley_weight",
    "build_hasse",
    "weighted_path_count",
    "layer_matrix",
    "w0_symmetry_check",
    "verify_w0_symmetry",
    "mahonian_numbers",
    "rank_size",
    "predicted_snf",
    "verify_snf_theorem",
    "diagram_to_json",
    "diagram_to_dot",
    "ORDERS",
    "WEIGHT_SYSTEMS",
]

ORDERS = ("weak", "strong")
WEIGHT_SYSTEMS = ("nabla", "code", "chevalley", "unit")
_COMPATIBLE = {"weak": {"nabla", "unit"}, "strong": {"code", "chevalley", "unit"}}


def nabla_weight(w: Permutation, i: int) -> int:
    """Weight of the weak cover w -> w*s_i: the simple index i itself."""
    word = validated(w)
    if not 1 <= i <= len(word) - 1:
        raise ValueError(f"simple index out of range: {i}")
    if word[i - 1] > word[i]:
        raise ValueError(f"{to_string(word)} -> {to_string(word)}*s_{i} is not a cover")
    return i


def code_weight(w: Permutation, i: int, j: int) -> int:
    """Weight of the strong cover w -> w*t_ij: Manhattan distance of codes.

    The two Lehmer codes differ only at the swap positions: code_i rises by
    1 + m and code_j falls by m, where m counts the positions q > j with
    w_i < w_q < w_j.  So the distance is 1 + 2m, a positive odd number.
    """
    word = validated(w)
    if not 1 <= i < j <= len(word):
        raise ValueError(f"transposition indices out of range: ({i}, {j})")
    a, b = word[i - 1], word[j - 1]
    if a > b or any(a < v < b for v in word[i : j - 1]):
        upper = word[: i - 1] + (b,) + word[i : j - 1] + (a,) + word[j:]
        raise ValueError(f"{to_string(word)} -> {to_string(upper)} is not a strong cover")
    return 1 + 2 * sum(1 for v in word[j:] if a < v < b)


def chevalley_weight(i: int, j: int) -> int:
    """Chevalley weight of a cover by the transposition t_ij: j - i."""
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got ({i}, {j})")
    return j - i


class WeightedHasseDiagram:
    """A rank-stratified weighted cover graph; immutable after construction.

    ``ranks[k]`` lists the permutations of length k in lex order; ``_steps[k]``
    holds the covers out of rank k as (lower index, upper index, weight)
    triples, sorted.  The suites and the w0 check work on indices alone.
    """

    __slots__ = ("n", "order", "weights", "ranks", "_steps")

    def __init__(
        self,
        n: int,
        order: str,
        weights: str,
        ranks: tuple[tuple[Permutation, ...], ...],
        steps: tuple[SparseStep, ...],
    ):
        self.n = n
        self.order = order
        self.weights = weights
        self.ranks = ranks
        self._steps = steps

    @property
    def top_rank(self) -> int:
        return len(self.ranks) - 1

    @property
    def edges(self) -> tuple[tuple[Permutation, Permutation, int], ...]:
        """(lower, upper, weight) triples in (rank, lower, upper) order, derived
        from the steps on each call, for output."""
        return tuple(
            (low[r], high[c], wt)
            for low, high, step in zip(self.ranks, self.ranks[1:], self._steps)
            for r, c, wt in step
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WeightedHasseDiagram(n={self.n}, order={self.order!r}, "
            f"weights={self.weights!r}, {sum(map(len, self._steps))} edges)"
        )


@lru_cache(maxsize=None)
def build_hasse(n: int, order: str, weights: str) -> WeightedHasseDiagram:
    """Construct the full weighted cover diagram of S_n.

    Every vertex is read as its lex index g and Lehmer code c, whose digits
    are those of g in the factorial base (0-based p below, 1-based i < j), so
    each cover's index is integer arithmetic on the code:

    * the weak cover w*s_{p+1} (where w_p < w_{p+1}) has lex index
      g + (c_{p+1} + 1 - c_p)(n-1-p)! + (c_p - c_{p+1})(n-2-p)!;
    * w*t_ij covers w iff w_i < w_j and no w_q with i < q < j lies between
      them; with m = c_j - c_i + #{i < q < j : w_q < w_i} its lex index is
      g + (1 + m)(n-i)! - m(n-j)!, and its code weight is 1 + 2m.

    Raises ValueError on an unknown order/weight tag or an incompatible
    pairing (nabla weights need the weak order; code and chevalley weights
    need the strong order).  Diagrams are cached and shared; treat them as
    read-only.
    """
    if order not in ORDERS:
        raise ValueError(f"unknown order: {order!r}")
    if weights not in WEIGHT_SYSTEMS:
        raise ValueError(f"unknown weight system: {weights!r}")
    if weights not in _COMPATIBLE[order]:
        raise ValueError(f"weight system {weights!r} is incompatible with the {order} order")
    ranks = permutations_by_rank(n)
    covers = _weak_covers if order == "weak" else _strong_covers
    steps: list = [[] for _ in ranks[1:]]
    for k, row in covers(n, weights, _rank_index(n)):
        if row:
            steps[k] += row
    for k, step in enumerate(steps):
        steps[k] = tuple(step)  # frees each list as its tuple is made
    return WeightedHasseDiagram(n, order, weights, ranks, tuple(steps))


def _places(n: int) -> list[int]:
    """Place values of the factorial base: (n-1-p)! at 0-based position p."""
    return [math.factorial(n - 1 - p) for p in range(n)]


def _weak_covers(n: int, weights: str, at: list[int]) -> Iterator[tuple[int, list]]:
    """Rank and sorted (row, column, weight) triples of the weak covers out
    of each vertex, in lex order; ``at`` is :func:`_rank_index` of n.  The
    cover by s_{p+1} has the larger lex index the smaller p is."""
    place = _places(n)
    nabla = weights == "nabla"
    for g, (w, c) in enumerate(_lex_codes(n)):
        r = at[g]
        row = []
        for p in range(n - 2, -1, -1):
            if w[p] < w[p + 1]:
                d = c[p] - c[p + 1]
                h = g + (1 - d) * place[p] + d * place[p + 1]
                row.append((r, at[h], p + 1 if nabla else 1))
        yield sum(c), row


def _strong_covers(n: int, weights: str, at: list[int]) -> Iterator[tuple[int, list]]:
    """Rank and sorted (row, column, weight) triples of the strong covers
    out of each vertex, in lex order; ``at`` is :func:`_rank_index` of n.

    For each i the scan over j > i keeps the smallest value above w_i seen
    so far (``bound``) and the count of values below w_i (``below``).  The
    covers by t_ij have the larger lex index the smaller i is, and for one
    i the smaller j is (w_j, the new entry at i, is larger)."""
    place = _places(n)
    code, chevalley = weights == "code", weights == "chevalley"
    for g, (w, c) in enumerate(_lex_codes(n)):
        r = at[g]
        row = []
        for i in range(n - 2, -1, -1):
            a, ci = w[i], c[i]
            bound, below, found = n + 1, 0, []
            for j in range(i + 1, n):
                b = w[j]
                if b < a:
                    below += 1
                elif b < bound:
                    bound = b
                    m = c[j] - ci + below
                    wt = 1 + 2 * m if code else j - i if chevalley else 1
                    found.append((r, at[g + (1 + m) * place[i] - m * place[j]], wt))
                    if b == a + 1:
                        break
            row += reversed(found)
        yield sum(c), row


def weighted_path_count(g: WeightedHasseDiagram, u: Permutation, v: Permutation) -> int:
    """Sum over saturated chains u = x_0 < x_1 < ... < x_m = v of the
    product of edge weights; 0 when v is not reachable, 1 when u = v.  Each
    endpoint is looked up in the stratum of its length; ValueError unless
    both are permutations of S_n."""
    at = []
    for w in (u, v):
        w = validated(w)
        if len(w) != g.n:
            raise ValueError(f"not a vertex of this diagram: {to_string(w)}")
        k = length(w)
        at.append((k, g.ranks[k].index(w)))
    (ku, iu), (kv, iv) = at
    if ku > kv:
        return 0
    (row,) = push_rows([{iu: 1}], g._steps[ku:kv])
    return row.get(iv, 0)


def _sweep(g: WeightedHasseDiagram, up: bool) -> dict[Permutation, int]:
    """Weighted path counts from the identity to every vertex (``up``), or
    from every vertex to the longest element: the unit row of the bottom
    pushed up through the steps one rank at a time, or the unit row of the
    top pushed down through the flipped steps."""
    ranks = g.ranks if up else g.ranks[::-1]
    steps = g._steps if up else [_flipped(step) for step in reversed(g._steps)]
    row: dict[int, int] = {0: 1}
    counts = {ranks[0][0]: 1}
    for step, stratum in zip(steps, ranks[1:]):
        (row,) = push_rows([row], [step])
        counts.update((w, row.get(i, 0)) for i, w in enumerate(stratum))
    return counts


def layer_matrix(g: WeightedHasseDiagram, low: int, high: int) -> IntMatrix:
    """Matrix of weighted path counts between two ranks.

    Rows are indexed by the rank-``low`` permutations, columns by the
    rank-``high`` ones, both in lex order; entry (x, y) is m(x, y).  Equal
    ranks give the identity.  Factorizes through every intermediate rank.
    """
    if not 0 <= low <= high <= g.top_rank:
        raise ValueError(f"need 0 <= l <= l' <= {g.top_rank}, got ({low}, {high})")
    return compose_steps(g._steps[low:high], len(g.ranks[low]), len(g.ranks[high]))


def w0_symmetry_check(g: WeightedHasseDiagram) -> tuple[bool, dict | None]:
    """Check the flip symmetry: (u -> w, c) is an edge iff (w0*w -> w0*u, c) is.

    The code of w0*w is (n-1-c_1, ..., 0), so w0*w has lex index n! - 1 - g
    and lays rank k onto rank top - k backwards: this is
    :func:`snf._mirror_scan` of the steps onto themselves, named by
    permutations.  Returns (True, None) or (False, first counterexample).
    Raises ValueError unless ``g.ranks`` are the lex strata of
    :func:`permutations_by_rank`, which the flip relies on.
    """
    if g.ranks != permutations_by_rank(g.n):
        raise ValueError("the w0 check needs the diagram's ranks to be the lex strata of S_n")
    failure = _mirror_scan(g._steps, g._steps, [len(stratum) for stratum in g.ranks])
    if failure is None:
        return True, None
    k, (r, c, wt), got = failure
    src, dst = g.ranks[k][r], g.ranks[k + 1][c]
    return False, {
        "edge": f"{to_string(src)}->{to_string(dst)}",
        "weight": "missing" if wt is None else str(wt),
        "mirror": f"{to_string(w0_times(dst))}->{to_string(w0_times(src))}",
        "mirror_weight": "missing" if got is None else str(got),
    }


def verify_w0_symmetry(n: int) -> dict:
    """The flip symmetry on the weak/nabla, strong/code and strong/chevalley
    diagrams of S_n; ``checked`` counts their edges.  Each diagram is built
    uncached and dropped after its check, so only one is alive at a time."""
    failures = []
    checked = 0
    for order, weights in (("weak", "nabla"), ("strong", "code"), ("strong", "chevalley")):
        diagram = build_hasse.__wrapped__(n, order, weights)
        checked += sum(map(len, diagram._steps))
        ok, witness = w0_symmetry_check(diagram)
        del diagram
        if not ok:
            failures.append({"witness": f"{order}/{weights}", **witness})
    return {"suite": "w0-symmetry", "n": n, "checked": checked, "failures": failures}


def mahonian_numbers(n: int) -> tuple[int, ...]:
    """Sizes of the length strata of S_n: coefficients of [n]_q!, the rank
    sizes of the chain product at the staircase.

    >>> mahonian_numbers(4)
    (1, 3, 5, 6, 5, 3, 1)
    """
    return profile_rank_sizes(staircase(n))


def rank_size(n: int, k: int) -> int:
    """Number of permutations in S_n with exactly k inversions."""
    sizes = mahonian_numbers(n)
    if not 0 <= k < len(sizes):
        raise ValueError(f"rank out of range for S_{n}: {k}")
    return sizes[k]


def predicted_snf(n: int, low: int, high: int) -> tuple[int, ...]:
    """Predicted Smith invariants for the four rank-(low, high) layer maps:
    the diagonal model of the Mahonian rank sizes of S_n, which are the rank
    sizes of the chain product at the staircase."""
    return predicted_um_snf(staircase(n), low, high)


def verify_snf_theorem(n: int, low: int, high: int) -> dict:
    """Check that all four layer matrices share the predicted Smith form.

    The four: the raising composite over ranks [low, high] and over the
    complementary ranks [N-high, N-low], and the lowering composite over the
    same two windows, all in the padded Schubert basis (equivalently, layer
    matrices of the strong/code-weighted and weak/index-weighted diagrams).
    """
    expected = predicted_snf(n, low, high)
    top = num_inversions_max(n)
    strong = build_hasse(n, "strong", "code")
    weak = build_hasse(n, "weak", "nabla")
    windows = (
        (f"{label}[{a},{b}]", snf(layer_matrix(diagram, a, b)))
        for label, diagram in (("delta", strong), ("nabla", weak))
        for a, b in ((low, high), (top - high, top - low))
    )
    return _smith_window_report({"suite": "snf", "n": n}, low, high, expected, windows)


def _vertex_names(g: WeightedHasseDiagram) -> dict[Permutation, str]:
    """One-line notation of every vertex, formatted once for the emitters."""
    return {w: to_string(w) for stratum in g.ranks for w in stratum}


def diagram_to_json(g: WeightedHasseDiagram) -> dict:
    """JSON-ready dict; weights are decimal strings."""
    name = _vertex_names(g)
    return {
        "n": g.n,
        "order": g.order,
        "weights": g.weights,
        "ranks": [[name[w] for w in stratum] for stratum in g.ranks],
        "edges": [[name[src], name[dst], str(wt)] for src, dst, wt in g.edges],
    }


def _json_chunks(g: WeightedHasseDiagram) -> Iterator[str]:
    """The text of ``json.dumps(diagram_to_json(g), indent=2)`` in pieces:
    the head and the ranks, then the edges of one rank step per piece, so
    that no document and no string of the whole text is ever held."""
    name = _vertex_names(g)
    quoted = {w: json.dumps(text) for w, text in name.items()}
    head = {"n": g.n, "order": g.order, "weights": g.weights}
    head["ranks"] = [[name[w] for w in stratum] for stratum in g.ranks]
    yield json.dumps(head, indent=2)[: -len("\n}")] + ',\n  "edges": ['
    sep = "\n"
    for low, high, step in zip(g.ranks, g.ranks[1:], g._steps):
        if step:
            yield sep + ",\n".join(
                f'    [\n      {quoted[low[r]]},\n      {quoted[high[c]]},\n      "{wt}"\n    ]'
                for r, c, wt in step
            )
            sep = ",\n"
    yield "]\n}" if sep == "\n" else "\n  ]\n}"


def diagram_to_dot(g: WeightedHasseDiagram) -> str:
    """Graphviz source: vertices by one-line notation, edges labeled by
    weight, each rank pinned to its own level."""
    name = _vertex_names(g)
    lines = [
        f'digraph "{g.order}_{g.weights}_S{g.n}" {{',
        "  rankdir=BT;",
        "  node [shape=plaintext];",
    ]
    for src, dst, wt in g.edges:
        lines.append(f'  "{name[src]}" -> "{name[dst]}" [label="{wt}"];')
    for stratum in g.ranks:
        members = "; ".join(f'"{name[w]}"' for w in stratum)
        lines.append(f"  {{ rank=same; {members}; }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
