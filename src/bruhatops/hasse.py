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
N = n(n-1)/2.  Every count pushes sparse rows through the per-rank steps of
the diagram, one step at a time.

One builder, :func:`_step`, makes step k of a diagram from ranks k and k+1
of S_n alone, and each rank is read off the ranks of S_{n-1}
(:func:`permutations._rank`).  :func:`build_hasse` collects every step into
a whole cached diagram, for tests, layer matrices, the ``snf`` suite and
the action suites' direct route, which runs only when their certificates
fail.  The ``hasse`` command, ``sl2``, the action certificates,
``w0-symmetry``, ``macdonald`` and ``path-identities`` read the steps of
:func:`_streamed` instead, made when they are read, so they hold a few
steps at a time: ``hasse`` writes one rank step per piece of output, and
the w0 flip is scanned up to the middle rank only, since S_n is its own
mirror.

The Smith-form theorem for the layer matrices lives here too.  Its
prediction is the diagonal model of the rank sizes of S_n, the Mahonian
numbers, which through Lehmer codes are the rank sizes of the chain product
at the staircase (n-1, ..., 1).
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .chains import _smith_window_report, predicted_um_snf, profile_rank_sizes, staircase
from .permutations import (
    Permutation,
    _one_line,
    _rank,
    length,
    num_inversions_max,
    permutations_by_rank,
    to_string,
    validated,
    w0_times,
)
from .snf import IntMatrix, SparseStep, _mirror_scan, compose_steps, push_rows, snf

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
    triples, sorted, in one :class:`snf.SparseStep`.  Both are tuples in a
    diagram of :func:`build_hasse`, whose words are tuples too, and
    sequences made on demand in one of :func:`_streamed`, whose words are
    the bytes of :func:`permutations._rank`.  The suites and the w0 check
    work on indices alone.
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
            (self.ranks[k][r], self.ranks[k + 1][c], wt)
            for k, step in enumerate(self._steps)
            for r, c, wt in step
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WeightedHasseDiagram(n={self.n}, order={self.order!r}, "
            f"weights={self.weights!r}, {sum(map(len, self._steps))} edges)"
        )


@lru_cache(maxsize=None)
def build_hasse(n: int, order: str, weights: str) -> WeightedHasseDiagram:
    """Construct the full weighted cover diagram of S_n: every rank and every
    step of :func:`_streamed`, collected.

    Raises ValueError on an unknown order/weight tag or an incompatible
    pairing (nabla weights need the weak order; code and chevalley weights
    need the strong order).  Diagrams are cached and shared; treat them as
    read-only.
    """
    g = _streamed(n, order, weights)
    return WeightedHasseDiagram(n, order, weights, permutations_by_rank(n), tuple(g._steps))


class _Lazy:
    """A read-only sequence of ``size`` items, item k made by ``make(k)``
    when it is read; the last item made is kept, so reading it again in a
    row makes it once.  ``made`` totals the lengths of the items made.  An
    index may be negative, and a slice is a lazy sequence of the items it
    picks, each made by this one when read."""

    __slots__ = ("_make", "_size", "_last", "made")

    def __init__(self, make: Callable[[int], Sequence], size: int):
        self._make, self._size, self._last, self.made = make, size, (None, None), 0

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, k: int | slice):
        if isinstance(k, slice):
            picked = range(self._size)[k]
            return _Lazy(lambda j: self[picked[j]], len(picked))
        if not -self._size <= k < self._size:
            raise IndexError(k)
        k %= self._size
        if self._last[0] != k:
            self._last = (k, self._make(k))
            self.made += len(self._last[1])
        return self._last[1]


def _streamed(n: int, order: str, weights) -> WeightedHasseDiagram:
    """The diagram of S_n with its ranks and steps made when they are read,
    step k by :func:`_step` from ranks k and k+1 alone: what the suites and
    the ``hasse`` command read, one or a few steps at a time.  ``weights``
    may also be the pair of strong weight systems ("code", "chevalley"),
    whose two weights :func:`_step` encodes as one int per triple."""
    if order not in ORDERS:
        raise ValueError(f"unknown order: {order!r}")
    for system in (weights,) if isinstance(weights, str) else weights:
        if system not in WEIGHT_SYSTEMS:
            raise ValueError(f"unknown weight system: {system!r}")
        if system not in _COMPATIBLE[order]:
            raise ValueError(f"weight system {system!r} is incompatible with the {order} order")
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    top = num_inversions_max(n)
    ranks = _Lazy(lambda k: _rank(n, k)[0], top + 1)
    return WeightedHasseDiagram(n, order, weights, ranks, _Lazy(lambda k: _step(n, order, weights, k), top))


def _places(n: int) -> list[int]:
    """Place values of the factorial base: (n-1-p)! at 0-based position p."""
    return [math.factorial(n - 1 - p) for p in range(n)]


def _step(n: int, order: str, weights, k: int) -> SparseStep:
    """Step k of the diagram: the covers out of rank k of S_n as sorted
    (row, column, weight) triples, made from ranks k and k+1 alone and
    appended straight into the columns of one :class:`snf.SparseStep`.

    Every vertex is read as its lex index g and full Lehmer code c, whose
    digits are those of g in the factorial base (0-based p below, 1-based
    i < j), so each cover's lex index is integer arithmetic on the code, and
    its column is that index looked up in rank k+1:

    * the weak cover w*s_{p+1} exists iff c_p <= c_{p+1} (w_p < w_{p+1})
      and has lex index g + (c_{p+1} + 1 - c_p)(n-1-p)! + (c_p - c_{p+1})(n-2-p)!;
    * w*t_ij covers w iff w_i < w_j and no w_q with i < q < j lies between
      them; with m = c_j - c_i + #{i < q < j : w_q < w_i} its lex index is
      g + (1 + m)(n-i)! - m(n-j)!, and its code weight is 1 + 2m.

    A cover by s_{p+1} has the larger lex index the smaller p is; a cover
    by t_ij the smaller i is, and for one i the smaller j is.  For the
    strong order ``weights`` may be the pair ("code", "chevalley"), which
    weighs each triple by its pair of weights (1 + 2m, j - i) encoded as the
    one int (1 + 2m) n + (j - i); as 1 <= j - i < n, equal ints are equal
    pairs.
    """
    words, codes, lexes = _rank(n, k)
    at = {h: c for c, h in enumerate(_rank(n, k + 1)[2])}
    place = _places(n)
    code, chevalley = "code" in weights, "chevalley" in weights
    pair = code and chevalley
    out = SparseStep()
    rows, cols, weighs = out.rows.append, out.cols.append, out.weights.append
    if order == "weak":
        # s_{p+1} moves the lex index by place[p] + d (place[p+1] - place[p])
        nabla = weights == "nabla"
        moves = [(p, place[p], place[p + 1] - place[p], p + 1 if nabla else 1) for p in range(n - 2, -1, -1)]
        for r, (c, g) in enumerate(zip(codes, lexes)):
            for p, base, slope, wt in moves:
                d = c[p] - c[p + 1]
                if d <= 0:
                    rows(r)
                    cols(at[g + base + d * slope])
                    weighs(wt)
        return out
    # the triples are made in the reverse of their order: rows descending,
    # and i then j ascending within a row; the three columns are reversed
    # at the end
    for r in range(len(words) - 1, -1, -1):
        w, c, g = words[r], codes[r], lexes[r]
        # for each i the scan over j > i keeps the smallest value above w_i
        # seen so far (bound) and the count of values below w_i (below)
        for i in range(n - 1):
            a, ci, at_i = w[i], c[i], place[i]
            bound, below = n + 1, 0
            for j in range(i + 1, n):
                b = w[j]
                if b < a:
                    below += 1
                elif b < bound:
                    bound = b
                    m = c[j] - ci + below
                    rows(r)
                    cols(at[g + (1 + m) * at_i - m * place[j]])
                    weighs((1 + 2 * m) * n + j - i if pair else 1 + 2 * m if code else j - i if chevalley else 1)
                    if b == a + 1:
                        break
    out.rows.reverse()
    out.cols.reverse()
    out.weights.reverse()
    return out


def weighted_path_count(g: WeightedHasseDiagram, u: Permutation, v: Permutation) -> int:
    """Sum over saturated chains u = x_0 < x_1 < ... < x_m = v of the
    product of edge weights; 0 when v is not reachable, 1 when u = v.  Each
    endpoint is looked up in the stratum of its length, as a word of that
    stratum's type; ValueError unless both are permutations of S_n."""
    at = []
    for w in (u, v):
        w = validated(w)
        if len(w) != g.n:
            raise ValueError(f"not a vertex of this diagram: {to_string(w)}")
        k = length(w)
        stratum = g.ranks[k]
        at.append((k, stratum.index(type(stratum[0])(w))))
    (ku, iu), (kv, iv) = at
    if ku > kv:
        return 0
    (row,) = push_rows([{iu: 1}], g._steps[ku:kv])
    return row.get(iv, 0)


def _sweep(steps: Sequence[SparseStep], up: bool) -> Iterator[dict[int, int]]:
    """Weighted path counts from the identity to every vertex of rank k for
    k = 0..N (``up``), or from every vertex of rank k to the longest element
    for k = N..0: the unit row of the bottom pushed up through the steps one
    at a time, or the unit row of the top pushed down through them.  Each
    row maps the index of a vertex within its rank to its count; an index
    that is absent counts 0.  One row needs no index of a step by row, as
    :func:`snf.push_rows` builds, and the down sweep reads each triple by
    its column, so no flipped copy of a step is made."""
    row: dict[int, int] = {0: 1}
    yield row
    for k in range(len(steps)) if up else range(len(steps) - 1, -1, -1):
        pushed: dict[int, int] = {}
        if up:
            for r, c, w in steps[k]:
                if r in row:
                    pushed[c] = pushed.get(c, 0) + row[r] * w
        else:
            for r, c, w in steps[k]:
                if c in row:
                    pushed[r] = pushed.get(r, 0) + row[c] * w
        row = pushed
        yield row


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
    and lays rank k onto rank top - k backwards: :func:`snf._mirror_scan` of
    the steps onto themselves, named by permutations.  Returns (True, None)
    or (False, first counterexample).  Raises ValueError unless ``g.ranks``
    are the lex strata of :func:`permutations_by_rank`, as the flip needs.
    """
    if g.ranks != permutations_by_rank(g.n):
        raise ValueError("the w0 check needs the diagram's ranks to be the lex strata of S_n")
    return _mirror_witness(g, _mirror_scan(g._steps, g._steps, [len(stratum) for stratum in g.ranks]))


def _mirror_witness(g: WeightedHasseDiagram, failure) -> tuple[bool, dict | None]:
    """The result of a mirror scan of ``g``'s steps, named by permutations."""
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
    diagrams of S_n; ``checked`` counts their edges.

    Each order is scanned once, up to the middle rank, with its steps made
    on demand, so each step is built once and at most two are alive: the
    strong steps carry the pair of their code and chevalley weights as one
    int per triple, which mirrors iff both weights do.  Only when a scan
    fails is each of its weight systems scanned again on its own, for that
    system's witness.
    """
    sizes = mahonian_numbers(n)
    failures = []
    checked = 0
    for order, systems in (("weak", ("nabla",)), ("strong", ("code", "chevalley"))):
        steps = _streamed(n, order, systems if len(systems) > 1 else systems[0])._steps
        if _mirror_scan(steps, steps, sizes) is None:
            checked += len(systems) * steps.made
            continue
        for weights in systems:
            g = _streamed(n, order, weights)
            checked += sum(map(len, g._steps))
            ok, witness = _mirror_witness(g, _mirror_scan(g._steps, g._steps, sizes))
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


def diagram_to_json(g: WeightedHasseDiagram) -> dict:
    """JSON-ready dict; weights are decimal strings."""
    name = {w: to_string(w) for stratum in g.ranks for w in stratum}
    return {
        "n": g.n,
        "order": g.order,
        "weights": g.weights,
        "ranks": [[name[w] for w in stratum] for stratum in g.ranks],
        "edges": [[name[src], name[dst], str(wt)] for src, dst, wt in g.edges],
    }


# one edge of each output format, from the names of its ends and its weight
_EDGE = {
    "json": '    [\n      "{}",\n      "{}",\n      "{}"\n    ]',
    "dot": '  "{}" -> "{}" [label="{}"];',
    "table": "{} -> {}  weight {}",
}


def _chunks(g: WeightedHasseDiagram, fmt: str) -> Iterator[str]:
    """The ``hasse`` command's output of ``g`` in ``fmt`` ("json", "dot" or
    "table"), in pieces: the edges of one rank step per piece.  So with the
    ranks and steps of :func:`_streamed` no document, edge list or string of
    the whole text is held, only the names of the vertices.  The json text
    is ``json.dumps(diagram_to_json(g), indent=2)`` and a newline; names are
    digits and commas, which need no escapes."""
    names = [[_one_line(w) for w in stratum] for stratum in g.ranks]
    if fmt == "json":
        head = json.dumps({"n": g.n, "order": g.order, "weights": g.weights}, indent=2)
        yield head[: -len("\n}")] + ',\n  "ranks": ['
        for k, stratum in enumerate(names):
            members = ",\n".join(f'      "{s}"' for s in stratum)
            yield ("\n" if k == 0 else ",\n") + f"    [\n{members}\n    ]"
        yield '\n  ],\n  "edges": ['
    elif fmt == "dot":
        yield f'digraph "{g.order}_{g.weights}_S{g.n}" {{\n  rankdir=BT;\n  node [shape=plaintext];\n'
    else:
        yield f"# S_{g.n}, {g.order} order, {g.weights} weights\n"
    edge, sep = _EDGE[fmt], "\n"
    for k, step in enumerate(g._steps):
        if step:
            lines = (edge.format(names[k][r], names[k + 1][c], wt) for r, c, wt in step)
            if fmt == "json":
                yield sep + ",\n".join(lines)
                sep = ",\n"
            else:
                yield "\n".join(lines) + "\n"
    if fmt == "json":
        yield "]\n}\n" if sep == "\n" else "\n  ]\n}\n"
    elif fmt == "dot":
        for stratum in names:
            yield "  { rank=same; " + "; ".join(f'"{s}"' for s in stratum) + "; }\n"
        yield "}\n"


def diagram_to_dot(g: WeightedHasseDiagram) -> str:
    """Graphviz source: vertices by one-line notation, edges labeled by
    weight, each rank pinned to its own level."""
    return "".join(_chunks(g, "dot"))
