"""
Layer matrices of the raising/lowering differential operators, and the
verification suites tying them to the weighted Bruhat orders.

All layer matrices follow one convention: rows are indexed by the LOWER
rank, columns by the UPPER rank (lex order on permutations, lex-descending
on monomial exponents), and the entry at (x, y) is the coefficient tying x
to y across the composite, regardless of the direction the operator moves.
The action suites check that the raising and lowering operators' single
steps in the padded Schubert basis are the code-weighted strong-order and
index-weighted weak-order steps; sl2 checks those two diagrams' duality.
Each ``verify_*`` suite returns its finished report on all of S_n, and the
CLI runs it as one job.

The action suites prove their identities from diagram scans, with no
Schubert polynomial beyond x^rho and its n - 1 divided differences.

* nabla.  nabla acts on the x-part as sum_j d/dx_j, which commutes with
  every divided difference d_i, and S_w = d_i S_{s_i w} for a left ascent
  i of w (value i before i+1).  If nabla S_{s_i w} = sum c(v) S_v over the
  weighted lower covers v of s_i w, then nabla S_w = sum c(v) S_{s_i v}
  over those v with s_i v < v.
  So the weak/nabla identity holds on all of S_n once it holds at w0,
  where S_{w0} = x^rho, and once the lower covers of every other w are
  those of s_i w moved so, weights included: :func:`_nabla_certificate`.
* delta.  Write D, V for the strong/code and weak/nabla steps, Delta_S and
  nabla_S for the operators in the Schubert basis, and H = 2k - N on rank
  k.  :func:`commutator_check` gives [D, V] = H.  On x^alpha y^(rho - alpha),
  [x_i d/dy_i, y_i d/dx_i] = x_i d/dx_i - y_i d/dy_i acts by alpha_i -
  (rho_i - alpha_i), and terms with different i commute, so [Delta, nabla]
  = 2|alpha| - N = H on the monomials (Fulton-Harris, *Representation
  Theory*, GTM 129, Lecture 11), hence on the Schubert basis (the S_w form
  a basis: Macdonald, *Notes on Schubert polynomials*, 1991); the nabla
  certificate gives nabla_S = V.  So X = Delta_S - D has [X, V] = 0 and
  weight +2 under the sl2-triple (D, V, H) acting on End(Q^{S_n}) by ad:
  a lowest-weight vector of positive weight in a finite-dimensional
  sl2-module, which is 0 (Humphreys, GTM 9, section 7).  So Delta_S = D.

When every hypothesis holds the report is read off the scans that prove it.
A failing hypothesis, or a strong step whose places do not rise strictly or
that weighs 0, sends the suite down the direct route: every Schubert
polynomial pushed through the monomial step and peeled back into the basis
(:func:`_action_report`), which names each failing permutation.
"""

from __future__ import annotations

import math

from .chains import _dm_step, _um_step, staircase
from .hasse import _Lazy, _streamed, _sweep, build_hasse, mahonian_numbers, rank_size
from .permutations import (
    _left_ascent,
    _rank,
    _swap,
    num_inversions_max,
    permutations_of_rank,
    to_string,
)
from .schubert import (
    IntPolynomial,
    _peel,
    _schubert_table,
    _specialization_table,
    apply_nabla,
    divided_difference,
    monomials_of_rank,
    pad,
    unpad,
)
from .snf import IntMatrix, SparseStep, _flipped, _sl2_scan, compose_steps, push_rows

__all__ = [
    "differential_layer_matrix",
    "verify_nabla_theorem",
    "verify_delta_theorem",
    "commutator_check",
    "verify_sl2",
    "verify_path_identities",
    "verify_macdonald",
    "nabla_action_chunk",
    "delta_action_chunk",
    "path_identities_chunk",
    "macdonald_chunk",
]

def differential_layer_matrix(operator: str, n: int, low: int, high: int) -> IntMatrix:
    """Matrix of the (high - low)-fold composite of ``operator`` ("nabla" or
    "delta") between two ranks of the padded Schubert basis of S_n.

    Rows = rank ``low`` basis elements, columns = rank ``high``; equal ranks
    give the identity.  It is the product of the single steps of
    :func:`_padded_step`.
    """
    if operator not in ("nabla", "delta"):
        raise ValueError(f"unknown operator: {operator!r}")
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    top = num_inversions_max(n)
    if not 0 <= low <= high <= top:
        raise ValueError(f"need 0 <= l <= l' <= {top}, got ({low}, {high})")
    steps = [_padded_step(operator, n, k) for k in range(low, high)]
    return compose_steps(steps, rank_size(n, low), rank_size(n, high))


def _padded_step(operator: str, n: int, k: int) -> SparseStep:
    """Single step rank k -> k+1 in the padded Schubert basis, as sparse
    triples (rows = rank k).  Each basis polynomial of the rank the operator
    leaves is pushed through the one monomial step and its image peeled back
    into the basis: raising goes up from rank k, lowering down from k + 1."""
    up = operator == "delta"
    box = staircase(n)
    src, dst = (k, k + 1) if up else (k + 1, k)
    step = _dm_step(box, k) if up else _flipped(_um_step(box, k))
    src_index = {alpha: i for i, alpha in enumerate(monomials_of_rank(n, src))}
    dst_monos = monomials_of_rank(n, dst)
    dst_index = {w: j for j, w in enumerate(permutations_of_rank(n, dst))}
    table = _schubert_table(n)
    rows = [
        {src_index[alpha]: c for alpha, c in table[w].terms.items()}
        for w in permutations_of_rank(n, src)
    ]
    out = SparseStep()
    for i, row in enumerate(push_rows(rows, [step])):
        for w, c in _peel(n, {dst_monos[t]: v for t, v in row.items() if v}).items():
            if up:
                out.append(i, dst_index[w], c)
            else:
                out.append(dst_index[w], i, c)
    return out


def _action_report(operator: str, n: int) -> dict:
    """The action suite's report by the direct route, as one equality of
    single steps per rank k: the row of each w of rank k in the padded delta
    step k against its row in step k of strong/code, or its column in the
    padded nabla step k - 1 against its column in that of weak/nabla.
    Failures follow the ranks, each in lex order."""
    up = operator == "delta"
    g = build_hasse(n, "strong", "code") if up else build_hasse(n, "weak", "nabla")
    checked, unit_reading_ok, failures = 0, True, []
    for k, stratum in enumerate(g.ranks):
        s = k if up else k - 1
        want, got = {}, {}  # index of w in rank k -> {cover of w: weight}
        if 0 <= s < g.top_rank:
            other = g.ranks[s + 1] if up else g.ranks[s]
            for reading, step in ((want, g._steps[s]), (got, _padded_step(operator, n, s))):
                for i, j, wt in step if up else _flipped(step):
                    reading.setdefault(i, {})[other[j]] = wt
        for i, w in enumerate(stratum):
            expected, actual = want.get(i, {}), got.get(i, {})
            checked += len(expected)
            unit_reading_ok = unit_reading_ok and all(c == 1 for c in actual.values())
            if actual != expected:
                failures.append(
                    {
                        "witness": to_string(w),
                        "expected": {to_string(u): str(c) for u, c in sorted(expected.items())},
                        "actual": {to_string(u): str(c) for u, c in sorted(actual.items())},
                    }
                )
    return _report(operator, n, unit_reading_ok, checked, failures)


def _report(operator: str, n: int, unit_reading_ok: bool, checked: int, failures: list) -> dict:
    """The action suite's report, shared by both routes."""
    report: dict = {"suite": f"{operator}-action", "n": n}
    if operator == "nabla":
        report["weight_convention"] = "cover by s_i carries coefficient i"
        report["unit_weight_reading_consistent"] = unit_reading_ok
    return {**report, "checked": checked, "failures": failures}


def _nabla_certificate(n: int) -> tuple[bool, dict | tuple[int, bool]]:
    """The nabla half of the module docstring, on the weak/nabla steps made
    on demand, two ranks at a time: (b) for every w below w0 and its least
    left ascent i, the weighted lower covers of w are those v of s_i w with
    s_i v < v, moved to s_i v; (a) nabla x^rho is the weighted sum of d_i
    x^rho over the lower covers s_i w0 of w0.  Every triple is read into
    the lower covers of its upper end, and a repeated place or a zero
    weight fails, so every weight is compared once.

    Returns (True, (triples read, all weights 1)) or (False, witness): the
    rank and the entry of a bad triple, the rank, permutation and ascent of
    a failing (b), or the two sides of a failing (a).
    """
    g, unit = _streamed(n, "weak", "nabla"), True
    below: dict[bytes, dict[bytes, int]] = {g.ranks[0][0]: {}}
    for k in range(g.top_rank):
        lower, upper = g.ranks[k], g.ranks[k + 1]
        above: dict[bytes, dict[bytes, int]] = {w: {} for w in upper}
        for r, c, wt in g._steps[k]:
            covers, v = above[upper[c]], lower[r]
            if not wt or v in covers:
                return False, {"rank": k, "entry": [r, c], "weight": str(wt)}
            covers[v] = wt
            unit = unit and wt == 1
        for w in lower:
            i = _left_ascent(w)
            moved = {_swap(v, i): wt for v, wt in above[_swap(w, i)].items() if v.index(i + 1) < v.index(i)}
            if below[w] != moved:
                return False, {"rank": k, "permutation": to_string(w), "ascent": i}
        below = above
    (covers,) = below.values()
    rho = IntPolynomial.monomial(n, staircase(n))
    got = IntPolynomial.zero(n)
    for v, wt in covers.items():
        got += divided_difference(_left_ascent(v), rho).scaled(wt)
    want = unpad(apply_nabla(pad(rho)))
    if got != want:
        return False, {"rank": g.top_rank, "expected": str(want), "actual": str(got)}
    return True, (g._steps.made, unit)


def verify_nabla_theorem(n: int) -> dict:
    """nabla of every padded Schubert polynomial against the index-weighted
    weak-order covers going down: read off the triples that
    :func:`_nabla_certificate` reads when it holds, else by the direct route.

    Also records whether the weight-free reading (all coefficients 1) would
    survive; it fails as soon as a cover by s_i with i >= 2 appears.
    """
    ok, read = _nabla_certificate(n)
    return _report("nabla", n, read[1], read[0], []) if ok else _action_report("nabla", n)


def verify_delta_theorem(n: int) -> dict:
    """delta of every padded Schubert polynomial against the code-weighted
    strong-order covers going up: read off the strong steps as the sl2 scan
    of :func:`commutator_check` makes them, when it and the nabla certificate
    hold (the module docstring cites [Delta, nabla] = 2k - N) and the places
    of each step rise strictly, as :func:`hasse._step` makes them, with no
    weight 0; else by the direct route."""
    strong, rising = _streamed(n, "strong", "code")._steps, True

    def checked(k: int) -> SparseStep:
        nonlocal rising
        step, last = strong[k], (-1, -1)
        for r, c, wt in step:
            if not wt or (r, c) <= last:
                rising = False
            last = (r, c)
        return step

    scanned, weak = _Lazy(checked, len(strong)), _streamed(n, "weak", "nabla")._steps
    proved = _nabla_certificate(n)[0] and _sl2_scan(scanned, weak, mahonian_numbers(n))[0] and rising
    return _report("delta", n, True, strong.made, []) if proved else _action_report("delta", n)


def commutator_check(n: int) -> tuple[bool, dict | None]:
    """The duality of the strong/code and weak/nabla diagrams in the sl2
    form of dual graded graphs: D_{k-1}^T V_{k-1} - V_k D_k^T = (2k - N) I
    on rank k, with D_k and V_k their steps out of rank k (rows = rank k).
    The action suites equate these steps with the padded Schubert steps of
    delta and nabla, so with them this is [delta, nabla] = 2k - N.

    Returns (True, None) or (False, witness) naming the first failing rank,
    the entry (row, column) in lex order of its permutations, and the
    expected and actual values.
    """
    strong = _streamed(n, "strong", "code")._steps
    weak = _streamed(n, "weak", "nabla")._steps
    return _sl2_scan(strong, weak, mahonian_numbers(n))


def verify_sl2(n: int) -> dict:
    """The sl2 duality of the two weighted diagrams on every rank of S_n."""
    ok, witness = commutator_check(n)
    return {
        "suite": "sl2",
        "n": n,
        "checked": num_inversions_max(n) + 1,
        "failures": [] if ok else [{"witness": "commutator", **witness}],
    }


# the four path counts of u of length l, in report order
_PATH_LABELS = (
    "raising count u to top over (N-l)!",
    "lowering count bottom to u over l!",
    "raising count bottom to w0*u over (N-l)!",
    "lowering count w0*u to top over l!",
)


def verify_path_identities(n: int) -> dict:
    """All four weighted path counts against the principal specialization,
    for every permutation of S_n.  The four counts of u of length l are
    compared, divisions cross-multiplied, with (N-l)! or l! times S_u(1)
    from the integer transition recursion
    :func:`schubert._specialization_table`; no polynomial is built.

    The strong/code and weak/nabla steps are made on demand and swept up
    together, then down together, by :func:`hasse._sweep`, so a few steps
    and the rows of one rank are held at a time, beside S_u(1) for all u.
    Rank k of a sweep holds the counts of the u of rank k and, since w0*u
    of rank N-l sits at the mirrored index, those of the w0*u for the u of
    rank N-k.  Failures come in the order of u and then of the labels.
    """
    top = num_inversions_max(n)
    spec = list(_specialization_table(n))
    steps = [_streamed(n, order, weights)._steps for order, weights in (("strong", "code"), ("weak", "nabla"))]
    found = []  # (rank of u, index of u, label, expected, actual)

    def check(k: int, row: dict[int, int], label: int, fact: int, mirrored: bool) -> None:
        last = len(spec[k]) - 1
        for i, value in enumerate(spec[k]):
            count = row.get(last - i if mirrored else i, 0)
            if count != value * fact:
                found.append((k, i, label, value * fact, count))

    for k, (strong, weak) in enumerate(zip(*(_sweep(s, up=True) for s in steps))):
        check(k, weak, 1, math.factorial(k), False)
        check(top - k, strong, 2, math.factorial(k), True)
    for k, (strong, weak) in zip(range(top, -1, -1), zip(*(_sweep(s, up=False) for s in steps))):
        check(k, strong, 0, math.factorial(top - k), False)
        check(top - k, weak, 3, math.factorial(top - k), True)
    failures = [
        {
            "witness": f"{to_string(_rank(n, k)[0][i])}: {_PATH_LABELS[label]}",
            "expected": str(expected),
            "actual": str(actual),
        }
        for k, i, label, expected, actual in sorted(found)
    ]
    total = math.factorial(n)
    return {
        "suite": "path-identities",
        "n": n,
        "permutations": total,
        "checked": 4 * total,
        "failures": failures,
    }


def verify_macdonald(n: int) -> dict:
    """Weighted chain count from the identity equals l(u)! times the
    principal specialization of the Schubert polynomial, for every u, rank
    by rank: the up sweep of the weak/nabla steps, made on demand, beside
    S_u(1) from the integer transition recursion
    :func:`schubert._specialization_table`; no polynomial is built."""
    failures = []
    sweep = _sweep(_streamed(n, "weak", "nabla")._steps, up=True)
    for k, (row, values) in enumerate(zip(sweep, _specialization_table(n))):
        fact = math.factorial(k)
        for i, value in enumerate(values):
            count = row.get(i, 0)
            if count != fact * value:
                u = _rank(n, k)[0][i]
                failures.append({"witness": to_string(u), "expected": str(fact * value), "actual": str(count)})
    return {"suite": "macdonald", "n": n, "checked": math.factorial(n), "failures": failures}


# perfbench/tracer.py spans the suites under these names; they are the same
# function objects, so its wrapper replaces both bindings
nabla_action_chunk = verify_nabla_theorem
delta_action_chunk = verify_delta_theorem
path_identities_chunk = verify_path_identities
macdonald_chunk = verify_macdonald
