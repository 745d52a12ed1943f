"""
Schubert polynomials via divided differences, their padded (bihomogeneous)
form, and the raising/lowering differential operators acting on the padded
span.

Conventions.  ``schubert(w)`` follows the recursion in which the divided
difference acts by LEFT multiplication: the top polynomial is
x1^{n-1} x2^{n-2} ... x_{n-1}, and for a left descent i of w,
schubert(s_i * w) = N_i(schubert(w)).  The common convention from the
Schubert-calculus literature is obtained through the group inverse,
``schubert_standard(w) = schubert(inverse(w))``; principal specializations
agree between the two conventions.

Padding makes every polynomial bihomogeneous: the monomial x^alpha becomes
x^alpha * y^(rho - alpha) with rho the staircase (n-1, ..., 1).  Storage
stays keyed by alpha alone; the y-exponent is implicit.  On this span the
lowering operator nabla = sum_i y_i d/dx_i sends alpha to alpha - e_i with
coefficient alpha_i, and the raising operator delta = sum_i x_i d/dy_i
sends alpha to alpha + e_i with coefficient rho_i - alpha_i.

Validation.  The public constructors check every exponent vector (length,
sign and, for padded polynomials, the staircase), and so do the two
actions, whose images can leave the staircase.  Sums, scalings and divided
differences are valid by construction and build their results unchecked.

Change of basis.  The lex-least term of ``schubert(w)`` is x^code(w^-1) with
coefficient 1 (Macdonald, *Notes on Schubert polynomials*, 1991;
Billey-Jockusch-Stanley 1993), so the padded Schubert basis is unitriangular
against the staircase monomials.  Expansion into it is exact integer
back-substitution from the lex-least term, with no division.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

from .chains import monomials_of_profile_rank, staircase
from .permutations import (
    Permutation,
    _left_ascent,
    _rank,
    _swap,
    inverse,
    longest_element,
    num_inversions_max,
    permutations_by_rank,
    permutations_of_rank,
    validated,
)

Exponent = tuple[int, ...]

__all__ = [
    "IntPolynomial",
    "PaddedPolynomial",
    "staircase",
    "divided_difference",
    "schubert",
    "schubert_standard",
    "principal_specialization",
    "pad",
    "unpad",
    "apply_nabla",
    "apply_delta",
    "expand_in_padded_schubert_basis",
    "monomials_of_rank",
    "basis_matrix_inverse",
]


def _clean(n: int, items: Iterable[tuple[Exponent, int]]) -> dict[Exponent, int]:
    terms: dict[Exponent, int] = {}
    for alpha, coeff in items:
        key = tuple(alpha)
        if len(key) != n - 1:
            raise ValueError(f"exponent vector of length {len(key)}, expected {n - 1}")
        if any(e < 0 for e in key):
            raise ValueError(f"negative exponent: {key}")
        c = terms.get(key, 0) + coeff
        if c:
            terms[key] = c
        elif key in terms:
            del terms[key]
    return terms


class IntPolynomial:
    """Sparse integer polynomial in x_1..x_{n-1}, keyed by exponent vector.

    Sums, differences and scalings keep the class of their operands; values
    of different classes never compare equal and do not add.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, int] | Iterable[tuple[Exponent, int]] = ()):
        if n < 1:
            raise ValueError(f"n must be positive: {n}")
        self.n = n
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms = _clean(n, items)

    @classmethod
    def _trusted(cls, n: int, terms: dict[Exponent, int]) -> "IntPolynomial":
        """Wrap terms that are valid by construction, without :func:`_clean`:
        n - 1 nonnegative exponents per key, no zero coefficient, and for a
        padded result every key under the staircase."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def zero(cls, n: int) -> "IntPolynomial":
        return cls(n)

    @classmethod
    def monomial(cls, n: int, alpha: Exponent, coeff: int = 1) -> "IntPolynomial":
        return cls(n, [(tuple(alpha), coeff)])

    @classmethod
    def one(cls, n: int) -> "IntPolynomial":
        return cls.monomial(n, (0,) * (n - 1))

    def _binop(self, other: "IntPolynomial", sign: int) -> "IntPolynomial":
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mixed variable counts: {self.n} vs {other.n}")
        merged = dict(self.terms)
        for alpha, c in other.terms.items():
            v = merged.get(alpha, 0) + sign * c
            if v:
                merged[alpha] = v
            elif alpha in merged:
                del merged[alpha]
        return type(self)._trusted(self.n, merged)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self._binop(other, 1)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self._binop(other, -1)

    def scaled(self, c: int) -> "IntPolynomial":
        terms = {a: c * v for a, v in self.terms.items()} if c else {}
        return type(self)._trusted(self.n, terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms, or None if mixed; 0 for zero."""
        degrees = {sum(a) for a in self.terms}
        if not degrees:
            return 0
        if len(degrees) > 1:
            return None
        return degrees.pop()

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __str__(self) -> str:
        return _poly_string(self.sorted_terms(), None)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {dict(self.sorted_terms())!r})"


class PaddedPolynomial(IntPolynomial):
    """Bihomogeneous form: the stored key alpha stands for x^alpha y^(rho-alpha).

    Every exponent vector must fit under the staircase, otherwise the
    implicit y-exponent would go negative.
    """

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping[Exponent, int] | Iterable[tuple[Exponent, int]] = ()):
        super().__init__(n, terms)
        rho = staircase(n)
        for alpha in self.terms:
            if any(a > r for a, r in zip(alpha, rho)):
                raise ValueError(f"exponent {alpha} exceeds the staircase {rho}")

    def x_degree(self) -> int | None:
        """Common |alpha| over all terms (the rank), None if mixed, 0 if zero."""
        return self.homogeneous_degree()

    def __str__(self) -> str:
        return _poly_string(self.sorted_terms(), staircase(self.n))


def _poly_string(terms: list[tuple[Exponent, int]], rho: Exponent | None) -> str:
    if not terms:
        return "0"
    rendered: list[str] = []
    for alpha, coeff in terms:
        parts = []
        for idx, e in enumerate(alpha, start=1):
            if e == 1:
                parts.append(f"x{idx}")
            elif e > 1:
                parts.append(f"x{idx}^{e}")
        if rho is not None:
            for idx, (e, cap) in enumerate(zip(alpha, rho), start=1):
                b = cap - e
                if b == 1:
                    parts.append(f"y{idx}")
                elif b > 1:
                    parts.append(f"y{idx}^{b}")
        mag = abs(coeff)
        if not parts:
            body = str(mag)
        elif mag == 1:
            body = "*".join(parts)
        else:
            body = f"{mag}*" + "*".join(parts)
        rendered.append(("- " if coeff < 0 else "+ ") + body)
    first = rendered[0]
    out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
    for piece in rendered[1:]:
        out += " " + piece
    return out


def divided_difference(i: int, p: IntPolynomial) -> IntPolynomial:
    """Newton divided difference N_i(p) = (p - s_i(p)) / (x_i - x_{i+1}).

    Term by term in closed form (Macdonald, *Notes on Schubert polynomials*,
    1991, ch. II): with a and b the exponents of x_i and x_{i+1}, the
    monomial x_i^a x_{i+1}^b maps to the sum of x_i^(a-1-k) x_{i+1}^(b+k)
    over 0 <= k < a - b when a > b, to minus the mirror sum when a < b, and
    to 0 when a = b.  For i = n-1 the variable x_n is absent (b = 0), so the
    quotient lies in x_1..x_{n-1} only when no exponent of x_{n-1} exceeds 1;
    otherwise ValueError.

    >>> str(divided_difference(1, IntPolynomial(3, {(2, 0): 1})))
    'x1 + x2'
    """
    n = p.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"divided difference index out of range: {i}")
    pos = i - 1  # 0-based slot of x_i
    last = i == n - 1
    out: dict[Exponent, int] = {}
    for alpha, c in p.terms.items():
        a = alpha[pos]
        b = 0 if last else alpha[pos + 1]
        if last and a > 1:
            raise ValueError("quotient does not lie in x_1..x_{n-1}")
        head, tail = alpha[:pos], alpha[pos + 2 :]
        sign = c if a > b else -c
        # the exponent pairs (e, a + b - 1 - e) for e between b and a
        for e in range(min(a, b), max(a, b)):
            key = head + ((e,) if last else (e, a + b - 1 - e)) + tail
            v = out.get(key, 0) + sign
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return IntPolynomial._trusted(n, out)


@lru_cache(maxsize=None)
def _schubert_table(n: int) -> dict[Permutation, IntPolynomial]:
    """All Schubert polynomials of S_n, filled downward from the staircase
    monomial at the longest element by left-descent divided differences."""
    top = longest_element(n)
    table: dict[Permutation, IntPolynomial] = {
        top: IntPolynomial.monomial(n, staircase(n))
    }
    strata = permutations_by_rank(n)
    for k in range(len(strata) - 2, -1, -1):
        for w in strata[k]:
            # any left ascent i (value i sits before i+1) yields the parent s_i * w
            i = _left_ascent(w)
            table[w] = divided_difference(i, table[_swap(w, i)])
    return table


def _transition_terms(w: Permutation | bytes) -> list[Permutation | bytes]:
    """The permutations whose S(1) add up to S_w(1) by the transition
    recursion (Lascoux-Schuetzenberger 1985; Macdonald, *Notes on Schubert
    polynomials*, 1991), none for the identity (S(1) = 1), of the type of w
    (a tuple, or a word of :func:`permutations._rank`).  With r the last
    descent of w, s the largest position after r with w_s < w_r and
    v = w * t_rs, they are v, which is shorter, and the v * t_ir over the
    i < r for which v * t_ir covers v, of the length of w and lex-larger.
    """
    n = len(w)
    r = next((p for p in range(n - 2, -1, -1) if w[p] > w[p + 1]), None)
    if r is None:
        return []
    s = max(p for p in range(r + 1, n) if w[p] < w[r])
    v = list(w)
    v[r], v[s] = v[s], v[r]
    top, word = v[r], type(w)
    terms = [word(v)]
    # v * t_ir covers v when v_i < v_r and no value between them sits in
    # between: scanning i downward, v_i must beat every such value
    ceiling = 0
    for i in range(r - 1, -1, -1):
        if ceiling < v[i] < top:
            ceiling = v[i]
            terms.append(word((*v[:i], top, *v[i + 1 : r], ceiling, *v[r + 1 :])))
    return terms


def _specialization_table(n: int) -> Iterator[list[int]]:
    """S_w(1) for the permutations w of each rank k = 0..N of S_n in turn,
    as a list in the lex order of the rank, by :func:`_transition_terms`; no
    polynomial is built.  The terms of w are v, of rank k-1, and the v*t_ir,
    of rank k and lex-larger than w, so each rank is filled from its
    lex-largest permutation down and only two ranks are held at a time,
    keyed by the bytes words of :func:`permutations._rank`, which the terms
    of such a word are too.  S_w(1) = S_{w^-1}(1), so the values hold in
    both conventions.
    """
    below: dict[bytes, int] = {}
    for k in range(num_inversions_max(n) + 1):
        stratum = _rank(n, k)[0]
        here: dict[bytes, int] = {}
        for w in reversed(stratum):
            terms = _transition_terms(w)
            here[w] = below[terms[0]] + sum(here[t] for t in terms[1:]) if terms else 1
        yield [here[w] for w in stratum]
        below = here


def _specialization(w: Permutation) -> int:
    """S_w(1) from the :func:`_transition_terms` reachable from w alone,
    depth first on an explicit stack with a memo, so no recursion limit
    applies and neither the table of S_n nor a polynomial is built."""
    memo: dict[Permutation, int] = {}
    stack = [w]
    while stack:
        terms = _transition_terms(stack[-1])
        todo = [t for t in terms if t not in memo]
        if todo:
            stack += todo
        else:
            memo[stack.pop()] = sum(memo[t] for t in terms) if terms else 1
    return memo[w]


def schubert(w: Permutation) -> IntPolynomial:
    """Schubert polynomial of w in the left-multiplication convention.

    Only the chain from w up to the longest element is built: w climbs by
    the left ascents that fill :func:`_schubert_table`, at most N of them,
    and divided differences come back down the same chain.

    >>> str(schubert((3, 2, 1)))
    'x1^2*x2'
    >>> str(schubert((1, 3, 2)))
    'x1 + x2'
    """
    word = validated(w)
    n = len(word)
    ascents = []
    while i := _left_ascent(word):
        ascents.append(i)
        word = _swap(word, i)
    poly = IntPolynomial.monomial(n, staircase(n))
    for i in reversed(ascents):
        poly = divided_difference(i, poly)
    return poly


def schubert_standard(w: Permutation) -> IntPolynomial:
    """Schubert polynomial in the common literature convention.

    Bridged through the group inverse; the monomial x^code(w) appears with
    coefficient 1.

    >>> str(schubert_standard((2, 3, 1)))
    'x1*x2'
    """
    return schubert(inverse(w))


def principal_specialization(p: IntPolynomial) -> int:
    """Evaluate at x_1 = ... = x_{n-1} = 1 (sum of coefficients)."""
    return sum(p.terms.values())


def pad(p: IntPolynomial) -> PaddedPolynomial:
    """x^alpha -> x^alpha y^(rho - alpha) on every term.

    Requires every exponent to fit under the staircase.
    """
    return PaddedPolynomial(p.n, p.terms)


def unpad(p: PaddedPolynomial) -> IntPolynomial:
    """Forget the y-part; inverse of :func:`pad` on its image."""
    return IntPolynomial(p.n, p.terms)


def _shift(p: PaddedPolynomial, step: int, weight: Callable[[int, int], int]) -> PaddedPolynomial:
    """Sum over terms c x^alpha and slots idx of c * weight(idx, alpha_idx)
    x^(alpha + step e_idx), skipping zero weights; built through the
    validating constructor, so a result above the staircase raises."""
    out: dict[Exponent, int] = {}
    for alpha, c in p.terms.items():
        for idx, e in enumerate(alpha):
            f = weight(idx, e)
            if f:
                shifted = alpha[:idx] + (e + step,) + alpha[idx + 1 :]
                v = out.get(shifted, 0) + c * f
                if v:
                    out[shifted] = v
                elif shifted in out:
                    del out[shifted]
    return PaddedPolynomial(p.n, out)


def apply_nabla(p: PaddedPolynomial) -> PaddedPolynomial:
    """Lowering operator sum_i y_i d/dx_i: alpha -> alpha - e_i, factor alpha_i."""
    return _shift(p, -1, lambda idx, e: e)


def apply_delta(p: PaddedPolynomial) -> PaddedPolynomial:
    """Raising operator sum_i x_i d/dy_i: alpha -> alpha + e_i, factor rho_i - alpha_i."""
    rho = staircase(p.n)
    return _shift(p, 1, lambda idx, e: rho[idx] - e)


def monomials_of_rank(n: int, k: int) -> tuple[Exponent, ...]:
    """Exponent vectors under the staircase with |alpha| = k, lex-descending:
    the rank-k monomials of the chain product at M = staircase(n)."""
    if not 0 <= k <= num_inversions_max(n):
        raise ValueError(f"rank out of range for S_{n}: {k}")
    return monomials_of_profile_rank(staircase(n), k)


@lru_cache(maxsize=None)
def _leading_index(n: int) -> dict[Exponent, Permutation]:
    """alpha -> the w whose Schubert polynomial has lex-least term x^alpha.

    By the theorem cited in the module docstring that term is x^code(w^-1)
    with coefficient 1; the ArithmeticError guards the theorem.
    """
    index: dict[Exponent, Permutation] = {}
    for w, poly in _schubert_table(n).items():
        alpha = min(poly.terms)
        if poly.terms[alpha] != 1:
            raise ArithmeticError(f"leading coefficient of the Schubert polynomial of {w} is not 1")
        if alpha in index:
            raise ArithmeticError(f"leading term {alpha} repeats in the Schubert basis of S_{n}")
        index[alpha] = w
    return index


def _peel(n: int, terms: Mapping[Exponent, int]) -> dict[Permutation, int]:
    """Schubert coordinates of a polynomial by unitriangular back-substitution:
    the lex-least remaining term x^alpha with coefficient c records c for the
    w led by x^alpha, and c * schubert(w) is subtracted."""
    table = _schubert_table(n)
    lead = _leading_index(n)
    rest = dict(terms)
    out: dict[Permutation, int] = {}
    while rest:
        alpha = min(rest)
        c = rest.pop(alpha)
        w = lead[alpha]
        out[w] = c
        for beta, b in table[w].terms.items():
            if beta != alpha:
                v = rest.get(beta, 0) - c * b
                if v:
                    rest[beta] = v
                else:
                    del rest[beta]
    return dict(sorted(out.items()))


@lru_cache(maxsize=None)
def basis_matrix_inverse(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Exact inverse of the rank-k change of basis: row alpha holds the
    Schubert coordinates of the monomial x^alpha, columns the permutations of
    length k in lex order."""
    perms = permutations_of_rank(n, k)
    return tuple(
        tuple(coords.get(w, 0) for w in perms)
        for coords in (_peel(n, {alpha: 1}) for alpha in monomials_of_rank(n, k))
    )


def expand_in_padded_schubert_basis(p: PaddedPolynomial) -> dict[Permutation, int]:
    """Integer coordinates of a rank-homogeneous polynomial in the padded
    Schubert basis, in lex order of the permutations; {} for zero,
    ValueError when ranks are mixed."""
    if p.x_degree() is None:
        raise ValueError("polynomial mixes ranks; expansion needs a single x-degree")
    return _peel(p.n, p.terms)

