"""
Permutations of {1..n} in one-line notation.

A permutation is a plain tuple of the integers 1..n.  Positions, simple
reflection indices and transposition indices are all 1-based, matching the
usual combinatorics conventions; only raw Python indexing inside function
bodies is 0-based.

Right multiplication acts on positions (w * s_i swaps the entries at
positions i and i+1), left multiplication acts on values (s_i * w swaps the
values i and i+1 wherever they sit).

>>> length((3, 1, 2))
2
>>> lehmer_code((3, 1, 2))
(2, 0)
>>> inverse((2, 3, 1))
(3, 1, 2)
"""

from __future__ import annotations

import itertools
import math
from array import array
from functools import lru_cache
from typing import Iterable

Permutation = tuple[int, ...]

__all__ = [
    "Permutation",
    "validated",
    "identity",
    "longest_element",
    "length",
    "lehmer_code",
    "inverse",
    "w0_times",
    "weak_covers_up",
    "strong_covers_up",
    "permutations_by_rank",
    "permutations_of_rank",
    "num_inversions_max",
    "to_string",
    "parse",
]


def validated(w: Iterable[int]) -> Permutation:
    """Return ``w`` as a tuple, checking it is a permutation of 1..n.

    >>> validated([2, 1, 3])
    (2, 1, 3)
    >>> validated((1, 1, 2))
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..3: (1, 1, 2)
    """
    word = tuple(w)
    n = len(word)
    if n == 0 or sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {word}")
    return word


def identity(n: int) -> Permutation:
    """The identity permutation of S_n."""
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Permutation:
    """The order-reversing permutation n, n-1, ..., 1 (the unique top element).

    >>> longest_element(4)
    (4, 3, 2, 1)
    """
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    return tuple(range(n, 0, -1))


def num_inversions_max(n: int) -> int:
    """Largest possible inversion count in S_n, i.e. n choose 2."""
    return n * (n - 1) // 2


def length(w: Iterable[int]) -> int:
    """Coxeter length = number of inversions (i < j with w_i > w_j).

    >>> length((1, 2, 3))
    0
    >>> length((3, 2, 1))
    3
    """
    return sum(a > b for a, b in itertools.combinations(validated(w), 2))


def lehmer_code(w: Iterable[int]) -> tuple[int, ...]:
    """Lehmer code: c_i = #{j > i : w_j < w_i}, truncated to length n-1.

    The last entry c_n is always 0 and is dropped, so the code of w in S_n
    is a vector of length n-1 bounded by the staircase (n-1, n-2, ..., 1).

    >>> lehmer_code((3, 1, 2))
    (2, 0)
    >>> lehmer_code((1, 2, 3))
    (0, 0)
    """
    word = validated(w)
    n = len(word)
    return tuple(
        sum(1 for j in range(i + 1, n) if word[j] < word[i]) for i in range(n - 1)
    )


def inverse(w: Iterable[int]) -> Permutation:
    """Group inverse: the value at position w_i is i.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    >>> inverse(inverse((4, 1, 3, 2)))
    (4, 1, 3, 2)
    """
    word = validated(w)
    out = [0] * len(word)
    for pos, val in enumerate(word, start=1):
        out[val - 1] = pos
    return tuple(out)


def w0_times(w: Iterable[int]) -> Permutation:
    """Left-multiply by the longest element: every value k becomes n+1-k.

    >>> w0_times((1, 3, 2))
    (3, 1, 2)
    """
    word = validated(w)
    n = len(word)
    return tuple(n + 1 - v for v in word)


def _left_ascent(w: Permutation | bytes) -> int:
    """The least left ascent of w: the least i whose value i sits before
    i+1, so that s_i * w > w; 0 when there is none (w is the longest
    element).  ``w`` may be a tuple or a word of :func:`_rank`."""
    for i in range(1, len(w)):
        if w.index(i) < w.index(i + 1):
            return i
    return 0


def _swap(w: Permutation | bytes, i: int) -> Permutation | bytes:
    """s_i * w: the values i and i+1 of w swapped, of the type of w (a tuple,
    or a word of :func:`_rank`, relabelled by one ``bytes.translate``), so
    it keys the same dicts as w."""
    if type(w) is bytes:
        return w.translate(_transposition(i))
    out = list(w)
    out[w.index(i)], out[w.index(i + 1)] = i + 1, i
    return tuple(out)


@lru_cache(maxsize=None)
def _transposition(i: int) -> bytes:
    """The ``bytes.translate`` table that swaps the letters i and i+1."""
    return bytes(range(i)) + bytes((i + 1, i)) + bytes(range(i + 2, 256))


def weak_covers_up(w: Iterable[int]) -> set[tuple[Permutation, int]]:
    """All weak-order covers w < w*s_i, as pairs (w*s_i, i).

    A right multiplication by s_i goes up exactly at the ascents of w
    (positions i with w_i < w_{i+1}).

    >>> sorted(weak_covers_up((1, 2, 3)))
    [((1, 3, 2), 2), ((2, 1, 3), 1)]
    """
    word = validated(w)
    return {
        (word[: i - 1] + (word[i], word[i - 1]) + word[i + 1 :], i)
        for i in range(1, len(word))
        if word[i - 1] < word[i]
    }


def strong_covers_up(w: Iterable[int]) -> set[tuple[Permutation, int, int]]:
    """All strong-order covers w < w*t_ij, as triples (w*t_ij, i, j).

    w * t_ij covers w exactly when w_i < w_j and no intermediate position
    holds a value strictly between them.

    >>> sorted(strong_covers_up((2, 1, 3)))
    [((2, 3, 1), 2, 3), ((3, 1, 2), 1, 3)]
    """
    word = validated(w)
    n = len(word)
    covers = set()
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            a, b = word[i - 1], word[j - 1]
            if a < b and not any(a < v < b for v in word[i : j - 1]):
                upper = word[: i - 1] + (b,) + word[i : j - 1] + (a,) + word[j:]
                covers.add((upper, i, j))
    return covers


@lru_cache(maxsize=4)
def _rank(n: int, k: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...], array]:
    """Rank k of S_n in lex order: its words and their full Lehmer codes
    (c_n = 0 included), each one ``bytes`` object with one letter per byte,
    and their lex indices among all n! words, as one ``array('q')``.  So n
    is at most 255.  A word or a code takes about 40 bytes at n = 9, against
    about 110 as a tuple of ints.

    The word (v, u relabelled) of S_n, where u in S_{n-1} has every value
    from v up raised by one, has code (v-1, c(u)), so length v-1 + l(u), and
    lex index (v-1)(n-1)! + g(u) (Bjoerner-Brenti, GTM 231, section 2.1).
    So rank k is read off ranks k-a of S_{n-1}, a = v-1 ascending, each in
    lex order, and each word u is relabelled by one ``bytes.translate``;
    S_{n-1} is kept whole by :func:`_strata`, and the last few ranks of S_n
    here, so a scan over neighbouring ranks makes each once.  Cached and
    shared; treat it as read-only.
    """
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    if n > 255:
        raise ValueError(f"a word of S_{n} does not fit one letter per byte: n must be at most 255")
    if not 0 <= k <= num_inversions_max(n):
        raise ValueError(f"rank out of range for S_{n}: {k}")
    if n == 1:
        return (b"\x01",), (b"\x00",), array("q", [0])
    lower = _strata(n - 1)
    place = math.factorial(n - 1)
    words: list[bytes] = []
    codes: list[bytes] = []
    lexes = array("q")
    for a in range(max(0, k + 1 - len(lower)), min(n - 1, k) + 1):
        us, cs, gs = lower[k - a]
        up = bytes(range(a + 1)) + bytes(range(a + 2, 256)) + b"\xff"  # value x of u becomes up[x]
        head, digit = bytes((a + 1,)), bytes((a,))
        words += [head + u.translate(up) for u in us]
        codes += [digit + c for c in cs]
        lexes.extend(map((a * place).__add__, gs))
    return tuple(words), tuple(codes), lexes


@lru_cache(maxsize=None)
def _strata(n: int) -> tuple[tuple, ...]:
    """Every rank of S_n as :func:`_rank` makes it: what rank k of S_{n+1}
    is read from.  Cached and shared; treat it as read-only."""
    return tuple(_rank(n, k) for k in range(num_inversions_max(n) + 1))


@lru_cache(maxsize=None)
def permutations_by_rank(n: int) -> tuple[tuple[Permutation, ...], ...]:
    """All of S_n stratified by length; each stratum sorted lexicographically.

    The words of each rank as :func:`_rank` makes them, as tuples, so no
    inversion is counted.

    >>> permutations_by_rank(3)[1]
    ((1, 3, 2), (2, 1, 3))
    """
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    return tuple(tuple(map(tuple, _rank(n, k)[0])) for k in range(num_inversions_max(n) + 1))


def permutations_of_rank(n: int, k: int) -> list[Permutation]:
    """All w in S_n with length k, in lex order.

    >>> permutations_of_rank(3, 1)
    [(1, 3, 2), (2, 1, 3)]
    """
    return list(map(tuple, _rank(n, k)[0]))


def to_string(w: Iterable[int]) -> str:
    """One-line string form: digits for n <= 9, comma-separated otherwise.

    >>> to_string((3, 1, 2))
    '312'
    """
    return _one_line(validated(w))


def _one_line(word: Permutation) -> str:
    """:func:`to_string` of a permutation that is valid by construction."""
    return ("" if len(word) <= 9 else ",").join(map(str, word))


def parse(text: str) -> Permutation:
    """Inverse of :func:`to_string`; accepts either encoding.

    >>> parse("312")
    (3, 1, 2)
    >>> parse("10,2,3,4,5,6,7,8,9,1")[0]
    10
    """
    stripped = text.strip()
    parts = stripped.split(",") if "," in stripped else list(stripped)
    try:
        word = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse permutation: {text!r}") from None
    return validated(word)

