"""Core permutation combinatorics: lengths, codes, covers."""

from array import array
from collections import deque
from itertools import permutations as iter_permutations

import pytest
from hypothesis import given, strategies as st

from bruhatops.permutations import (
    _left_ascent,
    _rank,
    _swap,
    identity,
    inverse,
    lehmer_code,
    length,
    longest_element,
    num_inversions_max,
    parse,
    permutations_by_rank,
    permutations_of_rank,
    strong_covers_up,
    to_string,
    validated,
    w0_times,
    weak_covers_up,
)

from oracles import reference_ranks


def bfs_word_length(w):
    """Oracle: minimal number of adjacent swaps from the identity, by BFS.

    Independent of the inversion-count formula under test.
    """
    n = len(w)
    start = tuple(range(1, n + 1))
    if w == start:
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        cur, d = frontier.popleft()
        for i in range(n - 1):
            nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2 :]
            if nxt == w:
                return d + 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
    raise AssertionError("unreachable")


def perms_strategy(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )


class TestLength:
    def test_frozen_values(self):
        assert length((1, 2, 3)) == 0
        assert length((2, 1, 3)) == 1
        assert length((3, 2, 1)) == 3
        assert length((2, 3, 1)) == 2
        assert length((4, 3, 2, 1)) == 6

    def test_matches_bfs_word_length_exhaustive(self):
        for n in range(1, 5):
            for w in iter_permutations(range(1, n + 1)):
                assert length(w) == bfs_word_length(w)

    @given(perms_strategy(max_n=6))
    def test_matches_bfs_word_length_sampled(self, w):
        assert length(w) == bfs_word_length(w)

    @given(perms_strategy())
    def test_inverse_preserves_length(self, w):
        assert length(inverse(w)) == length(w)

    @given(perms_strategy())
    def test_code_sums_to_length(self, w):
        assert sum(lehmer_code(w)) == length(w)


class TestLehmerCode:
    def test_frozen_values(self):
        assert lehmer_code((1, 2, 3)) == (0, 0)
        assert lehmer_code((2, 3, 1)) == (1, 1)
        assert lehmer_code((3, 1, 2)) == (2, 0)
        assert lehmer_code((1, 4, 3, 2)) == (0, 2, 1)

    @given(perms_strategy())
    def test_bounded_by_staircase(self, w):
        n = len(w)
        code = lehmer_code(w)
        assert len(code) == n - 1
        assert all(0 <= c <= n - 1 - i for i, c in enumerate(code, start=0))

    def test_injective(self):
        for n in range(2, 6):
            codes = {lehmer_code(w) for w in iter_permutations(range(1, n + 1))}
            assert len(codes) == len(list(iter_permutations(range(1, n + 1))))


class TestGroupOps:
    def test_identity_and_longest(self):
        assert identity(4) == (1, 2, 3, 4)
        assert longest_element(4) == (4, 3, 2, 1)
        assert num_inversions_max(4) == 6
        assert length(longest_element(5)) == num_inversions_max(5)

    @given(perms_strategy())
    def test_inverse_involutive(self, w):
        assert inverse(inverse(w)) == w

    @given(perms_strategy())
    def test_inverse_composes_to_identity(self, w):
        n = len(w)
        composed = tuple(w[inverse(w)[i] - 1] for i in range(n))
        assert composed == identity(n)

    def test_left_multiplication_by_least_left_ascent(self):
        # s_i * w composes s_i with w, and raises the length exactly at the
        # left ascents; w0 alone has none
        for n in range(1, 6):
            for w in iter_permutations(range(1, n + 1)):
                ups = []
                for i in range(1, n):
                    s_i = tuple(i + 1 if v == i else i if v == i + 1 else v for v in identity(n))
                    moved = tuple(s_i[v - 1] for v in w)
                    assert _swap(w, i) == moved
                    if length(moved) > length(w):
                        ups.append(i)
                assert _left_ascent(w) == (ups[0] if ups else 0)
                assert (_left_ascent(w) == 0) == (w == longest_element(n))

    @given(perms_strategy())
    def test_w0_times_involutive_and_length_flip(self, w):
        n = len(w)
        assert w0_times(w0_times(w)) == w
        assert length(w0_times(w)) == num_inversions_max(n) - length(w)


class TestCovers:
    def test_weak_covers_frozen(self):
        assert weak_covers_up((1, 2, 3)) == {((2, 1, 3), 1), ((1, 3, 2), 2)}
        assert weak_covers_up((3, 2, 1)) == set()
        assert weak_covers_up((2, 3, 1)) == {((3, 2, 1), 1)}

    def test_strong_covers_frozen(self):
        assert strong_covers_up((1, 3, 2)) == {((2, 3, 1), 1, 3), ((3, 1, 2), 1, 2)}
        assert strong_covers_up((2, 1, 3)) == {((2, 3, 1), 2, 3), ((3, 1, 2), 1, 3)}

    @given(perms_strategy())
    def test_weak_covers_increase_length_by_one(self, w):
        for upper, i in weak_covers_up(w):
            assert length(upper) == length(w) + 1
            assert 1 <= i <= len(w) - 1

    @given(perms_strategy())
    def test_strong_covers_increase_length_by_one(self, w):
        for upper, i, j in strong_covers_up(w):
            assert length(upper) == length(w) + 1
            assert 1 <= i < j <= len(w)

    @given(perms_strategy(max_n=5))
    def test_weak_covers_subset_of_strong(self, w):
        strong_uppers = {u for u, _, _ in strong_covers_up(w)}
        for upper, _ in weak_covers_up(w):
            assert upper in strong_uppers

    def test_strong_cover_oracle_exhaustive(self):
        # oracle: u is covered by v in strong order iff v = u*t and
        # length goes up by exactly one -- checked by brute transposition
        for n in range(2, 6):
            for w in iter_permutations(range(1, n + 1)):
                want = set()
                for i in range(n - 1):
                    for j in range(i + 1, n):
                        v = list(w)
                        v[i], v[j] = v[j], v[i]
                        v = tuple(v)
                        if length(v) == length(w) + 1:
                            want.add((v, i + 1, j + 1))
                assert strong_covers_up(w) == want


class TestStratification:
    def test_ranks_partition_and_sort(self):
        for n in range(1, 6):
            ranks = permutations_by_rank(n)
            assert len(ranks) == num_inversions_max(n) + 1
            seen = [w for stratum in ranks for w in stratum]
            assert len(seen) == len(set(seen))
            for k, stratum in enumerate(ranks):
                assert list(stratum) == sorted(stratum)
                assert all(length(w) == k for w in stratum)
        assert permutations_of_rank(3, 1) == [(1, 3, 2), (2, 1, 3)]

    def test_code_sums_group_like_inversion_counts(self):
        for n in range(1, 9):
            assert permutations_by_rank(n) == reference_ranks(n), n

    def test_ranks_on_demand_equal_the_brute_force_ranks(self):
        # each rank alone, decoded: its words and their full Lehmer codes,
        # one bytes object each, are those of the brute-force rank, and its
        # array of lex indices holds their indices among all n! words
        for n in range(1, 8):
            lex = {w: g for g, w in enumerate(iter_permutations(range(1, n + 1)))}
            for k, stratum in enumerate(reference_ranks(n)):
                words, codes, lexes = _rank(n, k)
                assert all(type(w) is bytes for w in words + codes), (n, k)
                assert isinstance(lexes, array) and lexes.typecode == "q", (n, k)
                assert tuple(map(tuple, words)) == stratum, (n, k)
                assert tuple(map(tuple, codes)) == tuple(lehmer_code(w) + (0,) for w in stratum), (n, k)
                assert tuple(lexes) == tuple(lex[w] for w in stratum), (n, k)

    def test_rank_out_of_range_raises(self):
        with pytest.raises(ValueError, match="rank out of range for S_3: 4"):
            _rank(3, 4)
        with pytest.raises(ValueError, match="n must be positive"):
            _rank(0, 0)
        # one letter per byte
        with pytest.raises(ValueError, match="n must be at most 255"):
            _rank(256, 0)


class TestStringForms:
    def test_round_trip_compact(self):
        assert to_string((3, 1, 2)) == "312"
        assert parse("312") == (3, 1, 2)

    def test_round_trip_commas(self):
        w = tuple(range(10, 0, -1))
        assert parse(to_string(w)) == w
        assert "," in to_string(w)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse("1224")
        with pytest.raises(ValueError):
            parse("")
        with pytest.raises(ValueError):
            parse("1,2,x")

    def test_validated_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            validated((1, 1, 2))
        with pytest.raises(ValueError):
            validated((0, 1, 2))
        with pytest.raises(ValueError):
            validated(())
