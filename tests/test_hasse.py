"""Weighted cover diagrams and path counting against brute-force oracles."""

import itertools
import json
import math
from functools import lru_cache

import pytest

import bruhatops.hasse as hasse_module
from bruhatops.hasse import (
    WeightedHasseDiagram,
    _chunks,
    _streamed,
    _sweep,
    build_hasse,
    chevalley_weight,
    code_weight,
    diagram_to_dot,
    diagram_to_json,
    layer_matrix,
    nabla_weight,
    verify_w0_symmetry,
    w0_symmetry_check,
    weighted_path_count,
)
from bruhatops.permutations import (
    inverse,
    length,
    lehmer_code,
    num_inversions_max,
    permutations_by_rank,
    strong_covers_up,
    to_string,
    w0_times,
    weak_covers_up,
)
from bruhatops.snf import SparseStep, _mirror_scan
from oracles import matmul, reference_ranks

ALL_SYSTEMS = [
    ("weak", "nabla"),
    ("weak", "unit"),
    ("strong", "code"),
    ("strong", "chevalley"),
    ("strong", "unit"),
]


def dfs_path_weight_sum(g, u, v):
    """Oracle: enumerate every saturated chain u -> v explicitly and sum
    the products of edge weights.  Exponential, fine at n <= 4."""
    if u == v:
        return 1
    out = {}
    for src, dst, wt in g.edges:
        out.setdefault(src, []).append((dst, wt))
    total = 0
    stack = [(u, 1)]
    while stack:
        at, acc = stack.pop()
        for dst, wt in out.get(at, ()):
            if dst == v:
                total += acc * wt
            else:
                stack.append((dst, acc * wt))
    return total


def reference_code_weight(w, i, j):
    """Oracle: 1 + 2 * #{q > j : w_i < w_q < w_j} for a strong cover."""
    a, b = w[i - 1], w[j - 1]
    return 1 + 2 * sum(1 for v in w[j:] if a < v < b)


@lru_cache(maxsize=None)
def reference_steps(n, order, weights):
    """Oracle: the sorted steps of a diagram built vertex by vertex from the
    public covers of each permutation, each cover's column looked up in a
    dict of its rank."""
    ranks = reference_ranks(n)
    steps = []
    for lower, upper in zip(ranks, ranks[1:]):
        col = {v: c for c, v in enumerate(upper)}
        step = []
        for r, w in enumerate(lower):
            if order == "weak":
                covers = [(col[v], i if weights == "nabla" else 1) for v, i in weak_covers_up(w)]
            elif weights == "code":
                covers = [(col[v], reference_code_weight(w, i, j)) for v, i, j in strong_covers_up(w)]
            elif weights == "chevalley":
                covers = [(col[v], j - i) for v, i, j in strong_covers_up(w)]
            else:
                covers = [(col[v], 1) for v, _, _ in strong_covers_up(w)]
            step.extend((r, c, wt) for c, wt in sorted(covers))
        steps.append(tuple(step))
    return tuple(steps)


# frozen n=3 cover data, weights recomputed by hand from the definitions
WEAK_NABLA_3 = {
    ((1, 2, 3), (2, 1, 3), 1),
    ((1, 2, 3), (1, 3, 2), 2),
    ((2, 1, 3), (2, 3, 1), 2),
    ((1, 3, 2), (3, 1, 2), 1),
    ((2, 3, 1), (3, 2, 1), 1),
    ((3, 1, 2), (3, 2, 1), 2),
}
STRONG_CODE_3 = {
    ((1, 2, 3), (2, 1, 3), 1),
    ((1, 2, 3), (1, 3, 2), 1),
    ((2, 1, 3), (2, 3, 1), 1),
    ((2, 1, 3), (3, 1, 2), 1),
    ((1, 3, 2), (2, 3, 1), 1),
    ((1, 3, 2), (3, 1, 2), 3),
    ((2, 3, 1), (3, 2, 1), 1),
    ((3, 1, 2), (3, 2, 1), 1),
}
STRONG_CHEV_3 = {
    ((1, 2, 3), (2, 1, 3), 1),
    ((1, 2, 3), (1, 3, 2), 1),
    ((2, 1, 3), (2, 3, 1), 1),
    ((2, 1, 3), (3, 1, 2), 2),
    ((1, 3, 2), (2, 3, 1), 2),
    ((1, 3, 2), (3, 1, 2), 1),
    ((2, 3, 1), (3, 2, 1), 1),
    ((3, 1, 2), (3, 2, 1), 1),
}


class TestWeightFunctions:
    def test_nabla_weight_is_the_simple_index(self):
        assert nabla_weight((1, 2, 3), 1) == 1
        assert nabla_weight((1, 2, 3), 2) == 2
        with pytest.raises(ValueError):
            nabla_weight((2, 1, 3), 1)  # descent, not a cover

    def test_code_weight_frozen(self):
        assert code_weight((1, 3, 2), 1, 2) == 3
        assert code_weight((1, 3, 2), 1, 3) == 1
        with pytest.raises(ValueError):
            code_weight((1, 2, 3), 1, 3)  # jump by two in length

    def test_code_weight_is_manhattan_distance_of_codes(self):
        # oracle: the definition, on the Lehmer codes of both endpoints, for
        # the public weight and for every edge of the diagram, which does
        # not go through it
        def distance(w, upper):
            return sum(abs(a - b) for a, b in zip(lehmer_code(w), lehmer_code(upper)))

        for n in range(1, 7):
            for stratum in permutations_by_rank(n):
                for w in stratum:
                    for upper, i, j in strong_covers_up(w):
                        assert code_weight(w, i, j) == distance(w, upper), (w, i, j)
            for w, upper, wt in build_hasse(n, "strong", "code").edges:
                assert wt == distance(w, upper), (w, upper)

    @pytest.mark.parametrize("i,j", [(0, 2), (1, 5), (2, 2), (3, 2)])
    def test_code_weight_rejects_indices_out_of_range(self, i, j):
        with pytest.raises(ValueError, match=r"transposition indices out of range"):
            code_weight((1, 2, 3, 4), i, j)

    @pytest.mark.parametrize(
        "w,i,j,upper",
        [
            ((2, 1, 3), 1, 2, "123"),  # w_i > w_j: goes down
            ((1, 2, 3), 1, 3, "321"),  # 2 lies between 1 and 3 at position 2
            ((1, 4, 2, 3), 1, 4, "3421"),  # 2 lies between 1 and 3 at position 3
        ],
    )
    def test_code_weight_rejects_non_covers(self, w, i, j, upper):
        with pytest.raises(ValueError, match=f"-> {upper} is not a strong cover"):
            code_weight(w, i, j)

    def test_code_weights_always_odd(self):
        for n in range(2, 6):
            g = build_hasse(n, "strong", "code")
            assert all(wt % 2 == 1 for _, _, wt in g.edges)

    def test_chevalley_weight(self):
        assert chevalley_weight(1, 3) == 2
        with pytest.raises(ValueError):
            chevalley_weight(2, 2)


class TestValidationAtTheBoundary:
    """Public functions reject a non-permutation; the package's own loops
    run on trusted tuples and validate each permutation at most once."""

    @pytest.mark.parametrize(
        "call",
        [
            length,
            lehmer_code,
            inverse,
            w0_times,
            to_string,
            weak_covers_up,
            strong_covers_up,
            pytest.param(lambda w: code_weight(w, 1, 2), id="code_weight"),
            pytest.param(lambda w: nabla_weight(w, 1), id="nabla_weight"),
            pytest.param(
                lambda w: weighted_path_count(build_hasse(3, "weak", "nabla"), w, w),
                id="weighted_path_count",
            ),
        ],
        ids=lambda call: call.__name__,
    )
    def test_rejects_non_permutation(self, call):
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3: \(1, 1, 2\)"):
            call((1, 1, 2))

    def test_build_validates_each_vertex_at_most_once(self, validated_calls):
        build_hasse.__wrapped__(5, "strong", "code")
        assert len(set(validated_calls)) == len(validated_calls) <= 120

    def test_enumeration_validates_nothing(self, validated_calls):
        permutations_by_rank.__wrapped__(5)
        assert validated_calls == []


class TestBuildHasse:
    @pytest.mark.parametrize("order,weights", ALL_SYSTEMS)
    def test_index_arithmetic_matches_cover_oracle(self, order, weights):
        for n in range(1, 7):
            g = build_hasse(n, order, weights)
            assert g.ranks == reference_ranks(n)
            assert g._steps == reference_steps(n, order, weights), n

    @pytest.mark.parametrize("weights", ["code", "chevalley"])
    def test_strong_index_arithmetic_matches_cover_oracle_at_n7(self, weights):
        assert build_hasse(7, "strong", weights)._steps == reference_steps(7, "strong", weights)

    def test_figure_edge_sets_frozen(self):
        assert set(build_hasse(3, "weak", "nabla").edges) == WEAK_NABLA_3
        assert set(build_hasse(3, "strong", "code").edges) == STRONG_CODE_3
        assert set(build_hasse(3, "strong", "chevalley").edges) == STRONG_CHEV_3

    def test_incompatible_pairs_raise(self):
        with pytest.raises(ValueError):
            build_hasse(3, "weak", "code")
        with pytest.raises(ValueError):
            build_hasse(3, "strong", "nabla")
        with pytest.raises(ValueError):
            build_hasse(3, "bruhat", "unit")
        with pytest.raises(ValueError):
            build_hasse(3, "weak", "lengths")

    def test_edge_counts_against_cover_counts(self):
        # weak edges = number of ascent positions summed over the group;
        # strong edges = number of length-raising transpositions
        for n in range(2, 6):
            weak = build_hasse(n, "weak", "unit")
            strong = build_hasse(n, "strong", "unit")
            perms = [w for s in permutations_by_rank(n) for w in s]
            assert len(weak.edges) == sum(
                sum(1 for i in range(n - 1) if w[i] < w[i + 1]) for w in perms
            )
            assert len(strong.edges) >= len(weak.edges)

    @pytest.mark.parametrize("order,weights", ALL_SYSTEMS)
    def test_edges_sorted_by_rank_lower_upper(self, order, weights):
        for n in range(1, 6):
            g = build_hasse(n, order, weights)
            keys = [(length(src), src, dst) for src, dst, _ in g.edges]
            assert keys == sorted(keys)

    def test_rank_stratification(self):
        g = build_hasse(4, "strong", "code")
        assert g.top_rank == 6
        assert [len(s) for s in g.ranks] == [1, 3, 5, 6, 5, 3, 1]
        assert (2, 1, 4, 3) in g.ranks[2]
        with pytest.raises(ValueError, match="not a vertex"):
            weighted_path_count(g, (2, 1, 4, 3, 5), (4, 3, 2, 1))


class TestPathCounting:
    def test_example_weak_two_paths(self):
        g = build_hasse(3, "weak", "nabla")
        assert weighted_path_count(g, (1, 2, 3), (2, 3, 1)) == 2

    def test_trivial_conventions(self):
        g = build_hasse(3, "strong", "code")
        assert weighted_path_count(g, (2, 3, 1), (2, 3, 1)) == 1
        assert weighted_path_count(g, (3, 2, 1), (1, 2, 3)) == 0
        assert weighted_path_count(g, (2, 3, 1), (3, 1, 2)) == 0  # same rank

    def test_total_weighted_count_n3_all_systems(self):
        for order, weights in (("weak", "nabla"), ("strong", "code"), ("strong", "chevalley")):
            g = build_hasse(3, order, weights)
            assert weighted_path_count(g, (1, 2, 3), (3, 2, 1)) == 6

    @pytest.mark.parametrize("order,weights", ALL_SYSTEMS)
    def test_dp_matches_dfs_oracle(self, order, weights):
        for n in (2, 3, 4):
            g = build_hasse(n, order, weights)
            perms = [w for s in permutations_by_rank(n) for w in s]
            for u in perms:
                for v in perms:
                    assert weighted_path_count(g, u, v) == dfs_path_weight_sum(g, u, v)


class TestSweeps:
    @pytest.mark.parametrize("order,weights", ALL_SYSTEMS)
    def test_sweeps_match_path_counts(self, order, weights):
        for n in range(1, 6):
            g = build_hasse(n, order, weights)
            eps, w0 = g.ranks[0][0], g.ranks[-1][0]
            up = list(_sweep(g._steps, up=True))
            down = list(_sweep(g._steps, up=False))[::-1]
            assert len(up) == len(down) == len(g.ranks)
            for k, stratum in enumerate(g.ranks):
                assert [up[k].get(i, 0) for i in range(len(stratum))] == [
                    weighted_path_count(g, eps, u) for u in stratum
                ]
                assert [down[k].get(i, 0) for i in range(len(stratum))] == [
                    weighted_path_count(g, u, w0) for u in stratum
                ]


class TestLayerMatrices:
    def test_identity_window(self):
        g = build_hasse(3, "weak", "nabla")
        assert layer_matrix(g, 2, 2) == [[1, 0], [0, 1]]

    def test_single_step_frozen(self):
        g = build_hasse(3, "weak", "nabla")
        # rows 132, 213; columns 231, 312
        assert layer_matrix(g, 1, 2) == [[0, 1], [2, 0]]
        s = build_hasse(3, "strong", "code")
        assert layer_matrix(s, 1, 2) == [[1, 3], [1, 1]]

    def test_entries_are_path_counts(self):
        g = build_hasse(4, "strong", "chevalley")
        mat = layer_matrix(g, 1, 4)
        for r, u in enumerate(g.ranks[1]):
            for c, v in enumerate(g.ranks[4]):
                assert mat[r][c] == weighted_path_count(g, u, v)

    def test_factorization_through_intermediate_ranks(self):
        g = build_hasse(4, "strong", "code")
        for low in range(g.top_rank + 1):
            for mid in range(low, g.top_rank + 1):
                for high in range(mid, g.top_rank + 1):
                    assert layer_matrix(g, low, high) == matmul(
                        layer_matrix(g, low, mid), layer_matrix(g, mid, high)
                    )

    @pytest.mark.parametrize("order,weights", ALL_SYSTEMS)
    def test_composer_matches_dense_step_product(self, order, weights):
        # dense steps straight from the edge list, multiplied with matmul
        for n in (3, 4):
            g = build_hasse(n, order, weights)
            pos = {w: i for stratum in g.ranks for i, w in enumerate(stratum)}
            steps = [[[0] * len(g.ranks[k + 1]) for _ in g.ranks[k]] for k in range(g.top_rank)]
            for src, dst, wt in g.edges:
                steps[length(src)][pos[src]][pos[dst]] = wt
            for low in range(g.top_rank + 1):
                want = [[int(i == j) for j in range(len(g.ranks[low]))] for i in range(len(g.ranks[low]))]
                for high in range(low, g.top_rank + 1):
                    assert layer_matrix(g, low, high) == want
                    if high < g.top_rank:
                        want = matmul(want, steps[high])

    def test_bad_window_raises(self):
        g = build_hasse(3, "weak", "nabla")
        with pytest.raises(ValueError):
            layer_matrix(g, 2, 1)
        with pytest.raises(ValueError):
            layer_matrix(g, 0, 4)


class TestW0Symmetry:
    @pytest.mark.parametrize("order,weights", ALL_SYSTEMS)
    def test_holds_up_to_n5(self, order, weights):
        for n in range(2, 6):
            ok, witness = w0_symmetry_check(build_hasse(n, order, weights))
            assert ok, witness

    def test_flip_is_lex_reversal(self):
        # w0*w has lex index n! - 1 - g, so the flip sends index i of rank k
        # to index len(rank k) - 1 - i of rank top - k, the index reversal
        # the mirror scan applies
        for n in range(1, 7):
            words = list(itertools.permutations(range(1, n + 1)))
            lex = {w: g for g, w in enumerate(words)}
            assert all(lex[w0_times(w)] == math.factorial(n) - 1 - g for g, w in enumerate(words))
            g = build_hasse(n, "weak", "unit")
            for k, stratum in enumerate(g.ranks):
                for i, w in enumerate(stratum):
                    assert g.ranks[g.top_rank - k][len(stratum) - 1 - i] == w0_times(w)

    def test_rejects_ranks_that_are_not_the_lex_strata(self):
        g = build_hasse(3, "weak", "nabla")
        shuffled = (g.ranks[0], g.ranks[1][::-1], *g.ranks[2:])
        with pytest.raises(ValueError, match="lex strata"):
            w0_symmetry_check(WeightedHasseDiagram(3, "weak", "nabla", shuffled, g._steps))

    def test_detects_broken_weight(self):
        g = build_hasse(3, "weak", "nabla")
        steps = [list(step) for step in g._steps]
        r, c, wt = steps[0][0]
        steps[0][0] = (r, c, wt + 1)
        broken = WeightedHasseDiagram(3, "weak", "nabla", g.ranks, tuple(map(tuple, steps)))
        ok, witness = w0_symmetry_check(broken)
        assert not ok
        assert witness is not None and "mirror" in witness

    def test_suite_builds_no_cached_diagram(self):
        # each diagram is built, checked and dropped; the cache is not touched
        before = build_hasse.cache_info()
        report = verify_w0_symmetry(5)
        after = build_hasse.cache_info()
        assert after == before
        systems = (("weak", "nabla"), ("strong", "code"), ("strong", "chevalley"))
        diagrams = [build_hasse(5, order, weights) for order, weights in systems]
        assert report == {
            "suite": "w0-symmetry",
            "n": 5,
            "checked": sum(len(step) for g in diagrams for step in g._steps),
            "failures": [],
        }

    def test_detects_dropped_triple(self):
        # drop 312 -> 321 (index 1 -> 0 of the last step), the mirror of
        # 123 -> 132, which is the first edge scanned
        g = build_hasse(3, "weak", "nabla")
        assert g._steps[2] == ((0, 0, 1), (1, 0, 2))
        steps = (*g._steps[:2], ((0, 0, 1),))
        ok, witness = w0_symmetry_check(WeightedHasseDiagram(3, "weak", "nabla", g.ranks, steps))
        assert not ok
        assert witness == {
            "edge": "123->132",
            "weight": "2",
            "mirror": "312->321",
            "mirror_weight": "missing",
        }

    def test_detects_repeated_triple(self):
        # a second 123 -> 132 doubles its layer entry, [[2, 1]] -> [[4, 1]];
        # its mirror 312 -> 321 is there once, so the second copy has none
        g = build_hasse(3, "weak", "nabla")
        assert g._steps[0] == ((0, 0, 2), (0, 1, 1))
        steps = (((0, 0, 2), (0, 0, 2), (0, 1, 1)), *g._steps[1:])
        doubled = WeightedHasseDiagram(3, "weak", "nabla", g.ranks, steps)
        assert layer_matrix(g, 0, 1) == [[2, 1]]
        assert layer_matrix(doubled, 0, 1) == [[4, 1]]
        assert w0_symmetry_check(doubled) == (
            False,
            {"edge": "123->132", "weight": "2", "mirror": "312->321", "mirror_weight": "missing"},
        )

    def test_detects_repeated_mirror(self):
        # a second 312 -> 321 in the top step: 123 -> 132 mirrors one copy,
        # and the scan of step 0 reports the other against that place, with
        # no edge of step 0 left for it
        g = build_hasse(3, "weak", "nabla")
        steps = (*g._steps[:2], ((0, 0, 1), (1, 0, 2), (1, 0, 2)))
        doubled = WeightedHasseDiagram(3, "weak", "nabla", g.ranks, steps)
        assert w0_symmetry_check(doubled) == (
            False,
            {"edge": "123->132", "weight": "missing", "mirror": "312->321", "mirror_weight": "2"},
        )


def mirror_doubles():
    """The perturbed diagrams of the w0 tests, as (ranks, steps) by name,
    and two more: a triple doubled in the middle step, which only the last
    rank of the half scan reads, and a weight raised only above the middle
    rank."""
    g = build_hasse(3, "weak", "nabla")
    raised = [list(step) for step in g._steps]
    r, c, wt = raised[0][0]
    raised[0][0] = (r, c, wt + 1)
    g4 = build_hasse(4, "weak", "nabla")
    above = [list(step) for step in g4._steps]
    r, c, wt = above[4][0]
    above[4][0] = (r, c, wt + 1)
    return {
        "shuffled ranks": ((g.ranks[0], g.ranks[1][::-1], *g.ranks[2:]), g._steps),
        "doubled triple": (g.ranks, (((0, 0, 2), (0, 0, 2), (0, 1, 1)), *g._steps[1:])),
        "raised weight": (g.ranks, tuple(map(tuple, raised))),
        "missing triple": (g.ranks, (*g._steps[:2], ((0, 0, 1),))),
        "repeated mirror": (g.ranks, (*g._steps[:2], ((0, 0, 1), (1, 0, 2), (1, 0, 2)))),
        "doubled triple in the middle step": (
            g.ranks,
            (g._steps[0], tuple(g._steps[1])[:1] * 2 + tuple(g._steps[1])[1:], g._steps[2]),
        ),
        "raised weight above the middle": (g4.ranks, tuple(map(tuple, above))),
    }


class TestHalfMirrorScan:
    @pytest.mark.parametrize("name", list(mirror_doubles()))
    def test_equals_the_full_scan(self, name):
        ranks, steps = mirror_doubles()[name]
        sizes = [len(stratum) for stratum in ranks]
        full = _mirror_scan(steps, list(steps), sizes)
        assert _mirror_scan(steps, steps, sizes) == full
        assert (full is None) == (name == "shuffled ranks")

    def test_change_above_the_middle_is_reported_at_its_mirror_rank(self):
        # step 4 of S_4 (N = 6) mirrors step 1, the last read is step 2;
        # the witness is the parent's full-scan witness
        ranks, steps = mirror_doubles()["raised weight above the middle"]
        g = WeightedHasseDiagram(4, "weak", "nabla", ranks, steps)
        assert _mirror_scan(steps, steps, [len(stratum) for stratum in ranks]) == (1, (1, 4, 1), 2)
        assert w0_symmetry_check(g) == (
            False,
            {"edge": "1324->3124", "weight": "1", "mirror": "2431->4231", "mirror_weight": "2"},
        )

    def test_suite_reports_an_extra_triple_above_the_middle(self, monkeypatch):
        # a second triple at place (0, 0) of step 4 of the strong order on
        # S_4, weighing 7 as code and 1 as chevalley, in every view of the
        # step the builder makes; each system fails at rank 1 with the full
        # scan's witness of the parent
        real = hasse_module._step
        extra = {"code": 7, "chevalley": 1, ("code", "chevalley"): (7, 1)}

        def step(n, order, weights, k):
            made = real(n, order, weights, k)
            return tuple(made) + ((0, 0, extra[weights]),) if (n, order, k) == (4, "strong", 4) else made

        monkeypatch.setattr(hasse_module, "_step", step)
        report = verify_w0_symmetry(4)
        assert report["checked"] == 154
        edge = {"edge": "2134->3124", "mirror": "2431->3421"}
        assert report["failures"] == [
            {"witness": "strong/code", **edge, "weight": "1", "mirror_weight": "7"},
            {"witness": "strong/chevalley", **edge, "weight": "2", "mirror_weight": "1"},
        ]

    def test_suite_builds_each_step_once(self, monkeypatch):
        # one scan per order, the strong one for both weights at once
        real, made = hasse_module._step, []

        def spy(n, order, weights, k):
            made.append((order, k))
            return real(n, order, weights, k)

        monkeypatch.setattr(hasse_module, "_step", spy)
        for n in range(1, 7):
            made.clear()
            assert verify_w0_symmetry(n)["failures"] == []
            top = num_inversions_max(n)
            assert sorted(made) == [(order, k) for order in ("strong", "weak") for k in range(top)], n


class TestStreamedSteps:
    @pytest.mark.parametrize("order,weights", [("weak", "nabla"), ("strong", "code"), ("strong", "chevalley")])
    def test_steps_on_demand_equal_the_oracle(self, order, weights):
        # each step is the one step class of snf, as hasse._step makes it
        for n in range(1, 8):
            g = _streamed(n, order, weights)
            assert all(type(g._steps[k]) is SparseStep for k in range(len(g._steps))), n
            assert tuple(g._steps[k] for k in range(len(g._steps))) == reference_steps(n, order, weights), n
            assert tuple(tuple(map(tuple, g.ranks[k])) for k in range(len(g.ranks))) == reference_ranks(n), n

    @pytest.mark.parametrize("order,weights", ALL_SYSTEMS)
    def test_steps_read_downward_equal_the_whole_diagram(self, order, weights):
        for n in range(1, 6):
            g = _streamed(n, order, weights)
            down = [g._steps[k] for k in range(len(g._steps) - 1, -1, -1)]
            assert tuple(down[::-1]) == build_hasse(n, order, weights)._steps, n

    def test_pair_weights_are_code_and_chevalley(self):
        # one int (code) n + chevalley per triple, which the pair of weights
        # reads back from, as 1 <= chevalley < n
        for n in range(1, 7):
            pair = _streamed(n, "strong", ("code", "chevalley"))._steps
            code, chevalley = build_hasse(n, "strong", "code"), build_hasse(n, "strong", "chevalley")
            for k in range(len(pair)):
                assert pair[k] == tuple(
                    (r, c, a * n + b) for (r, c, a), (_, _, b) in zip(code._steps[k], chevalley._steps[k])
                ), (n, k)
                assert [divmod(w, n) for _, _, w in pair[k]] == [
                    (a, b) for (_, _, a), (_, _, b) in zip(code._steps[k], chevalley._steps[k])
                ], (n, k)

    def test_last_step_read_is_kept(self, monkeypatch):
        real, made = hasse_module._step, []
        monkeypatch.setattr(hasse_module, "_step", lambda *args: made.append(args) or real(*args))
        steps = _streamed(4, "strong", "code")._steps
        assert steps[3] is steps[3]
        assert steps[2] == build_hasse(4, "strong", "code")._steps[2]
        assert made == [(4, "strong", "code", 3), (4, "strong", "code", 2)]
        whole = build_hasse(4, "strong", "code")._steps
        assert steps.made == len(whole[3]) + len(whole[2])
        with pytest.raises(IndexError):
            steps[6]

    def test_negative_indices_and_slices_read_as_a_sequence(self):
        whole = build_hasse(4, "weak", "nabla")
        g = _streamed(4, "weak", "nabla")
        assert g._steps[-1] == whole._steps[-1]
        assert tuple(map(tuple, g.ranks[-2])) == whole.ranks[-2]
        for picked in (slice(1, 4), slice(None, None, -2), slice(-3, None), slice(5, 1), slice(2, 99)):
            assert tuple(g._steps[picked]) == whole._steps[picked], picked
        assert len(g._steps[1:5:2]) == 2
        with pytest.raises(IndexError):
            g._steps[-7]

    @pytest.mark.parametrize("order,weights", ALL_SYSTEMS)
    def test_public_readers_agree_on_streamed_and_whole_diagrams(self, order, weights):
        for n in range(1, 6):
            lazy, whole = _streamed(n, order, weights), build_hasse(n, order, weights)
            top = whole.top_rank
            for low in range(top + 1):
                for high in range(low, top + 1):
                    assert layer_matrix(lazy, low, high) == layer_matrix(whole, low, high), (n, low, high)
            every = [w for stratum in whole.ranks for w in stratum]
            for u, v in itertools.product(every, (whole.ranks[top // 2][-1], whole.ranks[-1][0])):
                assert weighted_path_count(lazy, u, v) == weighted_path_count(whole, u, v), (n, u, v)
                assert weighted_path_count(lazy, v, u) == weighted_path_count(whole, v, u), (n, v, u)

    def test_bad_input_raises_before_anything_is_made(self):
        with pytest.raises(ValueError, match="incompatible"):
            _streamed(0, "weak", "code")
        with pytest.raises(ValueError, match="n must be positive: 0"):
            _streamed(0, "weak", "nabla")
        with pytest.raises(ValueError, match="unknown weight system"):
            _streamed(3, "strong", ("code", "lengths"))


class TestExports:
    def test_json_shape(self):
        doc = diagram_to_json(build_hasse(3, "strong", "code"))
        assert doc["n"] == 3
        assert doc["order"] == "strong"
        assert doc["ranks"][0] == ["123"]
        assert ["132", "312", "3"] in doc["edges"]
        assert all(isinstance(e[2], str) for e in doc["edges"])

    def test_dot_shape(self):
        dot = diagram_to_dot(build_hasse(3, "weak", "nabla"))
        assert dot.startswith("digraph")
        assert '"123" -> "132" [label="2"];' in dot
        assert "rank=same" in dot
        assert dot.rstrip().endswith("}")

    @pytest.mark.parametrize("order,weights", ALL_SYSTEMS)
    def test_json_chunks_are_the_indented_document(self, order, weights):
        for n in range(1, 6):
            g = build_hasse(n, order, weights)
            assert "".join(_chunks(g, "json")) == json.dumps(diagram_to_json(g), indent=2) + "\n", n
