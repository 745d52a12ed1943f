"""Differential operators as matrices: graph agreement, sl2, dualities."""

import math

import pytest

import bruhatops.chains as chains
import bruhatops.hasse as hasse_module
import bruhatops.operators as operators
from bruhatops.chains import dm_layer_matrix, um_layer_matrix
from bruhatops.hasse import build_hasse, layer_matrix, weighted_path_count
from bruhatops.operators import (
    commutator_check,
    delta_action_chunk,
    differential_layer_matrix,
    macdonald_chunk,
    nabla_action_chunk,
    path_identities_chunk,
    verify_delta_theorem,
    verify_macdonald,
    verify_nabla_theorem,
    verify_path_identities,
)
from bruhatops.permutations import (
    identity,
    longest_element,
    num_inversions_max,
    permutations_by_rank,
    permutations_of_rank,
    to_string,
    w0_times,
)
from bruhatops.schubert import (
    PaddedPolynomial,
    apply_delta,
    apply_nabla,
    basis_matrix_inverse,
    expand_in_padded_schubert_basis,
    monomials_of_rank,
    pad,
    principal_specialization,
    schubert,
    staircase,
)
from bruhatops.snf import SparseStep, _sl2_scan, transpose

from oracles import basis_matrix, identity_matrix, matmul


def dense_monomial_step(operator, n, k):
    """Oracle step rank k -> k+1, rows = rank k, from the operator actions
    on single padded monomials."""
    low, high = monomials_of_rank(n, k), monomials_of_rank(n, k + 1)
    if operator == "delta":
        images = [apply_delta(PaddedPolynomial(n, {a: 1})).terms for a in low]
        return [[img.get(b, 0) for b in high] for img in images]
    # lowering moves down: entry (a, b) is the coefficient of x^a in nabla x^b
    images = [apply_nabla(PaddedPolynomial(n, {b: 1})).terms for b in high]
    return [[img.get(a, 0) for img in images] for a in low]


def dense_monomial_layer(operator, n, low, high):
    out = identity_matrix(len(monomials_of_rank(n, low)))
    for k in range(low, high):
        out = matmul(out, dense_monomial_step(operator, n, k))
    return out


def conjugated_layer(operator, n, low, high):
    """Oracle: the dense monomial layer conjugated by the dense change of
    basis, S_low . mono . S_high^-1 for delta and the transposed form
    (S_low^-1)^T . mono . S_high^T for nabla."""
    mono = dense_monomial_layer(operator, n, low, high)
    dense = lambda rows: [list(r) for r in rows]
    if operator == "delta":
        return matmul(matmul(dense(basis_matrix(n, low)), mono), dense(basis_matrix_inverse(n, high)))
    return matmul(
        matmul(transpose(dense(basis_matrix_inverse(n, low))), mono),
        transpose(dense(basis_matrix(n, high))),
    )


def per_permutation_report(operator, n, perms):
    """Oracle for the action suites: apply the operator to each padded
    Schubert polynomial, expand the image in the padded Schubert basis and
    compare it with the covers of w read off ``edges`` of the diagram that
    ``operators.build_hasse`` returns."""
    up = operator == "delta"
    g = operators.build_hasse(n, *(("strong", "code") if up else ("weak", "nabla")))
    apply = apply_delta if up else apply_nabla
    covers = {}
    for src, dst, wt in g.edges:
        at, to = (src, dst) if up else (dst, src)
        covers.setdefault(at, {})[to] = wt
    checked, unit_reading_ok, failures = 0, True, []
    for w in perms:
        expected = covers.get(w, {})
        actual = expand_in_padded_schubert_basis(apply(pad(schubert(w))))
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
    if up:
        return {"suite": "delta-action", "n": n, "checked": checked, "failures": failures}
    return {
        "suite": "nabla-action",
        "n": n,
        "weight_convention": "cover by s_i carries coefficient i",
        "unit_weight_reading_consistent": unit_reading_ok,
        "checked": checked,
        "failures": failures,
    }


def padded_commutator_check(n):
    """Oracle for the sl2 suite: the scan of ``commutator_check`` on the
    padded Schubert steps that ``operators._padded_step`` returns, where
    every Schubert polynomial is pushed through a monomial step and peeled
    back.  It checks [delta, nabla] = 2k - N in the padded basis itself."""
    top = num_inversions_max(n)
    step = operators._padded_step
    sizes = [len(permutations_of_rank(n, k)) for k in range(top + 1)]
    return _sl2_scan([step("delta", n, k) for k in range(top)], [step("nabla", n, k) for k in range(top)], sizes)


def bump_padded_raising_step(monkeypatch, k, triple):
    """Add ``triple`` to the padded delta step k that ``operators._padded_step``
    returns from here on."""
    real = operators._padded_step
    bumped = lambda op, n, j: tuple(real(op, n, j)) + ((triple,) if (op, j) == ("delta", k) else ())
    monkeypatch.setattr(operators, "_padded_step", bumped)


ACTION_SUITES = {"nabla": verify_nabla_theorem, "delta": verify_delta_theorem}


def spy_steps(monkeypatch):
    """The (order, weights, k) of every step ``hasse._step``, the one step
    builder, makes from here on, in the order made."""
    real, built = hasse_module._step, []

    def step(n, order, weights, k):
        built.append((order, weights, k))
        return real(n, order, weights, k)

    monkeypatch.setattr(hasse_module, "_step", step)
    return built


def test_suites_are_the_functions_the_tracer_names():
    # perfbench/tracer.py wraps the *_chunk names, and replaces every
    # binding of the same object, so the verify_* names are traced too
    assert verify_nabla_theorem is nabla_action_chunk
    assert verify_delta_theorem is delta_action_chunk
    assert verify_path_identities is path_identities_chunk
    assert verify_macdonald is macdonald_chunk


class TestGraphAgreement:
    """The padded-basis differential composite must reproduce the weighted
    path-count matrices of the matching cover diagram, entry for entry."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_delta_equals_strong_code_layers(self, n):
        g = build_hasse(n, "strong", "code")
        for low in range(g.top_rank + 1):
            for high in range(low, g.top_rank + 1):
                assert differential_layer_matrix("delta", n, low, high) == layer_matrix(g, low, high)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nabla_equals_weak_layers(self, n):
        g = build_hasse(n, "weak", "nabla")
        for low in range(g.top_rank + 1):
            for high in range(low, g.top_rank + 1):
                assert differential_layer_matrix("nabla", n, low, high) == layer_matrix(g, low, high)

    def test_printed_example_window(self):
        # the single possible simultaneous reordering of the printed 2x2
        # matrices: rows (213, 132), columns (231, 312)
        delta = differential_layer_matrix("delta", 3, 1, 2)
        nabla = differential_layer_matrix("nabla", 3, 1, 2)
        assert delta == [[1, 3], [1, 1]]
        assert nabla == [[0, 1], [2, 0]]
        reorder = lambda m: [[m[1][0], m[1][1]], [m[0][0], m[0][1]]]
        assert reorder(delta) == [[1, 1], [1, 3]]
        assert reorder(nabla) == [[2, 0], [0, 1]]

    @pytest.mark.parametrize("operator", ["delta", "nabla"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_monomial_layers_match_dense_step_product(self, operator, n):
        # in the monomial basis raising is the box's lowering layer at the
        # staircase, and lowering its raising layer
        layer = dm_layer_matrix if operator == "delta" else um_layer_matrix
        top = num_inversions_max(n)
        for low in range(top + 1):
            for high in range(low, top + 1):
                assert layer(staircase(n), low, high) == dense_monomial_layer(
                    operator, n, low, high
                ), (low, high)

    @pytest.mark.parametrize("operator", ["delta", "nabla"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_padded_windows_match_dense_conjugation(self, operator, n):
        top = num_inversions_max(n)
        for low in range(top + 1):
            for high in range(low, top + 1):
                assert differential_layer_matrix(operator, n, low, high) == conjugated_layer(
                    operator, n, low, high
                ), (low, high)

    @pytest.mark.parametrize("operator", ["delta", "nabla"])
    def test_padded_single_steps_match_dense_conjugation_n6(self, operator):
        # each padded step is the one step class of snf, with the triples of
        # the diagram's step: in its order for delta, and column by column,
        # as the lowering step is read, for nabla
        order, weights = ("strong", "code") if operator == "delta" else ("weak", "nabla")
        for k in range(num_inversions_max(6)):
            assert differential_layer_matrix(operator, 6, k, k + 1) == conjugated_layer(operator, 6, k, k + 1), k
            step = operators._padded_step(operator, 6, k)
            want = list(hasse_module._step(6, order, weights, k))
            assert type(step) is SparseStep, k
            assert list(step) == (want if operator == "delta" else sorted(want, key=lambda t: (t[1], t[0]))), k

    def test_monomial_window_validation(self):
        with pytest.raises(ValueError):
            dm_layer_matrix(staircase(3), 2, 1)
        with pytest.raises(ValueError):
            dm_layer_matrix(staircase(3), 0, 4)

    def test_padded_layer_validation(self):
        with pytest.raises(ValueError, match="unknown operator"):
            differential_layer_matrix("gradient", 3, 0, 1)
        with pytest.raises(ValueError, match="positive"):
            differential_layer_matrix("nabla", 0, 0, 0)
        with pytest.raises(ValueError):
            differential_layer_matrix("delta", 3, 2, 1)
        with pytest.raises(ValueError):
            differential_layer_matrix("delta", 3, 0, 4)


class TestActionTheorems:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nabla_action(self, n):
        report = verify_nabla_theorem(n)
        assert report["failures"] == []
        assert report["checked"] == len(build_hasse(n, "weak", "nabla").edges)

    def test_nabla_unit_reading_refuted_beyond_n2(self):
        assert verify_nabla_theorem(2)["unit_weight_reading_consistent"] is True
        assert verify_nabla_theorem(3)["unit_weight_reading_consistent"] is False

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_delta_action(self, n):
        report = verify_delta_theorem(n)
        assert report["failures"] == []
        assert report["checked"] == len(build_hasse(n, "strong", "code").edges)


class TestActionStepsAgainstPerPermutationRoute:
    """The action suites compare padded steps with diagram steps; the
    per-permutation expansion is the independent route."""

    @pytest.mark.parametrize("operator", ["nabla", "delta"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_whole_report_equals_the_per_permutation_route(self, operator, n):
        perms = [w for stratum in permutations_by_rank(n) for w in stratum]
        assert ACTION_SUITES[operator](n) == per_permutation_report(operator, n, perms)

    @pytest.mark.parametrize(
        "operator,order,weights", [("nabla", "weak", "nabla"), ("delta", "strong", "code")]
    )
    def test_bumped_weight_gives_the_same_failures(self, raise_weight, operator, order, weights):
        raise_weight(4, order, weights, 2, 1)
        perms = [w for stratum in permutations_by_rank(4) for w in stratum]
        got = ACTION_SUITES[operator](4)
        assert len(got["failures"]) == 1
        assert got == per_permutation_report(operator, 4, perms)

    def test_every_raised_weak_weight_fails_the_certificate(self, raise_weight):
        # each of the 36 triples of weak/nabla at n=4, raised by one, fails
        # (a) or (b), and the suite reports it by the direct route
        perms = [w for stratum in permutations_by_rank(4) for w in stratum]
        triples = [(k, t) for k, step in enumerate(build_hasse(4, "weak", "nabla")._steps) for t in range(len(step))]
        assert len(triples) == 36
        for k, t in triples:
            raise_weight(4, "weak", "nabla", k, t)
            assert operators._nabla_certificate(4)[0] is False, (k, t)
            got = verify_nabla_theorem(4)
            assert len(got["failures"]) == 1, (k, t)
            assert got == per_permutation_report("nabla", 4, perms), (k, t)

    def test_every_raised_strong_weight_fails_the_commutator(self, raise_weight):
        perms = [w for stratum in permutations_by_rank(4) for w in stratum]
        triples = [(k, t) for k, step in enumerate(build_hasse(4, "strong", "code")._steps) for t in range(len(step))]
        assert len(triples) == 58
        for k, t in triples:
            raise_weight(4, "strong", "code", k, t)
            assert operators._nabla_certificate(4) == (True, (36, False))
            assert commutator_check(4)[0] is False, (k, t)
            got = verify_delta_theorem(4)
            assert len(got["failures"]) == 1, (k, t)
            assert got == per_permutation_report("delta", 4, perms), (k, t)

    def test_certificate_witnesses(self, monkeypatch, raise_weight):
        # at n=2 only the top check sees the one weight; at n=3 a raised
        # weight below w0 shows first at the lowest rank that reads it
        raise_weight(2, "weak", "nabla", 0, 0)
        assert operators._nabla_certificate(2) == (False, {"rank": 1, "expected": "1", "actual": "2"})
        raise_weight(3, "weak", "nabla", 1, 0)
        assert operators._nabla_certificate(3) == (False, {"rank": 1, "permutation": "213", "ascent": 2})
        # a repeated place in step 0 of weak/nabla at n=3, ((0, 0, 2), (0, 1, 1)),
        # or a zero weight where step 1 has no triple, fails where it is read
        real = hasse_module._step
        for k, extra in ((0, (0, 0, 2)), (1, (0, 0, 0))):

            def step(*key, k=k, extra=extra):
                return tuple(real(*key)) + ((extra,) if key == (3, "weak", "nabla", k) else ())

            monkeypatch.setattr(hasse_module, "_step", step)
            r, c, wt = extra
            assert operators._nabla_certificate(3) == (False, {"rank": k, "entry": [r, c], "weight": str(wt)})


class TestActionCertificates:
    """The certificate route against the direct route, on working code."""

    @pytest.mark.parametrize("operator", ["nabla", "delta"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_certified_report_equals_the_direct_route(self, operator, n):
        # the certificate returns the weak triples it read and whether every
        # weight is 1, which is all the nabla report takes from it
        weak_edges = [0, 1, 6, 36, 240, 1800][n - 1]
        assert operators._nabla_certificate(n) == (True, (weak_edges, n <= 2))
        if operator == "delta":
            assert commutator_check(n) == (True, None)
        assert ACTION_SUITES[operator](n) == operators._action_report(operator, n)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_nabla_action_builds_each_weak_step_once(self, monkeypatch, n):
        built = spy_steps(monkeypatch)
        verify_nabla_theorem(n)
        assert built == [("weak", "nabla", k) for k in range(num_inversions_max(n))]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_delta_action_builds_each_strong_step_once(self, monkeypatch, n):
        built = spy_steps(monkeypatch)
        verify_delta_theorem(n)
        strong = [key for key in built if key[0] == "strong"]
        assert strong == [("strong", "code", k) for k in range(num_inversions_max(n))]

    @pytest.mark.parametrize("operator", ["nabla", "delta"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_suites_build_no_table_and_no_whole_diagram(self, operator, n, no_schubert_table, no_whole_diagram):
        edges = {"nabla": [0, 1, 6, 36, 240, 1800], "delta": [0, 1, 8, 58, 444, 3708]}[operator][n - 1]
        want = {"suite": f"{operator}-action", "n": n}
        if operator == "nabla":
            want["weight_convention"] = "cover by s_i carries coefficient i"
            want["unit_weight_reading_consistent"] = n <= 2
        assert ACTION_SUITES[operator](n) == {**want, "checked": edges, "failures": []}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_delta_action_reads_no_box_step(self, monkeypatch, no_schubert_table, n):
        # [delta, nabla] = 2k - N on the monomials is cited, not scanned: with
        # the chain module's box steps refused, delta-action still proves its
        # report; the direct route binds the steps by name and is unaffected
        def refuse(M, k):
            raise AssertionError(f"box step {k} of {M} was read")

        monkeypatch.setattr(chains, "_um_step", refuse)
        monkeypatch.setattr(chains, "_dm_step", refuse)
        chains._sl2_holds.cache_clear()
        edges = [0, 1, 8, 58, 444, 3708][n - 1]
        assert verify_delta_theorem(n) == {"suite": "delta-action", "n": n, "checked": edges, "failures": []}

    def test_repeated_place_or_zero_weight_takes_the_direct_route(self, monkeypatch):
        # step 0 of strong/code at n=3 is ((0, 0, 1), (0, 1, 1)); an extra zero
        # triple, or its first triple split in two, is the same matrix, so
        # every certificate holds, but the direct route reads the triples
        # otherwise and names the witness; so does a zero triple, in order,
        # at the place (0, 3) that step 1 at n=4 leaves empty; the two
        # triples swapped are the same map out of the builder's order, which
        # the direct route passes
        real = hasse_module._step
        assert real(3, "strong", "code", 0) == ((0, 0, 1), (0, 1, 1))
        step41 = tuple(real(4, "strong", "code", 1))
        assert step41[2:4] == ((0, 2, 1), (1, 0, 1))
        for n, k, made, failures in (
            (3, 0, ((0, 0, 1), (0, 0, 0), (0, 1, 1)), 1),
            (3, 0, ((0, 0, 2), (0, 0, -1), (0, 1, 1)), 1),
            (4, 1, step41[:3] + ((0, 3, 0),) + step41[3:], 1),
            (3, 0, ((0, 1, 1), (0, 0, 1)), 0),
        ):

            def step(*key, at=(n, "strong", "code", k), made=made):
                return made if key == at else real(*key)

            monkeypatch.setattr(hasse_module, "_step", step)
            hasse_module.build_hasse.cache_clear()
            assert commutator_check(n) == (True, None)
            got = verify_delta_theorem(n)
            assert got == operators._action_report("delta", n)
            assert len(got["failures"]) == failures
        hasse_module.build_hasse.cache_clear()


class TestCitedCommutator:
    """[delta, nabla] = 2|alpha| - N on the padded monomials, which the delta
    certificate cites from the gl2 action on polynomials."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_on_every_padded_monomial(self, n):
        top = num_inversions_max(n)
        for k in range(top + 1):
            for alpha in monomials_of_rank(n, k):
                x = PaddedPolynomial(n, {alpha: 1})
                got = apply_delta(apply_nabla(x)) - apply_nabla(apply_delta(x))
                assert got == x.scaled(2 * k - top), alpha

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_box_scan_of_the_staircase(self, n):
        assert chains._sl2_holds(staircase(n)) is True


class TestCommutator:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sl2_relation(self, n):
        assert commutator_check(n) == (True, None)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_diagram_duality_matches_padded_route(self, n):
        assert commutator_check(n) == padded_commutator_check(n) == (True, None)

    def test_witness_names_first_failing_entry(self, monkeypatch, bump_raising_step):
        # rank 1 picks up -V_1 D_1^T; with V_1 = [[0, 1], [2, 0]] the extra
        # triple bumps D_1[0][0], which shifts entry (1, 0) from 0 to -2 and
        # leaves (0, 0) alone; the padded route, bumped alike, agrees
        witness = {"rank": 1, "entry": [1, 0], "expected": "0", "actual": "-2"}
        bump_raising_step(3, 1, (0, 0, 1))
        assert commutator_check(3) == (False, witness)
        bump_padded_raising_step(monkeypatch, 1, (0, 0, 1))
        assert padded_commutator_check(3) == (False, witness)

    def test_witness_seen_only_through_raise_then_lower(self, monkeypatch, bump_raising_step):
        # the entry (2, 0) on rank 2 is nonzero in V_2 D_2^T alone, so the
        # scan over row 2 must reach columns that only that product fills;
        # the witness matches the dense product D^T V - V D^T
        witness = {"rank": 2, "entry": [2, 0], "expected": "0", "actual": "-2"}
        bump_raising_step(4, 2, (0, 2, 1))
        assert commutator_check(4) == (False, witness)
        bump_padded_raising_step(monkeypatch, 2, (0, 2, 1))
        assert padded_commutator_check(4) == (False, witness)

    # the first failure at n = 3, 4, 5 with the other compatible weights,
    # as (rank, expected, actual), each at entry (0, 0) of its rank
    @pytest.mark.parametrize(
        "strong,weak,firsts",
        [
            ("code", "unit", [(0, -3, -2), (0, -6, -3), (0, -10, -4)]),
            ("chevalley", "nabla", [(1, -1, 1), (1, -4, 0), (1, -8, -2)]),
            ("chevalley", "unit", [(0, -3, -2), (0, -6, -3), (0, -10, -4)]),
            ("unit", "nabla", [(1, -1, 1), (1, -4, 0), (1, -8, -2)]),
            ("unit", "unit", [(0, -3, -2), (0, -6, -3), (0, -10, -4)]),
        ],
    )
    def test_only_code_and_nabla_weights_are_dual(self, monkeypatch, strong, weak, firsts):
        # every step is made with the other weights, through the one builder
        pick = {"strong": strong, "weak": weak}
        real = hasse_module._step
        monkeypatch.setattr(hasse_module, "_step", lambda n, o, w, k: real(n, o, pick[o], k))
        for n, (rank, want, got) in zip((3, 4, 5), firsts):
            witness = {"rank": rank, "entry": [0, 0], "expected": str(want), "actual": str(got)}
            assert commutator_check(n) == (False, witness), n


class TestPathIdentities:
    def test_five_way_frozen_u132(self):
        strong = build_hasse(3, "strong", "code")
        weak = build_hasse(3, "weak", "nabla")
        u = (1, 3, 2)
        w0 = longest_element(3)
        eps = identity(3)
        s = principal_specialization(schubert(u))
        assert s == 2
        assert weighted_path_count(strong, u, w0) == s * math.factorial(3 - 1)
        assert weighted_path_count(weak, eps, u) == s * math.factorial(1)
        assert weighted_path_count(strong, eps, w0_times(u)) == s * math.factorial(2)
        assert weighted_path_count(weak, w0_times(u), w0) == s * math.factorial(1)

    def test_identity_permutation_all_ones(self):
        strong = build_hasse(3, "strong", "code")
        weak = build_hasse(3, "weak", "nabla")
        eps = identity(3)
        w0 = longest_element(3)
        n_fact = math.factorial(3)
        assert weighted_path_count(strong, eps, w0) == n_fact
        assert weighted_path_count(weak, eps, w0) == n_fact

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_suite_passes(self, n):
        report = verify_path_identities(n)
        assert report["failures"] == []
        assert report["checked"] == 4 * math.factorial(n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_macdonald(self, n):
        report = verify_macdonald(n)
        assert report["failures"] == []
        assert report["checked"] == math.factorial(n)

    def test_macdonald_frozen_u231(self):
        weak = build_hasse(3, "weak", "nabla")
        assert weighted_path_count(weak, (1, 2, 3), (2, 3, 1)) == 2
        assert math.factorial(2) * principal_specialization(schubert((2, 3, 1))) == 2

    def test_suites_build_no_polynomial(self, no_schubert_table):
        assert verify_macdonald(5)["failures"] == []
        assert verify_path_identities(5)["failures"] == []

    def test_bumped_specialization_fails_each_label_once(self, monkeypatch):
        # S_1324(1) = 2, read as 3: l = 1 and (N - l)! = 5! = 120
        real = operators._specialization_table
        u = (1, 3, 2, 4)

        def bumped(n):
            for k, values in enumerate(real(n)):
                yield [v + (w == u) for w, v in zip(permutations_of_rank(n, k), values)]

        monkeypatch.setattr(operators, "_specialization_table", bumped)
        assert verify_path_identities(4)["failures"] == [
            {"witness": "1324: raising count u to top over (N-l)!", "expected": "360", "actual": "240"},
            {"witness": "1324: lowering count bottom to u over l!", "expected": "3", "actual": "2"},
            {"witness": "1324: raising count bottom to w0*u over (N-l)!", "expected": "360", "actual": "240"},
            {"witness": "1324: lowering count w0*u to top over l!", "expected": "3", "actual": "2"},
        ]
        assert verify_macdonald(4)["failures"] == [{"witness": "1324", "expected": "3", "actual": "2"}]

    @pytest.mark.parametrize("chunk", [path_identities_chunk, macdonald_chunk])
    def test_chunk_walks_the_strata_and_validates_nothing(self, chunk, validated_calls):
        # the permutations come from the enumeration, so none is checked again
        chunk(5)  # fills the caches of the diagrams and S_u(1)
        validated_calls.clear()
        assert chunk(5)["failures"] == []
        assert validated_calls == []

    @pytest.mark.parametrize("order,weights", [("strong", "code"), ("strong", "chevalley"), ("weak", "nabla")])
    def test_total_count_is_factorial_of_top(self, order, weights):
        # all three systems agree on the bottom-to-top weighted count
        for n in (2, 3, 4, 5):
            g = build_hasse(n, order, weights)
            want = math.factorial(num_inversions_max(n))
            assert weighted_path_count(g, identity(n), longest_element(n)) == want


def transpose_duality_check(n, low, high):
    """Two mirror dualities between the windows [low, high] and
    [N-high, N-low].

    In the monomial basis the raising composite over the complementary
    window is the transpose of the lowering composite under the exponent
    complement alpha -> rho - alpha; in the padded Schubert basis the two
    raising composites are transposes under the relabeling w -> w0*w.
    """
    top = num_inversions_max(n)
    rho = staircase(n)

    nab = um_layer_matrix(rho, low, high)
    dl = dm_layer_matrix(rho, top - high, top - low)
    lo_monos = monomials_of_rank(n, low)
    hi_monos = monomials_of_rank(n, high)
    co_lo = {m: i for i, m in enumerate(monomials_of_rank(n, top - high))}
    co_hi = {m: i for i, m in enumerate(monomials_of_rank(n, top - low))}
    for a, alpha in enumerate(lo_monos):
        for b, beta in enumerate(hi_monos):
            r = co_lo[tuple(x - y for x, y in zip(rho, beta))]
            c = co_hi[tuple(x - y for x, y in zip(rho, alpha))]
            if nab[a][b] != dl[r][c]:
                return False

    pad_lo = differential_layer_matrix("delta", n, low, high)
    pad_hi = differential_layer_matrix("delta", n, top - high, top - low)
    co_lo_p = {w: i for i, w in enumerate(permutations_of_rank(n, top - high))}
    co_hi_p = {w: i for i, w in enumerate(permutations_of_rank(n, top - low))}
    # the row of w0*v and the column of w0*u in the complementary window
    rows = [co_lo_p[w0_times(v)] for v in permutations_of_rank(n, high)]
    cols = [co_hi_p[w0_times(u)] for u in permutations_of_rank(n, low)]
    for a, c in enumerate(cols):
        for b, r in enumerate(rows):
            if pad_lo[a][b] != pad_hi[r][c]:
                return False
    return True


class TestTransposeDuality:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_windows(self, n):
        top = num_inversions_max(n)
        for low in range(top + 1):
            for high in range(low, top + 1):
                if low + high <= top:
                    assert transpose_duality_check(n, low, high), (n, low, high)
