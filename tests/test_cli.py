"""Command line behavior: exit codes, formats, determinism, parallel runs."""

import importlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bruhatops.cli as cli
import bruhatops.schubert as schubert_module
from bruhatops.cli import SUITES, main

from conftest import clear_chain_caches


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_verify_success_is_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "sl2", "--n", "3")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_incompatible_weights_usage_error(self, capsys):
        code, _, err = run(capsys, "hasse", "--n", "3", "--order", "weak", "--weights", "code")
        assert code == 2
        assert "incompatible" in err

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "everything"])
        assert exc.value.code == 2

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "macdonald")
        assert code == 2
        assert "--n" in err

    def test_bad_snf_window_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "snf", "--n", "3", "--from", "2", "--to", "3")
        assert code == 2
        assert out == ""
        assert err == "error: need 0 <= l < l' and l + l' <= 3, got (2, 3)\n"

    def test_half_specified_window_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "snf", "--n", "3", "--from", "1")
        assert code == 2
        assert "together" in err

    def test_cap_exceeded_without_force(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "macdonald", "--n", "9")
        assert code == 2
        assert "--force" in err

    def test_bad_permutation_is_usage_error(self, capsys):
        code, _, err = run(capsys, "schubert", "--perm", "1224")
        assert code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected_by_parser(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "sl2", "--n", "3", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sl2_failure_names_its_witness(self, capsys, bump_raising_step):
        bump_raising_step(3, 1, (0, 0, 1))
        code, out, _ = run(capsys, "verify", "--suite", "sl2", "--n", "3")
        assert code == 1
        assert json.loads(out)["reports"][0]["failures"] == [
            {"witness": "commutator", "rank": 1, "entry": [1, 0], "expected": "0", "actual": "-2"}
        ]

    def test_chains_failures_name_their_witness(self, capsys, monkeypatch, split_lowering_triple):
        import bruhatops.chains as chains

        # chains-det takes no determinant while the sl2 certificate holds, so
        # its mirror scan is made to fail and the windows fall back to the
        # determinant, which lies
        split_lowering_triple(0)
        monkeypatch.setattr(chains, "determinant", lambda mat: -3)
        clear_chain_caches()
        code, out, _ = run(capsys, "verify", "--suite", "chains-det", "--M", "2,1")
        assert code == 1
        assert json.loads(out)["reports"][0]["failures"] == [
            {"witness": "raising[0,3]", "expected": "6", "actual": "3"},
            {"witness": "raising[1,2]", "expected": "2", "actual": "3"},
        ]
        code, out, _ = run(capsys, "verify", "--suite", "chains-basis", "--M", "1")
        assert code == 1
        assert json.loads(out)["reports"][0]["failures"] == [
            {"witness": "rank 0", "expected": "unimodular", "determinant": "-3"},
            {"witness": "rank 1", "expected": "unimodular", "determinant": "-3"},
        ]

    @pytest.mark.parametrize("suite", sorted(s for s, (_, _, cap) in cli._SUITES.items() if cap is not None))
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one_is_usage_error(self, capsys, suite, n):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", n)
        assert code == 2
        assert out == ""
        assert err == f"error: n must be positive: {n}\n"

    def test_snf_at_n1_checks_no_window(self, capsys):
        # S_1 has a single rank, so there is no window l < l'
        code, out, _ = run(capsys, "verify", "--suite", "snf", "--n", "1")
        assert code == 0
        assert json.loads(out) == {"ok": True, "reports": []}

    def test_chains_suite_needs_profile(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "chains-basis")
        assert code == 2
        assert "--M" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["nabla-action", "--n", "3", "--M", "2,1"], "suite 'nabla-action' takes --n, not --M"),
            (["snf", "--n", "3", "--M", "2,1"], "suite 'snf' takes --n, not --M"),
            (["chains-det", "--M", "2,1", "--n", "3"], "suite 'chains-det' takes --M, not --n"),
            (["chains-snf", "--M", "2,1", "--n", "3"], "suite 'chains-snf' takes --M, not --n"),
            (["nabla-action", "--n", "3", "--from", "1", "--to", "2"], "suite 'nabla-action' takes no --from or --to"),
            (["sl2", "--n", "3", "--from", "1"], "suite 'sl2' takes no --from or --to"),
            (["chains-basis", "--M", "2,1", "--to", "2"], "suite 'chains-basis' takes no --from or --to"),
            (["chains-basis", "--M", "2,1", "--force"], "suite 'chains-basis' takes no --force"),
            (["chains-snf", "--M", "2,1", "--force"], "suite 'chains-snf' takes no --force"),
            (["chains-det", "--M", "2,1", "--force"], "suite 'chains-det' takes no --force"),
        ],
    )
    def test_option_the_suite_ignores_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", "--suite", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestHasseCommand:
    def test_json_default(self, capsys):
        code, out, _ = run(capsys, "hasse", "--n", "3", "--order", "weak", "--weights", "nabla")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3
        assert ["123", "132", "2"] in doc["edges"]

    @pytest.mark.parametrize("n", [1, 4])
    def test_json_is_the_indented_document(self, capsys, n):
        from bruhatops.hasse import build_hasse, diagram_to_json

        code, out, _ = run(capsys, "hasse", "--n", str(n), "--order", "strong", "--weights", "code")
        assert code == 0
        assert out == json.dumps(diagram_to_json(build_hasse(n, "strong", "code")), indent=2) + "\n"

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "hasse", "--n", "3", "--order", "strong", "--weights", "code", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert '"132" -> "312" [label="3"];' in out

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "hasse", "--n", "3", "--order", "weak", "--weights", "unit", "--format", "table")
        assert code == 0
        assert "123 -> 213  weight 1" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "hasse", "--n", "4", "--order", "strong", "--weights", "chevalley")
        _, second, _ = run(capsys, "hasse", "--n", "4", "--order", "strong", "--weights", "chevalley")
        assert first == second


# the commands that read only steps and ranks made on demand, at n = 5
STREAMED = {
    "hasse-json": ["hasse", "--n", "5", "--order", "strong", "--weights", "code"],
    "hasse-dot": ["hasse", "--n", "5", "--order", "weak", "--weights", "nabla", "--format", "dot"],
    "hasse-table": ["hasse", "--n", "5", "--order", "strong", "--weights", "chevalley", "--format", "table"],
    "w0-symmetry": ["verify", "--suite", "w0-symmetry", "--n", "5"],
    "macdonald": ["verify", "--suite", "macdonald", "--n", "5"],
    "path-identities": ["verify", "--suite", "path-identities", "--n", "5"],
    "sl2": ["verify", "--suite", "sl2", "--n", "5"],
}


class TestStreamedCommands:
    @pytest.mark.parametrize("name", list(STREAMED))
    def test_build_no_whole_diagram(self, capsys, request, name):
        # the same stdout as before the whole diagrams were refused; the
        # hasse output is also the whole cached diagram's, written by the
        # emitter of each format
        from bruhatops.hasse import _chunks, build_hasse

        argv = STREAMED[name]
        want = run(capsys, *argv)
        assert want[0] == 0
        if argv[0] == "hasse":
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
            assert want[1] == "".join(_chunks(build_hasse(5, argv[4], argv[6]), fmt))
        request.getfixturevalue("no_whole_diagram")
        assert run(capsys, *argv) == want


class TestVerifyCommand:
    def test_snf_report_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "snf", "--n", "3", "--from", "1", "--to", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["reports"][0]["predicted"] == ["1", "2"]
        assert doc["reports"][0]["checked"] == 4

    def test_jobs_agree_with_serial(self, capsys):
        _, serial, _ = run(capsys, "verify", "--suite", "path-identities", "--n", "4")
        _, parallel, _ = run(capsys, "verify", "--suite", "path-identities", "--n", "4", "--jobs", "2")
        assert serial == parallel

    def test_jobs_beyond_cpu_count_are_clamped(self, capsys, monkeypatch):
        import bruhatops.cli as cli

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        args = cli._build_parser().parse_args(["verify", "--suite", "sl2", "--jobs", "64"])
        assert args.jobs == 2
        _, serial, _ = run(capsys, "verify", "--suite", "delta-action", "--n", "4")
        _, many, _ = run(capsys, "verify", "--suite", "delta-action", "--n", "4", "--jobs", "64")
        assert serial == many

    def test_table_format_has_verdict_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "w0-symmetry", "--n", "3", "--format", "table")
        assert code == 0
        assert out.rstrip().endswith("verified")

    def test_chains_suites(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "chains-snf", "--M", "2,2")
        assert code == 0
        assert json.loads(out)["ok"] is True
        code, out, _ = run(capsys, "verify", "--suite", "chains-det", "--M", "3,1")
        assert code == 0
        code, out, _ = run(capsys, "verify", "--suite", "chains-basis", "--M", "2,2,1", "--jobs", "2")
        assert code == 0

    def test_force_overrides_cap_with_warning(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "snf", "--n", "6", "--from", "0", "--to", "1", "--force")
        assert code == 0
        assert "beyond the default cap" in err
        assert json.loads(out)["ok"] is True

    def test_sl2_has_its_own_cap(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "sl2", "--n", "9")
        assert (code, out) == (2, "")
        assert "capped at n = 8" in err

    def test_action_suites_are_capped_at_n8(self, capsys):
        for suite in ("nabla-action", "delta-action"):
            code, out, err = run(capsys, "verify", "--suite", suite, "--n", "9")
            assert (code, out) == (2, ""), suite
            assert "capped at n = 8" in err

    def test_all_differential_suites_pass_n3(self, capsys):
        for suite in ("nabla-action", "delta-action", "sl2"):
            code, out, _ = run(capsys, "verify", "--suite", suite, "--n", "3")
            assert code == 0, suite
            assert json.loads(out)["ok"] is True

    def test_sl2_builds_no_polynomial(self, capsys, no_schubert_table):
        from bruhatops.operators import commutator_check

        assert commutator_check(6) == (True, None)
        code, out, _ = run(capsys, "verify", "--suite", "sl2", "--n", "5")
        assert code == 0
        report = {"suite": "sl2", "n": 5, "checked": 11, "failures": []}
        assert out == json.dumps({"ok": True, "reports": [report]}, indent=2) + "\n"


# a small instance of every suite
SUITE_ARGS = {
    "nabla-action": ["--n", "4"],
    "delta-action": ["--n", "4"],
    "sl2": ["--n", "4"],
    "path-identities": ["--n", "4"],
    "macdonald": ["--n", "4"],
    "w0-symmetry": ["--n", "4"],
    "snf": ["--n", "4"],
    "chains-basis": ["--M", "2,2,1"],
    "chains-snf": ["--M", "2,2,1"],
    "chains-det": ["--M", "2,2,1"],
}

# the arguments after n or M of each job of each suite with SUITE_ARGS, as
# the spy on the suite's function sees them: every suite runs one job, but
# for the windows of snf and chains-snf
JOB_ARGS = {suite: [()] for suite in SUITE_ARGS}
JOB_ARGS["snf"] = [(a, b) for a in range(7) for b in range(a + 1, 7) if a + b <= 6]
JOB_ARGS["chains-snf"] = [(a, b) for a in range(6) for b in range(a + 1, 6) if a + b <= 5]
# the suites with a job per window; every other suite is one job
WINDOW_SUITES = ("snf", "chains-snf")


class TestDispatch:
    @pytest.mark.parametrize("suite", SUITES)
    def test_two_jobs_agree_with_serial(self, capsys, monkeypatch, suite):
        # two CPUs as far as --jobs can tell, so the snf pool runs on any machine
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["verify", "--suite", suite, *SUITE_ARGS[suite]]
        serial = run(capsys, *argv)
        assert serial[0] == 0
        assert run(capsys, *argv, "--jobs", "2") == serial

    @pytest.mark.parametrize("suite", SUITES)
    def test_only_windows_and_chain_ranks_are_split(self, suite):
        # only the windows of snf and chains-snf are jobs of their own; the
        # ranks and square windows of the other chain suites are not
        args = cli._build_parser().parse_args(["verify", "--suite", suite, *SUITE_ARGS[suite]])
        jobs = cli._suite_jobs(args)
        assert (len(jobs) > 1) == (suite in WINDOW_SUITES), jobs

    @pytest.mark.parametrize("suite", [s for s in SUITES if s != "snf"])
    def test_jobs_start_no_pool_for_one_job_suites(self, capsys, monkeypatch, suite):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        argv = ["verify", "--suite", suite, *SUITE_ARGS[suite]]
        serial = run(capsys, *argv)
        assert serial[0] == 0
        assert run(capsys, *argv, "--jobs", "2") == serial

    @pytest.mark.parametrize("suite", SUITES)
    def test_suites_are_read_through_the_cli_binding(self, capsys, monkeypatch, suite):
        # the CLI reads each suite from its layer module when it makes the
        # jobs, so rebinding the name there must reach every job, as a
        # wrapper installed by a tracer would
        module, name, _ = cli._SUITES[suite]
        layer = importlib.import_module(f"bruhatops.{module}")
        real = getattr(layer, name)
        calls = []

        def spy(scope, *rest):
            calls.append(rest)
            return real(scope, *rest)

        monkeypatch.setattr(layer, name, spy)
        code, _, _ = run(capsys, "verify", "--suite", suite, *SUITE_ARGS[suite])
        assert code == 0
        assert calls == JOB_ARGS[suite]


class TestSchubertCommand:
    def test_json_terms(self, capsys):
        code, out, _ = run(capsys, "schubert", "--perm", "231")
        assert code == 0
        doc = json.loads(out)
        assert doc["polynomial"] == "x1^2"
        assert doc["terms"] == [{"alpha": [2, 0], "coeff": "1"}]

    def test_table_polynomial(self, capsys):
        code, out, _ = run(capsys, "schubert", "--perm", "132", "--format", "table")
        assert code == 0
        assert out.strip() == "x1 + x2"

    def test_standard_convention_flag(self, capsys):
        _, ours, _ = run(capsys, "schubert", "--perm", "312", "--format", "table")
        _, std, _ = run(capsys, "schubert", "--perm", "231", "--standard-convention", "--format", "table")
        assert ours.strip() == "x1*x2"
        assert std.strip() == "x1*x2"

    def test_padded_flag(self, capsys):
        code, out, _ = run(capsys, "schubert", "--perm", "132", "--padded")
        assert code == 0
        assert json.loads(out)["polynomial"] == "x1*y1*y2 + x2*y1^2"

    def test_specialize(self, capsys):
        code, out, _ = run(capsys, "schubert", "--perm", "321", "--specialize", "--format", "table")
        assert code == 0
        assert out.strip() == "1"
        code, out, _ = run(capsys, "schubert", "--perm", "132", "--specialize")
        assert json.loads(out)["value"] == "2"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_specialize_sums_the_printed_polynomial(self, capsys, n):
        for w in itertools.permutations(range(1, n + 1)):
            perm = "".join(map(str, w))
            for convention in ([], ["--standard-convention"]):
                _, out, _ = run(capsys, "schubert", "--perm", perm, *convention)
                value = str(sum(int(t["coeff"]) for t in json.loads(out)["terms"]))
                _, out, _ = run(capsys, "schubert", "--perm", perm, "--specialize", *convention)
                doc = json.loads(out)
                assert doc["value"] == value
                assert doc["convention"] == ("standard" if convention else "left-multiplication")
                _, out, _ = run(capsys, "schubert", "--perm", perm, "--specialize", *convention, "--format", "table")
                assert out == value + "\n"

    def test_specialize_builds_no_polynomial(self, capsys, no_schubert_table):
        for convention in ([], ["--standard-convention"]):
            code, out, _ = run(capsys, "schubert", "--perm", "14532", "--specialize", *convention)
            assert code == 0
            assert json.loads(out)["value"] == "9"

    def test_specialize_builds_no_table_of_sn(self, capsys, monkeypatch):
        # S_u(1) of s_8 in S_10 from u's own transition steps: the table of
        # all 10! permutations is never asked for
        tables = []
        monkeypatch.setattr(schubert_module, "_specialization_table", lambda n: tables.append(n))
        for convention in ([], ["--standard-convention"]):
            argv = ["--perm", "1,2,3,4,5,6,7,9,8,10", "--specialize", "--format", "table", *convention]
            code, out, _ = run(capsys, "schubert", *argv)
            assert (code, out) == (0, "8\n")
        assert tables == []

    def test_polynomial_builds_no_table(self, capsys, no_schubert_table):
        # one chain of divided differences, not the table of all of S_9
        code, out, _ = run(capsys, "schubert", "--perm", "213456789", "--format", "table")
        assert code == 0
        assert out == "x1\n"


class TestConsoleScript:
    def test_module_entry_help(self):
        # the subprocess imports the package from the same src as this one
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bruhatops.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "hasse" in proc.stdout
        assert "verify" in proc.stdout
        assert "schubert" in proc.stdout
