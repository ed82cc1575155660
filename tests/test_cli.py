import csv
import io
import json
import multiprocessing
import signal
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from token_spectra import cli, exact, graphs, spectra, tokens, verify
from token_spectra.cli import CHECKS, EXIT_CANCEL, main
from token_spectra.graphs import (
    KiteSpec,
    complete_graph,
    cycle_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
    star_graph,
)
from token_spectra.spectra import NumericalError

DATA = Path(__file__).parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def y_file(tmp_path, y_tree):
    path = tmp_path / "y.el"
    path.write_text(format_edge_list(y_tree))
    return str(path)


class TestConstruct:
    def test_path_exact_output(self, runner):
        res = runner.invoke(main, ["construct", "path", "3"])
        assert res.exit_code == 0
        assert res.output == "3 2\n0 1\n1 2\n"

    def test_kite(self, runner):
        res = runner.invoke(main, ["construct", "kite", "--head", "cycle:4", "--root", "0", "-s", "3", "-r", "3"])
        assert res.exit_code == 0
        g = parse_edge_list(res.output)
        assert g.n == 13 and g.m == 13

    def test_cutclique(self, runner):
        res = runner.invoke(
            main,
            ["construct", "cutclique", "-r", "2", "--comp", "complete:2", "--comp", "complete:2"],
        )
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "6 11"

    def test_cutclique_multiplier(self, runner):
        a = runner.invoke(main, ["construct", "cutclique", "-r", "1", "--comp", "complete:1*4"])
        b = runner.invoke(
            main,
            ["construct", "cutclique", "-r", "1"] + ["--comp", "complete:1"] * 4,
        )
        assert a.output == b.output

    @pytest.mark.parametrize("times", ["-3", "0"])
    def test_cutclique_multiplier_below_1_exit_2(self, runner, times):
        # the component was dropped: with *-3 this wrote the 6-vertex graph of the two path:2 alone
        item = f"path:3*{times}"
        res = runner.invoke(
            main, ["construct", "cutclique", "-r", "2", "--comp", item, "--comp", "path:2", "--comp", "path:2"]
        )
        assert res.exit_code == 2 and res.stdout == ""
        assert f"bad component multiplier in {item!r}, expected *N with N >= 1" in res.stderr

    def test_token_with_header(self, runner, y_file):
        res = runner.invoke(main, ["construct", "token", "--graph", y_file, "-k", "2"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "# token base_n=5 k=2 codec=colex"
        assert lines[1] == "10 12"

    def test_extcycle_and_bipartite(self, runner):
        res = runner.invoke(main, ["construct", "extcycle", "5", "--chord", "1,4"])
        assert res.exit_code == 0
        assert parse_edge_list(res.output).m == 6
        res = runner.invoke(main, ["construct", "bipartite", "2", "3", "--mode", "star_y"])
        assert parse_edge_list(res.output).m == 9

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "g.el"
        res = runner.invoke(main, ["construct", "cycle", "4", "-o", str(out)])
        assert res.exit_code == 0
        assert parse_edge_list(out.read_text()).m == 4

    def test_usage_errors_exit_2(self, runner):
        assert runner.invoke(main, ["construct", "cycle", "2"]).exit_code == 2
        assert runner.invoke(main, ["construct", "bogus", "3"]).exit_code == 2
        assert runner.invoke(main, ["construct", "kite", "--head", "cycle:4"]).exit_code == 2

    def test_token_cap_exit_3(self, runner):
        res = runner.invoke(main, ["construct", "token", "--graph", "path:30", "-k", "8", "--cap", "100"])
        assert res.exit_code == 3

    # one case per family: its argv, with options it reads, then the unread flags
    @pytest.mark.parametrize("argv, unread", [
        (["path", "3", "--head", "cycle:4", "-s", "9", "--mode", "star_y"], "'--head', '-s', '--mode'"),
        (["cycle", "4", "--chord", "1,3"], "'--chord'"),
        (["complete", "3", "-k", "2"], "'-k'"),
        (["complete_bipartite", "2", "3", "--root", "1"], "'--root'"),
        (["star", "3", "-o", "-", "--tree", "path:2"], "'--tree'"),
        (["kite", "--head", "cycle:4", "-s", "3", "-r", "3", "--tree-root", "1"], "'--tree-root'"),
        (["kite", "5", "--head", "cycle:4", "-s", "3", "-r", "3"], "'[PARAMS]...'"),
        (["superkite", "--head", "complete:3", "--tree", "path:3", "-s", "2", "-r", "2"], "'-r'"),
        (["cutclique", "-r", "1", "--comp", "complete:1*4", "--nu", "4"], "'--nu'"),
        (["extcycle", "5", "--chord", "1,4", "--edge", "0,1"], "'--edge'"),
        (["bipartite", "2", "3", "--mode", "star_y", "--graph", "path:3"], "'--graph'"),
        (["token", "--graph", "path:4", "-k", "2", "--comp", "complete:2"], "'--comp'"),
    ])
    def test_unread_option_exits_2(self, runner, argv, unread):
        res = runner.invoke(main, ["construct", *argv])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr.endswith(f"Error: family {argv[0]!r} does not take {unread}\n")

    def test_options_a_family_reads_are_accepted(self, runner):
        for argv in (["kite", "--head", "cycle:4", "--root", "1", "-s", "2", "-r", "1", "-o", "-"],
                     ["superkite", "--head", "complete:3", "--root", "1", "--tree", "path:3", "--tree-root", "1",
                      "-s", "2"],
                     ["extcycle", "6", "--chord", "1,4", "--nu", "5"],
                     ["bipartite", "2", "3", "--mode", "plus_x", "--edge", "0,1"],
                     ["token", "--graph", "path:4", "-k", "2", "--cap", "6"]):
            assert runner.invoke(main, ["construct", *argv]).exit_code == 0, argv


class TestSpectrum:
    def test_y_graph(self, runner, y_file):
        res = runner.invoke(main, ["spectrum", y_file])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert abs(doc["values"][1] - 0.5188) < 5e-5
        assert abs(doc["algebraic_connectivity"] - 0.5188) < 5e-5

    def test_k4(self, runner):
        res = runner.invoke(main, ["spectrum", "complete:4"])
        doc = json.loads(res.output)
        assert [round(v, 6) for v in doc["values"]] == [0, 4, 4, 4]
        assert [grp["mult"] for grp in doc["groups"]] == [1, 3]
        assert abs(doc["groups"][1]["value"] - 4.0) < 1e-9

    def test_kite_spec(self, runner):
        res = runner.invoke(main, ["construct", "kite", "--head", "cycle:4", "-s", "3", "-r", "3"])
        with runner.isolated_filesystem():
            with open("kite.el", "w") as fh:
                fh.write(res.output)
            out = runner.invoke(main, ["spectrum", "kite.el"])
        doc = json.loads(out.output)
        assert abs(doc["values"][1] - 0.19806) < 5e-5

    def test_exact_flag_includes_char_poly(self, runner):
        res = runner.invoke(main, ["spectrum", "complete:2", "--exact"])
        doc = json.loads(res.output)
        assert doc["char_poly"] == ["0", "-2", "1"]

    @pytest.mark.parametrize("flags", [[], ["--exact"], ["--tol", "1e-6", "--group-tol", "1e-4"]])
    def test_json_document(self, runner, y_file, flags):
        res = runner.invoke(main, ["spectrum", y_file, *flags])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        keys = ["values", "groups", "tolerances", "n", "m", "algebraic_connectivity"]
        assert list(doc) == keys + (["char_poly"] if "--exact" in flags else [])
        assert all(list(grp) == ["value", "mult"] for grp in doc["groups"])
        assert sum(grp["mult"] for grp in doc["groups"]) == len(doc["values"]) == doc["n"] == 5
        tol, group_tol = (1e-6, 1e-4) if "--tol" in flags else (1e-9, 1e-8)
        assert doc["tolerances"] == {"resid_tol": tol, "group_tol": group_tol}
        assert doc["m"] == 4 and doc["algebraic_connectivity"] == doc["values"][1]

    def test_disconnected_alpha_is_zero(self, runner, tmp_path):
        path = tmp_path / "disconnected.el"
        path.write_text("5 3\n0 1\n1 2\n3 4\n")
        doc = json.loads(runner.invoke(main, ["spectrum", str(path)]).output)
        assert doc["algebraic_connectivity"] == 0.0
        assert doc["algebraic_connectivity"] == spectra.algebraic_connectivity(parse_edge_list(path.read_text()))[0]
        assert [grp["mult"] for grp in doc["groups"]][0] == 2

    def test_eigensolver_gets_a_float_matrix(self, runner, monkeypatch):
        # an int64 Laplacian handed to a solver stays alive through it, next to its float copy;
        # spectrum solves with eig_sym, interlacing with the values-only eigenvalues
        seen = []

        def spying(solver):
            def spy(m, *args, **kwargs):
                seen.append(m.dtype)
                return solver(m, *args, **kwargs)
            return spy

        for name in ("eig_sym", "eigenvalues"):
            spy = spying(getattr(spectra, name))
            monkeypatch.setattr(spectra, name, spy)
        monkeypatch.setattr(verify, "eig_sym", spectra.eig_sym)
        assert runner.invoke(main, ["spectrum", "path:5"]).exit_code == 0
        assert runner.invoke(main, ["verify", "interlacing", "--graph", "path:5", "-u", "0", "-v", "4"]).exit_code == 0
        assert seen == [np.float64] * 3

    @pytest.mark.parametrize("argv", [["--tol", "-1"], ["--tol", "nan"], ["--group-tol", "-1"],
                                      ["--group-tol", "inf"]])
    def test_malformed_tolerance_exits_2(self, runner, argv):
        res = runner.invoke(main, ["spectrum", "cycle:4", *argv])
        assert res.exit_code == 2 and res.stdout == ""
        assert "is not a finite number >= 0" in res.stderr

    def test_parse_failure_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("3 1\n1 1\n")
        assert runner.invoke(main, ["spectrum", str(bad)]).exit_code == 2
        assert runner.invoke(main, ["spectrum", str(tmp_path / "missing.el")]).exit_code == 2


class TestVerify:
    def test_alpha_token(self, runner, y_file):
        res = runner.invoke(main, ["verify", "alpha-token", "--graph", y_file, "-k", "2"])
        assert res.exit_code == 0
        assert json.loads(res.output)["verdict"] == "pass"

    def test_containment_exact(self, runner, y_file):
        res = runner.invoke(main, ["verify", "containment", "--graph", y_file, "-k", "2", "--exact"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["verdict"] == "pass" and doc["witnesses"]["mode"] == "exact"

    def test_cut_clique(self, runner):
        res = runner.invoke(
            main, ["verify", "cut-clique", "-r", "1", "--comp", "complete:1*4", "-k", "2"]
        )
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["verdict"] == "pass"
        assert abs(doc["witnesses"]["alpha"] - 1.0) < 1e-9

    @pytest.mark.parametrize("exc", [NumericalError, AssertionError])
    def test_check_fault_prints_one_error_line(self, runner, y_file, monkeypatch, exc):
        def faulty(*args, **kwargs):
            raise exc("layer certificate failed on this graph")

        monkeypatch.setattr(verify, "check_spectral_containment", faulty)
        res = runner.invoke(main, ["verify", "containment", "--graph", y_file, "-k", "2", "--exact"])
        assert res.exit_code == 1
        assert res.stdout == "" and res.stderr == "error: layer certificate failed on this graph\n"
        assert "Traceback" not in res.output

    def test_corrupted_lift_prints_one_error_line(self, runner, y_file, monkeypatch):
        real = tokens.lift
        monkeypatch.setattr(spectra, "lift", lambda n, k: real(n, k)[::-1])
        res = runner.invoke(main, ["verify", "containment", "--graph", y_file, "-k", "2"])
        assert res.exit_code == 1
        assert res.stdout == "" and res.stderr.startswith("error: lifted residual ")
        assert res.stderr.count("\n") == 1 and "Traceback" not in res.output

    def test_corrupted_lift_in_alpha_token_prints_one_error_line(self, runner, y_file, monkeypatch):
        real = tokens.lift
        monkeypatch.setattr(spectra, "lift", lambda n, k: real(n, k)[::-1])
        res = runner.invoke(main, ["verify", "alpha-token", "--graph", y_file, "-k", "2"])
        assert res.exit_code == 1
        assert res.stdout == "" and res.stderr.startswith("error: lifted residual ")
        assert res.stderr.count("\n") == 1 and "Traceback" not in res.output

    def test_corrupted_lift_in_sparse_alpha_token_prints_one_error_line(self, runner, monkeypatch):
        # N = 3060 >= SPARSE_MIN_ORDER: token_alpha checks the identity once, before the sparse
        # route, so the proof is never reached
        real, proofs = tokens.lift, []
        monkeypatch.setattr(spectra, "lift", lambda n, k: real(n, k)[::-1])
        monkeypatch.setattr(spectra, "_proved_alpha", lambda *args: proofs.append(args))
        res = runner.invoke(main, ["verify", "alpha-token", "--graph", str(DATA / "gnp18.el"), "-k", "4"])
        assert res.exit_code == 1 and proofs == []
        assert res.stdout == "" and res.stderr.startswith("error: lifted residual ")
        assert res.stderr.count("\n") == 1 and "Traceback" not in res.output

    @pytest.mark.parametrize("tol", ["-1e-9", "nan", "inf", "-inf"])
    def test_malformed_tol_exits_2_before_the_check(self, runner, monkeypatch, tol):
        ran = []
        monkeypatch.setattr(verify, "check_alpha_token_equality", lambda *a, **kw: ran.append(a))
        res = runner.invoke(main, ["verify", "alpha-token", "--graph", "cycle:5", "-k", "2", "--tol", tol])
        assert res.exit_code == 2 and ran == [] and res.stdout == ""
        assert "is not a finite number >= 0" in res.stderr

    def test_symmetrizer_takes_level_edges(self, runner):
        # head cycle:4, s = 3, r = 3: path i holds labels 4 + 3 (i - 1) .. 6 + 3 (i - 1), so 7 and 10 are
        # level 1 of paths 2 and 3, and 4 is level 1 of path 1
        kite = ["verify", "symmetrizer", "--head", "cycle:4", "-s", "3", "-r", "3"]
        res = runner.invoke(main, [*kite, "--add", "7,10"])
        assert res.exit_code == 0 and json.loads(res.output)["verdict"] == "pass"
        res = runner.invoke(main, [*kite, "--add", "4,7"])
        assert res.exit_code == 2 and "allowed paths start at 2" in res.stderr

    def test_edge_add_iff(self, runner, y_file):
        res = runner.invoke(main, ["verify", "edge-add-iff", "--graph", y_file, "-u", "0", "-v", "1"])
        assert json.loads(res.output)["verdict"] == "pass"

    def test_kite_checks(self, runner):
        res = runner.invoke(main, ["verify", "kite-iff", "--head", "cycle:4", "-s", "3", "-r", "3"])
        assert json.loads(res.output)["verdict"] == "pass"
        res = runner.invoke(main, ["verify", "symmetrizer", "--head", "cycle:4", "-s", "3", "-r", "3"])
        assert json.loads(res.output)["verdict"] == "pass"
        res = runner.invoke(
            main,
            ["verify", "kite-head", "--variant", "bipartite", "--h1", "2", "--h2", "3", "-s", "3", "-r", "3"],
        )
        assert json.loads(res.output)["verdict"] == "pass"

    def test_tail_edges_check(self, runner):
        res = runner.invoke(
            main,
            ["verify", "tail-edges", "--head", "path:3", "--root", "0", "-s", "2", "-r", "1", "--add", "3,4"],
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["verdict"] == "pass"

    def test_cut_vertex_split_check(self, runner, tmp_path):
        g = runner.invoke(main, ["construct", "star", "3"]).output
        path = tmp_path / "star.el"
        path.write_text(g)
        res = runner.invoke(main, ["verify", "cut-vertex-split", "--graph", str(path), "--vertex", "0"])
        assert json.loads(res.output)["verdict"] == "pass"

    def test_math_failure_exit_1(self, runner, monkeypatch):
        # alpha(F_2(P_5)) read 0.5 too high: a fail that no rounding decides
        real = verify.token_alpha
        monkeypatch.setattr(verify, "token_alpha",
                            lambda tg, base, lo, hi: (real(tg, base, lo, hi)[0] + 0.5, {}))
        res = runner.invoke(main, ["verify", "alpha-token", "--graph", "path:5", "-k", "2"])
        assert res.exit_code == 1
        assert json.loads(res.output)["verdict"] == "fail"

    def test_exact_containment_fail_exit_1(self, runner, y_file, y_tree, monkeypatch):
        # q = p x + 1 with p monic of degree 5: p does not divide q, and the remainder is 1
        p = exact.char_poly(spectra.laplacian(y_tree))
        monkeypatch.setattr(verify, "token_char_polys", lambda g, k, cap: (
            p, exact.IntPoly((1, *p.coeffs))))
        res = runner.invoke(main, ["verify", "containment", "--graph", y_file, "-k", "2", "--exact"])
        assert res.exit_code == 1
        cert = json.loads(res.output)
        assert cert["verdict"] == "fail" and cert["witnesses"]["remainder"] == ["1"]

    def test_interlacing_on_a_present_edge_exit_2(self, runner):
        res = runner.invoke(main, ["verify", "interlacing", "--graph", "path:5", "-u", "0", "-v", "1"])
        assert res.exit_code == 2 and res.stdout == ""
        assert "edge (0, 1) already present" in res.stderr

    @pytest.mark.parametrize("order", ["3", "9"])  # the hypothesis h <= 2r + 1 holds at 3, not at 9
    @pytest.mark.parametrize("edge, message", [
        (["--add", "0,1"], "edge (0, 1) is not between tail vertices"),
        (["--add-head", "0,-1"], "head edge (0, -1) leaves the head"),
    ])
    def test_kite_head_bad_edge_exit_2(self, runner, order, edge, message):
        res = runner.invoke(main, ["verify", "kite-head", "--variant", "cycle", "--order", order,
                                   "-s", "2", "-r", "1", *edge])
        assert res.exit_code == 2 and res.stdout == ""
        assert message in res.stderr

    @pytest.mark.parametrize("argv, edge", [
        (["tail-edges", "--head", "complete:1", "--root", "0", "-s", "3", "-r", "1", "--add", "1,2", "--add", "1,2"],
         "(1, 2)"),
        (["symmetrizer", "--head", "path:3", "-s", "3", "-r", "700", "--add", "703,1403", "--add", "703,1403"],
         "(703, 1403)"),
    ], ids=["tail-edges", "symmetrizer"])
    def test_level_edge_given_twice_exit_2(self, runner, monkeypatch, argv, edge):
        # refused before any solve: tail-edges exited 0 with precondition_unmet, listing the edge twice
        for name in ("laplacian_values", "eig_sym"):
            monkeypatch.setattr(verify, name, lambda m, name=name: pytest.fail(f"{name} ran before the refusal"))
        res = runner.invoke(main, ["verify", *argv])
        assert res.exit_code == 2 and res.stdout == ""
        assert f"duplicate edge {edge}" in res.stderr

    @pytest.mark.parametrize("argv, message", [
        (["--comp", "cycle:4*-1"], "bad component multiplier in 'cycle:4*-1'"),
        (["--comp", "cycle:4*0"], "bad component multiplier in 'cycle:4*0'"),
        (["--remove", "0,5", "--remove", "0,5"], "duplicate edge (0, 5)"),
        (["--remove", "0,5", "--remove", "5,0"], "duplicate edge (0, 5)"),
    ], ids=["times-minus-1", "times-0", "remove-twice", "remove-reversed"])
    def test_cut_clique_malformed_input_exit_2(self, runner, monkeypatch, argv, message):
        # refused before any solve: *-1 passed on n = 8 without the cycle, and a join edge removed
        # twice exited 0 with full_join false
        for name in ("laplacian_values", "eig_sym", "_token_alpha"):
            monkeypatch.setattr(verify, name, lambda *args, name=name: pytest.fail(f"{name} ran before the refusal"))
        res = runner.invoke(main, ["verify", "cut-clique", "-r", "2", "--comp", "path:3", "--comp", "path:3", *argv])
        assert res.exit_code == 2 and res.stdout == ""
        assert message in res.stderr

    @pytest.mark.parametrize("variant", [["--variant", "cycle", "--order", "5"],
                                         ["--variant", "bipartite", "--h1", "2", "--h2", "3"]])
    def test_kite_head_bridge_fail_exit_1(self, runner, monkeypatch, variant):
        # the head submatrix eigenvalue read 1e-6 off its reference, past BRIDGE_TOL
        real = verify._head_submatrix_min_eig
        monkeypatch.setattr(verify, "_head_submatrix_min_eig", lambda head, root: real(head, root) + 1e-6)
        res = runner.invoke(main, ["verify", "kite-head", *variant, "-s", "3", "-r", "3"])
        assert res.exit_code == 1
        cert = json.loads(res.output)
        assert cert["verdict"] == "fail" and cert["witnesses"]["bridge_ok"] is False

    def test_unknown_check_exit_2(self, runner, y_file):
        assert runner.invoke(main, ["verify", "bogus", "--graph", y_file]).exit_code == 2

    def test_missing_option_exit_2(self, runner):
        assert runner.invoke(main, ["verify", "alpha-token", "-k", "2"]).exit_code == 2

    def test_cap_exit_3(self, runner):
        res = runner.invoke(
            main,
            ["verify", "alpha-token", "--graph", "path:30", "-k", "8", "--cap", "100"],
        )
        assert res.exit_code == 3

    def test_float_containment_has_no_tolerance(self, runner, y_file):
        res = runner.invoke(main, ["verify", "containment", "--graph", y_file, "-k", "2"])
        cert = json.loads(res.output)
        assert res.exit_code == 0 and cert["verdict"] == "pass" and cert["tolerances"] == {}

    @pytest.mark.parametrize("argv", [
        ["kite-head", "--variant", "bipartite", "--h1", "2", "--h2", "3", "-s", "3", "-r", "3"],
        ["cut-clique", "-r", "1", "--comp", "complete:1*4"],
        ["bipartite-ext", "--n1", "2", "--n2", "3", "--mode", "plus_x"],
    ])
    def test_k_zero_reaches_the_check(self, runner, argv):
        assert runner.invoke(main, ["verify", *argv]).exit_code == 0
        assert runner.invoke(main, ["verify", *argv, "-k", "0"]).exit_code == 2

    @pytest.mark.parametrize("argv", [
        ["alpha-token", "--graph", "Y", "-k", "2", "-u", "0"],
        ["alpha-token", "--graph", "Y", "-k", "2", "--exact"],
        ["alpha-token", "--graph", "Y", "-k", "2", "--add", "9,9"],
        ["containment", "--graph", "Y", "-k", "2", "--exact", "--tol", "1e-3"],
        ["containment", "--graph", "Y", "-k", "2", "--tol", "1e-3"],
        ["edge-add-iff", "--graph", "Y", "-u", "0", "-v", "1", "-k", "2"],
        ["interlacing", "--graph", "Y", "-u", "0", "-v", "1", "--cap", "100"],
        ["theta-table", "-r", "3", "--graph", "Y"],
        ["kite-iff", "--head", "cycle:4", "-s", "3", "-r", "3", "-k", "2"],
        ["kite-head", "--variant", "cycle", "--order", "4", "--h1", "2", "-s", "3", "-r", "3"],
        ["cut-vertex-split", "--graph", "Y", "--vertex", "2", "--side", "1"],
    ])
    def test_unread_option_exits_2_before_the_check(self, runner, y_file, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(verify, CHECKS[argv[0]][0], lambda *a, **kw: calls.append(a))
        res = runner.invoke(main, ["verify"] + [y_file if a == "Y" else a for a in argv])
        assert res.exit_code == 2 and res.stdout == "" and calls == []
        assert "does not take" in res.stderr

    @pytest.mark.parametrize("argv", [
        ["kite-iff", "--head", "cycle:4", "--root", "0", "-s", "3", "-r", "3"],
        ["kite-head", "--variant", "bipartite", "--h1", "2", "--h2", "3", "--side", "1", "-s", "3", "-r", "3"],
        ["containment", "--graph", "Y", "-k", "2", "--exact", "--cap", "100", "--pretty"],
    ])
    def test_read_options_are_accepted(self, runner, y_file, argv):
        res = runner.invoke(main, ["verify"] + [y_file if a == "Y" else a for a in argv])
        assert res.exit_code == 0, res.output

    def test_env_cap_override(self, runner):
        res = runner.invoke(
            main,
            ["verify", "alpha-token", "--graph", "path:30", "-k", "8"],
            env={"TOKEN_SPECTRA_CAP": "100"},
        )
        assert res.exit_code == 3


# check id -> (verify arguments, the same check called directly); "Y" stands
# for the Y-tree edge-list file
VERIFY_CASES = {
    "alpha-token": (["alpha-token", "--graph", "Y", "-k", "2"],
                    lambda y: verify.check_alpha_token_equality(y, 2)),
    "containment": (["containment", "--graph", "Y", "-k", "2"],
                    lambda y: verify.check_spectral_containment(y, 2, mode="float")),
    "containment-exact": (["containment", "--graph", "Y", "-k", "2", "--exact"],
                          lambda y: verify.check_spectral_containment(y, 2, mode="exact")),
    "pendant-bound": (["pendant-bound", "--graph", "Y", "-k", "2"],
                      lambda y: verify.check_pendant_bound(y, 2)),
    "edge-add-iff": (["edge-add-iff", "--graph", "Y", "-u", "0", "-v", "1"],
                     lambda y: verify.check_edge_add_alpha_iff(y, 0, 1)),
    "interlacing": (["interlacing", "--graph", "Y", "-u", "0", "-v", "1"],
                    lambda y: verify.check_interlacing(y, 0, 1)),
    "theta-table": (["theta-table", "-r", "10"], lambda y: verify.check_theta_table(10)),
    "cut-vertex-split": (["cut-vertex-split", "--graph", "star:3", "--vertex", "0"],
                         lambda y: verify.check_cut_vertex_split(star_graph(3), 0)),
    "tail-edges": (["tail-edges", "--head", "path:3", "--root", "0", "-s", "2", "-r", "1", "--add", "3,4"],
                   lambda y: verify.check_tail_edges_preserve_alpha(KiteSpec(path_graph(3), 0, 2, 1), [(3, 4)])),
    "kite-iff": (["kite-iff", "--head", "cycle:4", "-s", "3", "-r", "3"],
                 lambda y: verify.check_kite_alpha_theta_iff(KiteSpec(cycle_graph(4), 0, 3, 3))),
    "symmetrizer": (["symmetrizer", "--head", "cycle:4", "-s", "3", "-r", "3"],
                    lambda y: verify.check_symmetrizer_commutation(KiteSpec(cycle_graph(4), 0, 3, 3))),
    "kite-head": (["kite-head", "--variant", "bipartite", "--h1", "2", "--h2", "3", "-s", "3", "-r", "3"],
                  lambda y: verify.check_kite_head_family("bipartite", s=3, r=3, h1=2, h2=3)),
    "cut-clique": (["cut-clique", "-r", "1", "--comp", "complete:1*4", "-k", "2"],
                   lambda y: verify.check_cut_clique(1, [complete_graph(1)] * 4, k=2)),
    "bipartite-ext": (["bipartite-ext", "--n1", "2", "--n2", "3", "--mode", "plus_x", "--edge", "0,1", "-k", "2"],
                      lambda y: verify.check_bipartite_extension(2, 3, "plus_x", 2, x_edges=[(0, 1)])),
}


def _no_runtime(cert: dict) -> dict:
    return {key: val for key, val in cert.items() if key != "runtime_ms"}


class TestVerifyMatchesDirectCalls:
    def test_every_check_is_covered(self):
        assert set(VERIFY_CASES) == set(CHECKS)

    @pytest.mark.parametrize("check_id", sorted(VERIFY_CASES))
    def test_certificate_equals_direct_call(self, runner, y_file, y_tree, check_id):
        argv, direct = VERIFY_CASES[check_id]
        res = runner.invoke(main, ["verify"] + [y_file if a == "Y" else a for a in argv])
        assert res.exit_code == 0, res.output
        assert _no_runtime(json.loads(res.output)) == _no_runtime(direct(y_tree).to_json_dict())


# a sweepable check -> the family its cells come from
SWEEP_CASES = {
    **dict.fromkeys(["alpha-token", "containment", "containment-exact", "pendant-bound", "edge-add-iff",
                     "interlacing"], {"name": "random_connected", "n": [4, 6], "p": 0.6, "count": 4}),
    "theta-table": {"name": "theta_table", "r": [1, 5]},
}


class TestSweepMatchesVerify:
    """Each sweep row is the certificate verify prints for that cell's options. The cells'
    instances are recorded as the sweep calls each check, and written to edge-list files."""

    def test_other_checks_are_not_sweepable(self, runner, tmp_path):
        for check in set(CHECKS) - set(SWEEP_CASES):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"family": {"name": "path", "n": 4}, "checks": [check]}))
            res = runner.invoke(main, ["sweep", str(path), "--csv", "-"])
            assert res.exit_code == 2 and f"check {check!r} is not sweepable" in res.stderr

    @pytest.mark.parametrize("check", sorted(SWEEP_CASES))
    def test_row_equals_verify(self, runner, tmp_path, monkeypatch, check):
        calls = []
        name = CHECKS[check][0]
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"family": SWEEP_CASES[check], "checks": [check], "k_range": [1, 3], "seed": 3}))
        res = runner.invoke(main, ["sweep", str(path), "--csv", str(tmp_path / "rows.csv")])
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "rows.csv").read_text())))
        rows = [r for r in rows if r["detail"] != "no non-edge available"]
        assert len(rows) == len(calls) >= 4
        monkeypatch.setattr(verify, name, real)
        for row, args in zip(rows, calls):
            argv = ["verify", *(["containment", "--exact"] if check == "containment-exact" else [check])]
            for key, val in zip(CHECKS[check][1], args):
                if key == "graph":
                    (tmp_path / "g.el").write_text(format_edge_list(val))
                    argv += ["--graph", str(tmp_path / "g.el")]
                else:
                    argv += [f"-{key}", str(val)]
            out = runner.invoke(main, argv)
            if out.exit_code == 2:  # the instance does not meet the check's preconditions
                assert row["verdict"] == "precondition_unmet" and out.stderr.endswith(f"Error: {row['detail']}\n")
                continue
            cert = json.loads(out.stdout)
            witnesses = {k: v for k, v in cert["witnesses"].items() if isinstance(v, (int, float, str, bool))}
            assert (row["verdict"], json.loads(row["detail"])) == (cert["verdict"], witnesses), argv


class TestCancel:
    @pytest.mark.parametrize("exc", [KeyboardInterrupt])
    @pytest.mark.parametrize("extra", [[], ["--exact"]])
    def test_verify_cancel_exits_130(self, runner, y_file, monkeypatch, exc, extra):
        def interrupted(*args, **kwargs):
            raise exc()

        monkeypatch.setattr(verify, "check_spectral_containment", interrupted)
        res = runner.invoke(main, ["verify", "containment", "--graph", y_file, "-k", "2", *extra])
        assert res.exit_code == EXIT_CANCEL == 130
        assert res.stdout == "" and res.stderr == "cancelled\n"

    def test_spectrum_cancel_exits_130(self, runner, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("token_spectra.exact.char_poly", interrupted)
        res = runner.invoke(main, ["spectrum", "complete:3", "--exact"])
        assert res.exit_code == 130 and res.stderr == "cancelled\n"

    def test_sigint_handler_unchanged(self, runner, y_file):
        before = signal.getsignal(signal.SIGINT)
        runner.invoke(main, ["verify", "containment", "--graph", y_file, "-k", "2", "--exact"])
        runner.invoke(main, ["spectrum", "complete:3", "--exact"])
        assert signal.getsignal(signal.SIGINT) is before


class TestExactRefusals:
    """Where j = min(k, n - k) is 1 the exact route builds no token graph, and still refuses."""

    @pytest.mark.parametrize("k", ["1", "4"])
    def test_cap_below_n_exits_3(self, runner, k):
        res = runner.invoke(main, ["verify", "containment", "--graph", "path:5", "-k", k, "--exact", "--cap", "4"])
        assert res.exit_code == 3
        assert res.stdout == "" and res.stderr == "error: token graph would have 5 vertices, cap is 4\n"

    @pytest.mark.parametrize("k", ["0", "5"])
    def test_k_outside_1_to_n_minus_1_exits_2(self, runner, k):
        res = runner.invoke(main, ["verify", "containment", "--graph", "path:5", "-k", k, "--exact"])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr.endswith(f"Error: need 1 <= k <= n-1, got n=5 k={k}\n")


class TestMemoryGuard:
    """With physical memory taken as 1 MB, the dense route with eigenvectors
    refuses N >= 151 (44 bytes per N^2), the values-only routes of interlacing,
    theta-table and kite-iff N >= 236 (18 bytes per N^2), alpha-token, whose lift
    check forms no N x N matrix, N >= 289, where its proof (12 bytes per N^2) does not
    fit and is refused by name, token_graph refuses 8334 candidate rows or more, and
    the exact route refuses any token graph: its token-edge scatter alone is
    estimated at 1.5 MB."""

    @pytest.fixture(autouse=True)
    def small_memory(self, monkeypatch):
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", 10**6)

    @pytest.mark.parametrize("argv, stderr", [
        (["verify", "alpha-token", "--graph", "path:25", "-k", "2"],
         "error: the proof at N = 300 needs about 0.00101 GiB, physical memory is 0.000931 GiB\n"),
        (["spectrum", "path:200"],
         "error: the dense Laplacian route at N = 200 needs about 0.00164 GiB, physical memory is 0.000931 GiB\n"),
        (["construct", "token", "--graph", "complete:16", "-k", "3"],
         "error: the 3-token graph of 16 vertices needs about 0.00141 GiB, physical memory is 0.000931 GiB\n"),
        (["construct", "token", "--graph", "path:30", "-k", "8", "--cap", "100"],
         "error: token graph would have 5852925 vertices, cap is 100\n"),
        (["verify", "containment", "--graph", "path:6", "-k", "3", "--exact"],
         "error: the exact route on the 3-token graph of 6 vertices needs about 0.00147 GiB, physical memory is 0.000931 GiB\n"),
    ])
    def test_exit_3_with_one_error_line(self, runner, argv, stderr):
        res = runner.invoke(main, argv)
        assert res.exit_code == 3
        assert res.stdout == "" and res.stderr == stderr

    def test_below_the_estimate_runs(self, runner):
        assert runner.invoke(main, ["verify", "alpha-token", "--graph", "path:17", "-k", "2"]).exit_code == 0
        # N = 253 and 276: the proof fits, and the lift check holds no N x N matrix before it
        for n in (23, 24):
            assert runner.invoke(main, ["verify", "alpha-token", "--graph", f"path:{n}", "-k", "2"]).exit_code == 0
        assert runner.invoke(main, ["construct", "token", "--graph", "complete:11", "-k", "3"]).exit_code == 0
        # 7098 candidate rows at 120 bytes each, under 1 MB
        assert runner.invoke(main, ["construct", "token", "--graph", "complete:14", "-k", "3"]).exit_code == 0

    def test_interlacing_is_charged_the_values_only_rate(self, runner):
        argv = ["verify", "interlacing", "--graph", "path:{n}", "-u", "0", "-v", "{last}"]
        ok = runner.invoke(main, [a.format(n=235, last=234) for a in argv])
        assert ok.exit_code == 0 and json.loads(ok.stdout)["verdict"] == "pass"
        res = runner.invoke(main, [a.format(n=236, last=235) for a in argv])
        assert res.exit_code == 3 and res.stdout == ""
        assert res.stderr == ("error: the dense Laplacian route at N = 236 needs about 0.000934 GiB, "
                              "physical memory is 0.000931 GiB\n")

    @pytest.mark.parametrize("argv", [
        ["theta-table", "-r", "{r}"],  # the path on r + 1 vertices, less its first
        ["kite-iff", "--head", "path:{h}", "-s", "2", "-r", "1"],  # the kite has h + 2 vertices
    ])
    def test_theta_table_and_kite_head_are_charged_the_values_only_rate(self, runner, argv):
        # orders up to 235 fit at 18 bytes per N^2; at 44, the head path:233 would not
        ok = runner.invoke(main, ["verify", *(a.format(r=234, h=233) for a in argv)])
        assert ok.exit_code == 0 and json.loads(ok.stdout)["verdict"] == "pass"
        res = runner.invoke(main, ["verify", *(a.format(r=235, h=234) for a in argv)])
        assert res.exit_code == 3 and res.stdout == ""
        assert res.stderr == ("error: the dense Laplacian route at N = 236 needs about 0.000934 GiB, "
                              "physical memory is 0.000931 GiB\n")

    def test_sweep_gives_one_cap_exceeded_row(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": {"name": "path", "n": [22, 25]}, "checks": ["alpha-token"]}))
        res = runner.invoke(main, ["sweep", str(spec), "--csv", str(tmp_path / "rows.csv")])
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "rows.csv").read_text())))
        assert [(r["instance"], r["verdict"]) for r in rows] == [
            ("path:22", "pass"), ("path:23", "pass"), ("path:24", "pass"), ("path:25", "cap_exceeded")]
        assert rows[3]["detail"].startswith("the proof at N = 300 needs about 0.00101 GiB")
        summary = json.loads(res.stdout)
        assert (summary["pass"], summary["cap_exceeded"], summary["fail"]) == (3, 1, 0)


# sweep specs that must exit 2 before any cell runs, one per file name
MALFORMED_SPECS = [
    ("bad.toml", 'checks = ["alpha-token"\n'),
    ("n.json", {"family": {"name": "path", "n": ["a", 5]}, "checks": ["alpha-token"]}),
    ("string.json", {"family": {"name": "path", "n": [3, 5]}, "checks": "alpha-token"}),
    ("unknown.json", {"family": {"name": "path", "n": [3, 5]}, "checks": ["bogus"]}),
    ("graph_on_theta.json", {"family": {"name": "theta_table", "r": [1, 3]}, "checks": ["alpha-token"]}),
    ("theta_on_graph.json", {"family": {"name": "path", "n": [3, 5]}, "checks": ["theta-table"]}),
    ("unsweepable.json", {"family": {"name": "path", "n": [3, 5]}, "checks": ["alpha-token", "symmetrizer"]}),
    # a tolerance no check can read, and a k_range that is not two integers
    ("tol_negative.json", {"family": {"name": "path", "n": 5}, "checks": ["alpha-token"], "tolerances": {"tol": -1}}),
    ("tol_nan.json", {"family": {"name": "path", "n": 5}, "checks": ["alpha-token"],
                      "tolerances": {"tol": float("nan")}}),
    ("tol_inf.json", {"family": {"name": "path", "n": 5}, "checks": ["alpha-token"],
                      "tolerances": {"tol": float("inf")}}),
    ("k_range_string.json", {"family": {"name": "path", "n": 5}, "checks": ["alpha-token"], "k_range": "23"}),
    ("k_range_float.json", {"family": {"name": "path", "n": 5}, "checks": ["alpha-token"], "k_range": [2.5, 3]}),
    ("k_range_strings.json", {"family": {"name": "path", "n": 5}, "checks": ["alpha-token"], "k_range": ["2", "3"]}),
    ("k_range_three.json", {"family": {"name": "path", "n": 5}, "checks": ["alpha-token"], "k_range": [2, 3, 4]}),
    # values int() or float() would truncate or coerce: a bound, count, seed or cap is an integer
    # and no bool, a span one integer or a list of two, p a real number in [0, 1]
    ("n_float.json", {"family": {"name": "path", "n": [3.9, 4]}, "checks": ["alpha-token"]}),
    ("n_three.json", {"family": {"name": "path", "n": [3, 5, 7]}, "checks": ["alpha-token"]}),
    ("n_bool.json", {"family": {"name": "path", "n": True}, "checks": ["alpha-token"]}),
    ("r_float.json", {"family": {"name": "theta_table", "r": [1.5, 2.9]}, "checks": ["theta-table"]}),
    ("count_float.json", {"family": {"name": "tree_random", "n": 4, "count": 2.5}, "checks": ["alpha-token"]}),
    ("p_text.json", {"family": {"name": "random_connected", "n": 5, "count": 1, "p": "0.5"},
                     "checks": ["alpha-token"]}),
    ("p_above_one.json", {"family": {"name": "random_connected", "n": 5, "count": 1, "p": 3},
                          "checks": ["alpha-token"]}),
    ("seed_float.json", {"family": {"name": "path", "n": 3}, "checks": ["alpha-token"], "seed": 1.5}),
    ("cap_text.json", {"family": {"name": "path", "n": 3}, "checks": ["alpha-token"], "cap": "100"}),
    # a tolerance that float() would coerce, and tolerances that are not an object
    ("tol_bool.json", {"family": {"name": "path", "n": 4}, "checks": ["alpha-token"], "tolerances": {"tol": True}}),
    ("tol_text.json", {"family": {"name": "path", "n": 4}, "checks": ["alpha-token"],
                       "tolerances": {"tol": "1e-7"}}),
    ("tolerances_list.json", {"family": {"name": "path", "n": 4}, "checks": ["alpha-token"], "tolerances": [1]}),
]


# specs with a fault that is found late or next to another, and the message each keeps: the
# order in which a spec is read decides which fault is named
SPEC_ERRORS = [
    ("unknown_family", {"family": {"name": "nope"}, "checks": ["alpha-token"]}, "unknown sweep family 'nope'"),
    ("unhashable_family", {"family": {"name": ["nope"]}, "checks": ["alpha-token"]},
     "unknown sweep family ['nope']"),
    ("no_family", {"checks": ["alpha-token"]}, "sweep spec needs a family object with a name"),
    ("count_text", {"family": {"name": "random_connected", "count": "x"}, "checks": ["alpha-token"]},
     "bad sweep spec: invalid literal for int() with base 10: 'x'"),
    ("count_before_p", {"family": {"name": "random_connected", "count": "x", "p": "zz"},
                        "checks": ["alpha-token"]},
     "bad sweep spec: invalid literal for int() with base 10: 'x'"),
    ("n_before_apply", {"family": {"name": "path"}, "checks": ["theta-table"]}, "family 'path' needs 'n'"),
    ("check_before_family", {"family": {"name": "nope"}, "checks": ["bogus"]}, "unknown check 'bogus'"),
    # refused although no graph is drawn
    ("p_text_with_no_draw", {"family": {"name": "random_connected", "n": 5, "count": 0, "p": "zz"},
                             "checks": ["alpha-token"]},
     "bad sweep spec: could not convert string to float: 'zz'"),
    ("n_short", {"family": {"name": "path", "n": [3]}, "checks": ["alpha-token"]},
     "bad sweep spec: list index out of range"),
    ("n_reversed_with_draws", {"family": {"name": "tree_random", "n": [5, 3], "count": 2},
                               "checks": ["alpha-token"]},
     "bad sweep spec: family 'tree_random' has no n in [5, 3] to draw 2 graphs from"),
    ("tol_bool", {"family": {"name": "path", "n": 4}, "checks": ["alpha-token"], "tolerances": {"tol": True}},
     "bad sweep spec: tol True is not a number"),
    ("tol_text", {"family": {"name": "path", "n": 4}, "checks": ["alpha-token"], "tolerances": {"tol": "1e-7"}},
     "bad sweep spec: tol '1e-7' is not a number"),
    ("tolerances_list", {"family": {"name": "path", "n": 4}, "checks": ["alpha-token"], "tolerances": [1]},
     "bad sweep spec: tolerances [1] is not an object"),
]

# G(n, 0.95) graphs, 4 of the 8 complete: none of those may draw a non-edge, or every later draw moves
DENSE_SWEEP = {"family": {"name": "random_connected", "n": [3, 6], "p": 0.95, "count": 8}, "k_range": [2, 2],
               "seed": 2, "checks": ["alpha-token", "edge-add-iff", "interlacing"]}


class TestSweep:
    def _write_spec(self, tmp_path, **overrides):
        spec = {
            "family": {"name": "tree_random", "n": [4, 6], "count": 6},
            "k_range": [2, 2],
            "checks": ["alpha-token", "interlacing"],
            "seed": 5,
        }
        spec.update(overrides)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_summary_and_rows(self, runner, tmp_path):
        spec = self._write_spec(tmp_path)
        csv_path = tmp_path / "rows.csv"
        res = runner.invoke(main, ["sweep", spec, "--csv", str(csv_path)])
        assert res.exit_code == 0
        summary = json.loads(res.output)
        assert summary["fail"] == 0
        assert summary["total"] == 12
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert len(rows) == 12
        assert {r["verdict"] for r in rows} == {"pass"}

    def test_reproducible_modulo_runtime(self, runner, tmp_path):
        spec = self._write_spec(tmp_path)
        a = runner.invoke(main, ["sweep", spec, "--csv", "-"]).output
        b = runner.invoke(main, ["sweep", spec, "--csv", "-"]).output

        def strip_runtime(text):
            rows = list(csv.reader(io.StringIO(text.split("\n{", 1)[0])))
            return [row[:-1] for row in rows]

        assert strip_runtime(a) == strip_runtime(b)

    def test_seed_changes_instances(self, runner, tmp_path):
        spec = self._write_spec(tmp_path)
        a = runner.invoke(main, ["sweep", spec, "--csv", "-", "--seed", "1"]).output
        b = runner.invoke(main, ["sweep", spec, "--csv", "-", "--seed", "2"]).output
        assert a != b

    def test_trees_alpha_token_all_pass(self, runner, tmp_path):
        spec = self._write_spec(
            tmp_path,
            family={"name": "tree_random", "n": [4, 8], "count": 20},
            checks=["alpha-token"],
            k_range=[2, 3],
        )
        res = runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "t.csv")])
        assert res.exit_code == 0
        assert json.loads(res.output)["fail"] == 0

    def test_random_graphs_edge_add_iff_sweep(self, runner, tmp_path):
        spec = self._write_spec(
            tmp_path,
            family={"name": "random_connected", "n": [5, 9], "p": 0.45, "count": 25},
            checks=["edge-add-iff"],
        )
        res = runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "r.csv")])
        assert res.exit_code == 0
        assert json.loads(res.output)["fail"] == 0

    def test_theta_table_family(self, runner, tmp_path):
        spec = self._write_spec(
            tmp_path, family={"name": "theta_table", "r": [1, 10]}, checks=["theta-table"]
        )
        res = runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "t.csv")])
        summary = json.loads(res.output)
        assert summary["total"] == 10 and summary["pass"] == 10

    def test_parallel_jobs_match_serial(self, runner, tmp_path):
        spec = self._write_spec(tmp_path)
        serial = runner.invoke(main, ["sweep", spec, "--csv", "-"]).output
        parallel = runner.invoke(main, ["sweep", spec, "--csv", "-", "--jobs", "2"]).output

        def rows_no_runtime(text):
            return [r[:-1] for r in csv.reader(io.StringIO(text.split("\n{", 1)[0]))]

        assert rows_no_runtime(serial) == rows_no_runtime(parallel)

    @pytest.mark.parametrize("count", [0, 7])
    def test_chunked_jobs_keep_task_order(self, runner, tmp_path, count):
        # 3 workers take chunks of ceil(tasks / 12): 14 tasks make 7 chunks of 2, none makes no chunk
        spec = self._write_spec(tmp_path, family={"name": "tree_random", "n": [4, 6], "count": count})
        serial = runner.invoke(main, ["sweep", spec, "--csv", "-"]).output
        parallel = runner.invoke(main, ["sweep", spec, "--csv", "-", "--jobs", "3"])
        assert parallel.exit_code == 0

        def rows_no_runtime(text):
            return [r[:-1] for r in csv.reader(io.StringIO(text.split("\n{", 1)[0]))]

        assert len(rows_no_runtime(parallel.output)) == 1 + 2 * count
        assert rows_no_runtime(serial) == rows_no_runtime(parallel.output)

    @pytest.mark.parametrize("overrides, jobs, started", [
        ({}, "500", [12]),
        ({}, "5", [5]),
        ({"checks": ["alpha-token"], "family": {"name": "tree_random", "n": [4, 6], "count": 1}}, "500", []),
        ({"family": {"name": "tree_random", "n": [4, 6], "count": 0}}, "500", []),
    ])
    def test_jobs_start_no_more_workers_than_cells(self, runner, tmp_path, monkeypatch, overrides, jobs,
                                                   started):
        # a process pool starts every worker at its first submit, so the pool is sized to the cells;
        # one cell or none runs serially. The fake pool maps in this process, so no process starts.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                assert chunksize >= 1
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        spec = self._write_spec(tmp_path, **overrides)
        serial = runner.invoke(main, ["sweep", spec, "--csv", "-", "--jobs", "1"])
        pooled = runner.invoke(main, ["sweep", spec, "--csv", "-", "--jobs", jobs])
        assert serial.exit_code == pooled.exit_code == 0 and sizes == started

        def rows_no_runtime(text):
            return [r[:-1] for r in csv.reader(io.StringIO(text.split("\n{", 1)[0]))]

        assert rows_no_runtime(pooled.output) == rows_no_runtime(serial.output)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, runner, tmp_path, monkeypatch, jobs):
        ran = []
        monkeypatch.setattr(cli, "_sweep_row", ran.append)
        res = runner.invoke(main, ["sweep", self._write_spec(tmp_path), "--csv", "-", "--jobs", jobs])
        assert res.exit_code == 2 and ran == [] and res.stdout == ""
        assert "Traceback" not in res.output

    def test_precondition_rows_for_inapplicable_checks(self, runner, tmp_path):
        # pendant bound needs k <= (n+1)/2; small trees with k = 3 are skipped as data
        spec = self._write_spec(
            tmp_path,
            family={"name": "tree_random", "n": [4, 4], "count": 3},
            checks=["pendant-bound"],
            k_range=[3, 3],
        )
        res = runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "p.csv")])
        assert res.exit_code == 0
        summary = json.loads(res.output)
        assert summary["precondition_unmet"] == 3 and summary["fail"] == 0

    def test_failure_exit_code(self, runner, tmp_path, monkeypatch):
        # alpha(F_k) read 0.5 too high: at tol = 0 alpha-token is now proved equal, so no rounding fails it
        real = verify.token_alpha
        monkeypatch.setattr(verify, "token_alpha",
                            lambda tg, base, lo, hi: (real(tg, base, lo, hi)[0] + 0.5, {}))
        spec = self._write_spec(tmp_path, tolerances={"tol": 0.0}, checks=["alpha-token"])
        res = runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "f.csv")])
        assert res.exit_code == 1

    @pytest.mark.parametrize("jobs", [
        "1",
        pytest.param("2", marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork", reason="pool workers must inherit the patch")),
    ])
    @pytest.mark.parametrize("exc", [NumericalError, AssertionError])
    def test_error_row_keeps_the_other_cells(self, runner, tmp_path, monkeypatch, exc, jobs):
        original = verify.check_interlacing

        def faulty(g, u, v, **kwargs):
            if g.n == 5:
                raise exc("eigensolver broke on this cell")
            return original(g, u, v, **kwargs)

        monkeypatch.setattr(verify, "check_interlacing", faulty)
        spec = self._write_spec(tmp_path, family={"name": "path", "n": [3, 6]})
        res = runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "rows.csv"), "--jobs", jobs])
        assert res.exit_code == 1
        rows = list(csv.DictReader(io.StringIO((tmp_path / "rows.csv").read_text())))
        assert [(r["instance"], r["check"], r["verdict"]) for r in rows] == [
            (f"path:{n}", check, "error" if (n, check) == (5, "interlacing") else "pass")
            for n in range(3, 7) for check in ("alpha-token", "interlacing")]
        assert rows[5]["detail"] == "eigensolver broke on this cell"
        summary = json.loads(res.stdout)
        assert (summary["total"], summary["pass"], summary["error"]) == (8, 7, 1)
        assert summary["by_check"]["interlacing"]["error"] == 1

    def test_corrupted_layer_gives_error_rows(self, runner, tmp_path, monkeypatch):
        real = exact._back_substitute

        def corrupt(upper, rhs, level):
            m = real(upper, rhs, level)
            m[-1, 0] += 1
            return m

        monkeypatch.setattr(exact, "_back_substitute", corrupt)
        spec = self._write_spec(tmp_path, family={"name": "path", "n": [3, 5]}, checks=["containment-exact"])
        res = runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "rows.csv")])
        assert res.exit_code == 1
        rows = list(csv.DictReader(io.StringIO((tmp_path / "rows.csv").read_text())))
        assert [(r["instance"], r["verdict"]) for r in rows] == [(f"path:{n}", "error") for n in (3, 4, 5)]
        assert all("L(F_h) K != K M_h" in r["detail"] for r in rows)
        assert json.loads(res.stdout)["error"] == 3

    def test_corrupted_lift_gives_error_rows(self, runner, tmp_path, monkeypatch):
        real = tokens.lift
        monkeypatch.setattr(spectra, "lift", lambda n, k: real(n, k)[::-1])
        spec = self._write_spec(tmp_path, family={"name": "star", "n": [3, 5]}, k_range=[1, 1],
                                checks=["containment"])
        res = runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "rows.csv")])
        assert res.exit_code == 1
        rows = list(csv.DictReader(io.StringIO((tmp_path / "rows.csv").read_text())))
        assert [(r["instance"], r["verdict"]) for r in rows] == [(f"star:{n}", "error") for n in (3, 4, 5)]
        assert all(r["detail"].startswith("lifted residual ") for r in rows)
        assert json.loads(res.stdout)["error"] == 3

    def test_complete_bipartite_family(self, runner, tmp_path):
        # each pair n1 <= n2 once; (3, 2) repeats (2, 3)
        spec = self._write_spec(tmp_path, family={"name": "complete_bipartite", "n1": [1, 3], "n2": [2, 3]},
                                checks=["alpha-token"], k_range=[1, 1])
        res = runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "rows.csv")])
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "rows.csv").read_text())))
        assert [r["instance"] for r in rows] == [f"complete_bipartite:{a},{b}"
                                                 for a, b in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]]
        assert {r["verdict"] for r in rows} == {"pass"}

    def test_no_non_edge_gives_a_precondition_row(self, runner, tmp_path):
        spec = self._write_spec(tmp_path, family={"name": "complete", "n": 3}, checks=["edge-add-iff"])
        res = runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "rows.csv")])
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "rows.csv").read_text())))
        assert [(r["instance"], r["verdict"], r["detail"]) for r in rows] == [
            ("complete:3", "precondition_unmet", "no non-edge available")]

    def test_non_edges_drawn_only_where_there_are_some(self, runner, tmp_path, monkeypatch):
        pairs, real = [], verify.check_edge_add_alpha_iff
        monkeypatch.setattr(verify, "check_edge_add_alpha_iff",
                            lambda g, u, v, **kwargs: pairs.append((g.n, u, v)) or real(g, u, v, **kwargs))
        spec = self._write_spec(tmp_path, **DENSE_SWEEP)
        assert runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "rows.csv")]).exit_code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "rows.csv").read_text())))
        assert [r["instance"] for r in rows if r["detail"] == "no non-edge available"] == [
            f"random_connected:{n}" for n in ("4#1", "3#4", "4#5", "6#7") for _ in range(2)]
        assert pairs == [(3, 0, 1), (5, 1, 4), (6, 4, 5), (5, 0, 2)]  # as drawn when only non-edges draw

    def test_toml_spec_matches_json(self, runner, tmp_path):
        toml = tmp_path / "sweep.toml"
        toml.write_text('checks = ["alpha-token", "edge-add-iff"]\nk_range = [2, 3]\nseed = 7\n\n'
                        '[family]\nname = "tree_random"\nn = [4, 8]\ncount = 10\n\n[tolerances]\ntol = 1e-7\n')
        spec = self._write_spec(tmp_path, family={"name": "tree_random", "n": [4, 8], "count": 10},
                                k_range=[2, 3], checks=["alpha-token", "edge-add-iff"], tolerances={"tol": 1e-7},
                                seed=7)
        outputs = []
        for path in (str(toml), spec):
            res = runner.invoke(main, ["sweep", path, "--csv", str(tmp_path / "rows.csv")])
            assert res.exit_code == 0
            rows = [r[:-1] for r in csv.reader(io.StringIO((tmp_path / "rows.csv").read_text()))]
            outputs.append((rows, res.stdout))
        assert outputs[0] == outputs[1] and len(outputs[0][0]) == 1 + 30

    def test_bad_spec_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert runner.invoke(main, ["sweep", str(bad)]).exit_code == 2

    @pytest.mark.parametrize("tol", [2, 0, 1e-7])
    def test_numeric_tol_is_read_as_given(self, runner, tmp_path, monkeypatch, tol):
        # integers and floats, above 1 too, reach the check as floats
        tols, real = [], verify.check_alpha_token_equality
        monkeypatch.setattr(verify, "check_alpha_token_equality",
                            lambda *a, **kw: tols.append(kw.get("tol")) or real(*a, **kw))
        spec = self._write_spec(tmp_path, family={"name": "path", "n": 4}, checks=["alpha-token"],
                                tolerances={"tol": tol})
        res = runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "rows.csv")])
        assert res.exit_code == 0 and json.loads(res.stdout)["pass"] == 1
        assert tols == [tol] and type(tols[0]) is float

    def test_empty_n_range_with_no_draws_is_valid(self, runner, tmp_path):
        spec = self._write_spec(tmp_path, family={"name": "tree_random", "n": [5, 3], "count": 0})
        res = runner.invoke(main, ["sweep", spec, "--csv", str(tmp_path / "rows.csv")])
        assert res.exit_code == 0 and json.loads(res.stdout)["total"] == 0

    @pytest.mark.parametrize("name, text", MALFORMED_SPECS, ids=[name for name, _ in MALFORMED_SPECS])
    def test_malformed_spec_exits_2_before_any_cell(self, runner, tmp_path, monkeypatch, name, text):
        ran = []
        for attr in dir(verify):
            if attr.startswith("check_"):
                monkeypatch.setattr(verify, attr, lambda *a, **kw: ran.append(a))
        path = tmp_path / name
        path.write_text(text if isinstance(text, str) else json.dumps(text))
        res = runner.invoke(main, ["sweep", str(path), "--csv", "-"])
        assert res.exit_code == 2
        assert ran == [] and res.stdout == ""
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("name, spec, message", SPEC_ERRORS, ids=[name for name, _, _ in SPEC_ERRORS])
    def test_spec_errors_keep_their_order(self, runner, tmp_path, name, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        res = runner.invoke(main, ["sweep", str(path), "--csv", "-"])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr.splitlines()[-1] == f"Error: {message}"

    @pytest.mark.parametrize("pinned, spec", [
        ("sweep_seven.csv", {
            "family": {"name": "random_connected", "n": [4, 7], "count": 8, "p": 0.5},
            "k_range": [1, 3], "seed": 11,
            "checks": ["alpha-token", "containment", "containment-exact", "pendant-bound",
                       "edge-add-iff", "interlacing"],
        }),
        ("sweep_theta.csv", {"family": {"name": "theta_table", "r": [1, 6]}, "checks": ["theta-table"]}),
        ("sweep_dense.csv", DENSE_SWEEP),
    ])
    def test_rows_match_pinned(self, runner, tmp_path, pinned, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        csv_path = tmp_path / "rows.csv"
        assert runner.invoke(main, ["sweep", str(path), "--csv", str(csv_path)]).exit_code == 0
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        expected = list(csv.DictReader(io.StringIO((DATA / pinned).read_text())))
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            del row["runtime_ms"]
            if want["detail"].startswith("{"):
                # witnesses are floats from LAPACK; allow for another BLAS build
                assert json.loads(row.pop("detail")) == pytest.approx(
                    json.loads(want.pop("detail")), rel=1e-9, abs=1e-12)
            assert row == want


class TestRefusedBeforeAnyWork:
    """A vertex cap below 1 and an output path that cannot be opened are malformed input: exit 2
    with one error line, before any graph, token graph or spectrum is built or any sweep cell runs."""

    SPEC = {"family": {"name": "path", "n": [3, 5]}, "checks": ["alpha-token"]}

    @pytest.fixture
    def work(self, monkeypatch):
        started = []
        for module, name in ((graphs, "build_standard"), (tokens, "token_graph"), (verify, "token_graph"),
                             (spectra, "eig_sym"), (cli, "_sweep_row")):
            monkeypatch.setattr(module, name, lambda *a, name=name, **kw: started.append(name))
        return started

    @pytest.mark.parametrize("argv, env, message", [
        (["verify", "alpha-token", "--graph", "path:5", "-k", "2", "--cap", "0"], {},
         "Invalid value for '--cap': 0 is not in the range x>=1."),
        (["verify", "alpha-token", "--graph", "path:5", "-k", "2", "--cap", "-1"], {},
         "Invalid value for '--cap': -1 is not in the range x>=1."),
        (["construct", "token", "--graph", "path:5", "-k", "2", "--cap", "-3"], {},
         "Invalid value for '--cap': -3 is not in the range x>=1."),
        (["verify", "alpha-token", "--graph", "path:4", "-k", "2"], {"TOKEN_SPECTRA_CAP": "-5"},
         "bad TOKEN_SPECTRA_CAP='-5', expected an integer >= 1"),
        (["sweep", "{spec}", "--cap", "0"], {}, "Invalid value for '--cap': 0 is not in the range x>=1."),
        (["sweep", "{capped}"], {}, "bad sweep spec: cap -1 is not an integer >= 1"),
    ], ids=["verify-0", "verify-neg", "construct", "env", "sweep-option", "sweep-spec"])
    def test_cap_below_1_exits_2(self, runner, tmp_path, work, argv, env, message):
        (tmp_path / "spec.json").write_text(json.dumps(self.SPEC))
        (tmp_path / "capped.json").write_text(json.dumps({**self.SPEC, "cap": -1}))
        argv = [a.format(spec=tmp_path / "spec.json", capped=tmp_path / "capped.json") for a in argv]
        res = runner.invoke(main, argv, env=env)
        assert res.exit_code == 2 and res.stdout == ""
        assert [line for line in res.stderr.splitlines() if "rror" in line] == [f"Error: {message}"]
        assert work == []

    @pytest.mark.parametrize("argv", [
        ["construct", "path", "5", "-o", "{out}"],
        ["spectrum", "path:5", "-o", "{out}"],
        ["sweep", "{spec}", "--csv", "{out}"],
    ], ids=["construct", "spectrum", "sweep"])
    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_output_that_cannot_be_opened_exits_2(self, runner, tmp_path, work, argv, where):
        (tmp_path / "spec.json").write_text(json.dumps(self.SPEC))
        out = tmp_path / "missing" / "x.out" if where == "missing-dir" else tmp_path
        reason = "No such file or directory" if where == "missing-dir" else "Is a directory"
        res = runner.invoke(main, [a.format(spec=tmp_path / "spec.json", out=out) for a in argv])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr == f"error: cannot open {str(out)!r} for writing: {reason}\n"
        assert work == []

    def test_output_checked_then_left_as_it_was(self, runner, tmp_path):
        # the path is opened before the work, but a command refused later leaves no new file,
        # and an old one unchanged
        argv = ["construct", "token", "--graph", "path:30", "-k", "8", "--cap", "100", "-o"]
        new, old = tmp_path / "new.el", tmp_path / "old.el"
        old.write_text("kept\n")
        for out in (new, old):
            assert runner.invoke(main, [*argv, str(out)]).exit_code == 3
        assert not new.exists() and old.read_text() == "kept\n"
        assert runner.invoke(main, ["construct", "path", "3", "-o", str(new)]).exit_code == 0
        assert new.read_text() == "3 2\n0 1\n1 2\n"


class TestSweepCap:
    """The sweep's cap is --cap, else the spec's cap, else TOKEN_SPECTRA_CAP, else the default:
    the environment is read only where neither --cap nor the spec sets it."""

    SPEC = {"family": {"name": "path", "n": [3, 5]}, "checks": ["alpha-token"]}  # N = 3, 6 and 10

    @pytest.mark.parametrize("option, spec_cap, env, capped", [
        (["--cap", "5"], 100, "abc", 2),  # a bad environment is not read
        ([], 5, "abc", 2),
        ([], None, "5", 2),
        ([], None, None, 0),
    ], ids=["option", "spec", "env", "default"])
    def test_cap_sources(self, runner, tmp_path, option, spec_cap, env, capped):
        spec = {**self.SPEC, **({} if spec_cap is None else {"cap": spec_cap})}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = ["sweep", str(tmp_path / "spec.json"), "--csv", str(tmp_path / "rows.csv"), *option]
        res = runner.invoke(main, argv, env={"TOKEN_SPECTRA_CAP": env})
        assert res.exit_code == 0, res.output
        summary = json.loads(res.stdout)
        assert summary["cap_exceeded"] == capped and summary["pass"] == 3 - capped

    def test_bad_environment_read_where_nothing_else_sets_the_cap(self, runner, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(self.SPEC))
        res = runner.invoke(main, ["sweep", str(tmp_path / "spec.json")], env={"TOKEN_SPECTRA_CAP": "abc"})
        assert res.exit_code == 2 and res.stdout == ""
        assert "bad TOKEN_SPECTRA_CAP='abc', expected an integer >= 1" in res.stderr
