"""The command-line interface, run in process: output shapes, file
round-trips, and exit codes (0 ok, 1 user error, 2 budget spent); and
`python -m mdimlab`, run once as a subprocess."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mdimlab.cli import main
from mdimlab.designs import design_text
from mdimlab.io import graph_text
from mdimlab.zoo import design, graph


def run(*argv: str):
    """Invoke the CLI in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse-driven exits
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.graph"
    code, _, _ = run(
        "construct", "family", "kneser", "--param", "5", "--param", "2",
        "--out", str(path),
    )
    assert code == 0
    return str(path)


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "q3.graph"
    assert run("construct", "family", "hypercube", "--param", "3",
               "--out", str(path))[0] == 0
    return str(path)


class TestConstruct:
    def test_writes_edge_format(self, tmp_path):
        path = tmp_path / "c6.graph"
        code, out, _ = run("construct", "family", "cycle", "--param", "6",
                           "--out", str(path))
        assert code == 0
        assert "6-vertex graph" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "6"
        assert lines[1] == "0 1"

    def test_stdout_by_default(self):
        code, out, _ = run("construct", "family", "cycle", "--param", "6")
        assert code == 0
        assert out.splitlines()[0] == "6"

    def test_dot_output(self):
        code, out, _ = run("construct", "family", "cycle", "--param", "4",
                           "--dot")
        assert code == 0
        assert out.startswith("graph G {")
        assert "0 -- 1" in out

    def test_plane_design_output(self, tmp_path):
        path = tmp_path / "p3.design"
        code, _, _ = run("construct", "plane", "3", "--out", str(path))
        assert code == 0
        assert path.read_text().splitlines()[0] == "13 4 1"

    def test_incidence_graph_of_a_design(self, tmp_path):
        p3, by_plane, by_file = (tmp_path / name for name in ("p3.design", "a.graph", "b.graph"))
        assert run("construct", "plane", "3", "--out", str(p3))[0] == 0
        assert run("construct", "incidence", "--plane", "3", "--out", str(by_plane))[0] == 0
        code, out, _ = run("construct", "incidence", "--design", str(p3),
                           "--out", str(by_file))
        assert code == 0 and "26-vertex graph" in out
        assert by_file.read_text() == by_plane.read_text()
        code, out, _ = run("mdim", str(by_file), "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["mu"], payload["status"]) == (8, "minimum")

    def test_incidence_with_a_param_exits_1(self):
        code, out, err = run("construct", "incidence", "--plane", "2", "--param", "3")
        assert code == 1 and out == ""
        assert "error: unrecognized arguments: --param 3" in err
        assert err.startswith("usage: mdimlab construct incidence ")

    def test_derived_families_via_base(self, tmp_path):
        path = tmp_path / "taylor.graph"
        code, _, _ = run("construct", "taylor", "cycle", "--param", "5",
                         "--out", str(path))
        assert code == 0
        assert path.read_text().splitlines()[0] == "12"
        code, _, _ = run("construct", "double", "cycle", "--param", "5",
                         "--out", str(path))
        assert code == 0
        assert path.read_text().splitlines()[0] == "10"

    def test_the_crown_is_the_double_of_a_complete_graph(self):
        # K_{4,4} minus a perfect matching, as the removed crown family wrote it
        code, out, _ = run("construct", "double", "complete", "--param", "4")
        assert code == 0
        assert out == "".join(line + "\n" for line in [
            "8", "0 5", "0 6", "0 7", "1 4", "1 6", "1 7",
            "2 4", "2 5", "2 7", "3 4", "3 5", "3 6",
        ])

    def test_base_on_a_plain_family_exits_1(self):
        code, out, err = run("construct", "family", "cycle", "--param", "5",
                             "--base", "paley")
        assert code == 1
        assert "error: unrecognized arguments: --base paley" in err and out == ""
        assert err.startswith("usage: mdimlab construct family ")

    @pytest.mark.parametrize("argv,text,reader,spec", [
        pytest.param(*case, id=case[0]) for case in [
            ("family kneser --param 5 --param 2", graph_text, graph,
             {"family": "kneser", "params": [5, 2]}),
            ("taylor paley --param 13", graph_text, graph,
             {"taylor": {"family": "paley", "params": [13]}}),
            ("double rook --param 4 --param 4", graph_text, graph,
             {"double": {"family": "rook", "params": [4, 4]}}),
            ("incidence --plane 3", graph_text, graph, {"incidence": {"plane": 3}}),
            ("plane 3", design_text, design, {"plane": 3}),
        ]
    ])
    def test_a_naming_mode_writes_what_its_spec_builds(self, argv, text, reader, spec):
        # the golden rows name their graphs and designs by the same specs
        assert run("construct", *argv.split()) == (0, text(reader(spec)), "")

    def test_unknown_family_exits_1(self):
        code, out, err = run("construct", "family", "nope")
        assert code == 1
        assert "unknown family" in err and out == ""

    @pytest.mark.parametrize("extra", [
        ("hypercube", "--param", "3"), ("--param", "3"), ("--base", "paley"),
    ])
    def test_plane_with_graph_flags_exits_1(self, extra):
        code, out, err = run("construct", "plane", "2", *extra)
        assert code == 1
        assert "error: unrecognized arguments:" in err and out == ""
        assert err.startswith("usage: mdimlab construct plane ")

    def test_dot_on_a_design_exits_1(self):
        code, out, err = run("construct", "plane", "3", "--dot")
        assert code == 1
        assert "error: unrecognized arguments: --dot" in err and out == ""
        assert err.startswith("usage: mdimlab construct plane ")

    @pytest.mark.parametrize("argv", [
        ("--family", "cycle", "--param", "6"), ("--plane", "3"),
        ("taylor", "--base", "cycle", "--param", "5"),
        ("double", "--base", "cycle", "--param", "5"),
        ("family", "--family", "cycle", "--param", "6"),
    ])
    def test_removed_flag_forms_exit_1(self, argv):
        code, out, err = run("construct", *argv)
        assert code == 1 and out == ""
        assert "error:" in err


class TestClassify:
    def test_text_names_the_class(self, petersen_file):
        code, out, _ = run("classify", petersen_file)
        assert code == 0
        assert out.startswith("AH1")

    def test_json_payload(self, cube_file):
        code, out, _ = run("classify", cube_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["class"] == "AH5"
        assert payload["bipartite"] and payload["antipodal"]
        assert all(claim["ok"] for claim in payload["subclaims"])

    def test_non_ascii_graph_file_exits_1(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_bytes(b"3\n0 1\xff\n")
        code, out, err = run("classify", str(path))
        assert code == 1 and out == ""
        assert "error:" in err and "Traceback" not in err

    def test_diameter_past_the_8_bit_range_exits_1(self, tmp_path):
        path = tmp_path / "p256.graph"
        path.write_text("256\n" + "".join(f"{v} {v + 1}\n" for v in range(255)))
        code, out, err = run("classify", str(path))
        assert code == 1 and out == ""
        assert "error: graph diameter exceeds the 8-bit distance range" in err

    def test_missing_file_exits_1(self):
        code, out, err = run("classify", "/nonexistent/g.graph")
        assert code == 1 and out == ""
        assert "error:" in err


class TestMdim:
    def test_exact_is_the_default(self, petersen_file):
        code, out, _ = run("mdim", petersen_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == 3
        assert payload["status"] == "minimum"
        assert payload["method"] == "exact-bnb"

    def test_text_line(self, petersen_file):
        code, out, _ = run("mdim", petersen_file)
        assert code == 0
        assert out.startswith("mu=3 set=[")

    def test_greedy_mode(self, petersen_file):
        code, out, _ = run("mdim", petersen_file, "--greedy", "--json")
        assert code == 0
        assert json.loads(out)["method"] == "greedy"

    def test_oracle_mode(self, petersen_file):
        code, out, _ = run("mdim", petersen_file, "--oracle", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "exhaustive" and payload["mu"] == 3

    def test_certify_accepts_a_resolving_set(self, petersen_file):
        code, out, _ = run("mdim", petersen_file, "--certify", "0,1,3",
                           "--json")
        assert code == 0
        assert json.loads(out)["status"] == "verified-resolving"

    def test_certify_rejects_a_non_resolving_set(self, petersen_file):
        code, out, _ = run("mdim", petersen_file, "--certify", "0,1", "--json")
        assert code == 1
        assert json.loads(out)["status"] == "failed"

    def test_exhausted_budget_exits_2(self, tmp_path):
        path = tmp_path / "gq.graph"
        run("construct", "family", "gq22_incidence", "--out", str(path))
        code, out, _ = run("mdim", str(path), "--budget", "1", "--json")
        assert code == 2
        assert json.loads(out)["status"] == "verified-resolving"

    def test_negative_budget_exits_1(self, petersen_file):
        code, out, err = run("mdim", petersen_file, "--budget", "-3")
        assert code == 1 and out == ""
        assert "error:" in err

    def test_malformed_vertex_list_exits_1(self, petersen_file):
        code, out, err = run("mdim", petersen_file, "--certify", "0,x")
        assert code == 1 and out == ""
        assert "error: argument --certify: expected a comma-separated vertex list" in err

    def test_greedy_with_a_budget_exits_1(self, petersen_file):
        code, out, err = run("mdim", petersen_file, "--greedy", "--budget", "5")
        assert code == 1 and out == ""
        assert "error: argument --budget: not allowed with argument --greedy" in err

    def test_certify_with_a_budget_exits_1(self, petersen_file):
        code, out, err = run("mdim", petersen_file, "--certify", "0,1,3", "--budget", "3")
        assert code == 1 and out == ""
        assert "error: argument --budget: not allowed with argument --certify" in err

    def test_greedy_and_oracle_together_exit_1(self, petersen_file):
        code, out, err = run("mdim", petersen_file, "--greedy", "--oracle")
        assert code == 1 and out == ""
        assert "error: argument --oracle: not allowed with argument --greedy" in err


class TestLift:
    def test_halved(self, cube_file):
        code, out, _ = run("lift", "halved", cube_file,
                           "--plus-set", "0,1,2", "--minus-set", "0,1,2",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == 6
        assert payload["method"] == "lifted-halving"

    def test_folded_reports_the_case(self, cube_file, tmp_path):
        code, out, _ = run("lift", "folded", cube_file, "--set", "0,1,2")
        assert code == 0
        assert out == "size=3 set=[5, 6, 7] case=ii\n"
        k33 = tmp_path / "k33.graph"
        assert run("construct", "family", "complete_multipartite",
                   "--param", "2", "--param", "3", "--out", str(k33))[0] == 0
        code, out, _ = run("lift", "folded", str(k33), "--set", "0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["case"], payload["center"]) == ("iii", 1)
        assert payload["set"] == [1, 2, 4, 5]

    def test_push(self, cube_file):
        code, out, _ = run("lift", "push", cube_file, "--set", "0,1,2", "--json")
        assert code == 0
        assert json.loads(out)["method"] == "lifted-push"

    def test_taylor_from_a_base_family(self):
        code, out, _ = run("lift", "taylor", "cycle", "--param", "5",
                           "--set", "0,1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == 3 and payload["method"] == "lifted-taylor"

    def test_double_writes_the_cover(self, tmp_path):
        out_path = tmp_path / "double.graph"
        code, out, _ = run("lift", "double", "--base", "rook",
                           "--param", "4", "--param", "4",
                           "--set", "0,2,5,9", "--out", str(out_path),
                           "--json")
        assert code == 0
        assert json.loads(out)["mu"] == 8
        assert out_path.read_text().splitlines()[0] == "32"

    def test_double_from_a_graph_file(self, tmp_path):
        path = tmp_path / "rook.graph"
        run("construct", "family", "rook", "--param", "4", "--param", "4",
            "--out", str(path))
        code, out, _ = run("lift", "double", str(path), "--set", "0,2,5,9")
        assert code == 0
        assert out.startswith("size=8 ")

    @pytest.mark.parametrize("mode", ["double", "taylor", "push"])
    def test_a_file_and_a_base_together_exit_1(self, cube_file, mode):
        base = ["paley"] if mode == "taylor" else ["--base", "paley"]
        code, out, err = run("lift", mode, cube_file, *base,
                             "--param", "13", "--set", "0,1,3,4")
        assert code == 1
        assert "error: " in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("mode, flag", [
        ("halved", "--plus-set"), ("folded", "--set"), ("push", "--set"),
        ("double", "--set"),
    ])
    def test_param_with_a_graph_file_exits_1(self, cube_file, mode, flag):
        other = ["--minus-set", "0,1,2"] if mode == "halved" else []
        code, out, err = run("lift", mode, cube_file, "--param", "13",
                             flag, "0,1,2", *other)
        assert code == 1
        assert "error: " in err and "--param" in err and out == ""

    def test_non_resolving_input_exits_1(self, cube_file):
        code, out, err = run("lift", "halved", cube_file,
                             "--plus-set", "0", "--minus-set", "0,1,2")
        assert code == 1 and out == ""
        assert "error:" in err

    def test_halved_one_vertex_graph_exits_1(self, tmp_path):
        path = tmp_path / "k1.graph"
        path.write_text("1\n")
        code, out, err = run("lift", "halved", str(path),
                             "--plus-set", "0", "--minus-set", "")
        assert code == 1 and out == ""
        assert "error: halving needs a graph with at least two vertices" in err

    def test_missing_graph_file_exits_1(self):
        code, out, err = run("lift", "halved", "--plus-set", "0,1")
        assert code == 1 and out == ""
        assert "error: the following arguments are required: graph" in err

    @pytest.mark.parametrize("mode, flag", [
        ("halved", "--plus-set"), ("folded", "--set"), ("push", "--set"),
    ])
    def test_missing_set_flag_exits_1(self, cube_file, mode, flag):
        code, out, err = run("lift", mode, cube_file)
        assert code == 1 and out == ""
        assert "error: the following arguments are required: " in err
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("lift", "push", "PETERSEN", "--set", "0,1,2"),
         "not bipartite: odd closed walk [0, 9, 1, 4, 8, 0]"),
        (("lift", "halved", "PETERSEN", "--plus-set", "0", "--minus-set", "0"),
         "not bipartite: odd closed walk [0, 9, 1, 4, 8, 0]"),
        (("lift", "double", "--base", "odd", "--param", "3", "--set", "0,1,3"),
         "doubling transfer needs a strongly regular graph with a = c"),
        (("construct", "taylor", "complete", "--param", "4"),
         "taylor construction needs a strongly regular graph with k = 2c"),
    ])
    def test_a_failed_hypothesis_exits_1(self, petersen_file, argv, message):
        code, out, err = run(*(petersen_file if a == "PETERSEN" else a for a in argv))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_missing_minus_set_exits_1(self, cube_file):
        code, out, err = run("lift", "halved", cube_file, "--plus-set", "0")
        assert code == 1 and out == ""
        assert "error: the following arguments are required: --minus-set" in err

    @pytest.mark.parametrize("mode, source", [
        ("folded", None), ("taylor", ["paley", "--param", "5"]),
    ])
    def test_out_outside_double_exits_1(self, cube_file, tmp_path, mode, source):
        out_path = tmp_path / "x.graph"
        code, out, err = run("lift", mode, *(source or [cube_file]),
                             "--set", "0,1", "--out", str(out_path))
        assert code == 1
        assert "error: unrecognized arguments: --out" in err and out == ""
        assert err.startswith(f"usage: mdimlab lift {mode} ")
        assert not out_path.exists()

    @pytest.mark.parametrize("mode, flag", [
        ("folded", "--plus-set"), ("push", "--minus-set"), ("double", "--plus-set"),
    ])
    def test_half_sets_outside_halved_exit_1(self, cube_file, mode, flag):
        code, out, err = run("lift", mode, cube_file, "--set", "0,1,2",
                             flag, "5")
        assert code == 1
        assert f"error: unrecognized arguments: {flag} 5" in err and out == ""
        assert err.startswith(f"usage: mdimlab lift {mode} ")

    def test_set_on_halved_exits_1(self, cube_file):
        code, out, err = run("lift", "halved", cube_file, "--set", "0,1,2",
                             "--plus-set", "0,1,2", "--minus-set", "0,1,2")
        assert code == 1
        assert "error: unrecognized arguments: --set" in err and out == ""
        assert err.startswith("usage: mdimlab lift halved ")

    @pytest.mark.parametrize("mode", ["taylor", "double"])
    def test_missing_set_on_a_base_family_exits_1(self, mode):
        base = ["paley"] if mode == "taylor" else ["--base", "paley"]
        code, out, err = run("lift", mode, *base, "--param", "13")
        assert code == 1 and out == ""
        assert "error: the following arguments are required: --set" in err

    def test_double_without_a_graph_or_base_exits_1(self):
        code, out, err = run("lift", "double", "--set", "0,1")
        assert code == 1 and out == ""
        assert "error: one of the arguments graph --base is required" in err

    @pytest.mark.parametrize("argv", [
        ("--from", "halved", "q3.graph", "--plus-set", "0", "--minus-set", "0"),
        ("--from", "taylor", "--base", "paley", "--param", "13", "--set", "0"),
        ("taylor", "--base", "paley", "--param", "13", "--set", "0"),
    ])
    def test_removed_flag_forms_exit_1(self, argv):
        code, out, err = run("lift", *argv)
        assert code == 1 and out == ""
        assert "error:" in err


class TestBounds:
    def test_json_report(self, petersen_file):
        code, out, _ = run("bounds", petersen_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 10 and payload["lower_nd"] == 3
        assert payload["general"] > payload["lower_nd"]

    def test_imprimitive_graph_exits_1(self, cube_file):
        code, out, err = run("bounds", cube_file)
        assert code == 1 and out == ""
        assert "error:" in err

    def test_one_vertex_graph_exits_1(self, tmp_path):
        path = tmp_path / "k1.graph"
        path.write_text("1\n")
        code, out, err = run("bounds", str(path))
        assert code == 1 and out == ""
        assert "error:" in err


class TestSemiresolve:
    def test_plane_side(self):
        code, out, _ = run("semiresolve", "--plane", "2", "--side", "blocks",
                           "--json")
        assert code == 0
        assert json.loads(out)["mu"] == 3

    def test_split(self):
        code, out, _ = run("semiresolve", "--plane", "2", "--split", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu_star"] == 6
        assert payload["points_part"]["mu"] == 3

    def test_design_file(self, tmp_path):
        path = tmp_path / "p3.design"
        run("construct", "plane", "3", "--out", str(path))
        code, out, _ = run("semiresolve", "--design", str(path))
        assert code == 0
        assert out.startswith("size=6")

    def test_spent_budget_exits_2(self):
        code, out, _ = run("semiresolve", "--plane", "3", "--side", "blocks",
                           "--budget", "1")
        assert code == 2
        assert out.startswith("size=6")
        assert out.rstrip().endswith("status=verified-resolving")

    def test_spent_budget_on_split_exits_2(self):
        code, out, _ = run("semiresolve", "--plane", "3", "--split", "--budget", "1")
        assert code == 2
        assert out.startswith("split=12")

    def test_negative_budget_exits_1(self):
        code, out, err = run("semiresolve", "--plane", "2", "--budget", "-1")
        assert code == 1 and out == ""
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("content", [b"x y z\n", b"7 3 1\n\xff\n"])
    def test_malformed_design_file_exits_1(self, tmp_path, content):
        path = tmp_path / "bad.design"
        path.write_bytes(content)
        code, out, err = run("semiresolve", "--design", str(path))
        assert code == 1 and out == ""
        assert "error:" in err and "Traceback" not in err

    def test_design_without_points_exits_1(self, tmp_path):
        path = tmp_path / "empty.design"
        path.write_text("0 0 0\n")
        code, out, err = run("semiresolve", "--design", str(path))
        assert code == 1 and out == ""
        assert "error:" in err and "unseparated" not in err

    def test_degenerate_design_exits_1(self, tmp_path):
        # a (2, 2, 2) design: both blocks hold both points
        path = tmp_path / "full.design"
        path.write_text("2 2 2\n11\n11\n")
        code, out, err = run("semiresolve", "--design", str(path))
        assert code == 1 and out == ""
        assert "error: instance is infeasible" in err and "Traceback" not in err

    def test_plane_and_design_together_exit_1(self, tmp_path):
        path = tmp_path / "p2.design"
        run("construct", "plane", "2", "--out", str(path))
        code, out, err = run("semiresolve", "--plane", "3", "--design", str(path))
        assert code == 1 and out == ""
        assert "error: argument --design: not allowed with argument --plane" in err

    def test_split_with_a_side_exits_1(self):
        code, out, err = run("semiresolve", "--plane", "2", "--split", "--side", "points")
        assert code == 1 and out == ""
        assert "error: argument --side: not allowed with argument --split" in err

    def test_requires_a_design_source(self):
        code, out, err = run("semiresolve", "--side", "blocks")
        assert code == 1 and out == ""
        assert "error: one of the arguments --plane --design is required" in err


class TestVerifyAndOracle:
    def test_single_row(self):
        code, out, _ = run("verify", "--only", "mu-petersen")
        assert code == 0
        assert "1 passed, 0 failed" in out

    def test_json_report(self):
        code, out, _ = run("verify", "--only", "mu-petersen,mu-Q_3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
        assert payload["counts"] == {"passed": 2, "failed": 0, "recorded": 0}
        assert all(row["pass"] for row in payload["rows"])
        assert all(set(row) == {"id", "claim", "source", "expected", "computed", "pass"}
                   for row in payload["rows"])

    def test_misspelt_only_id_exits_1(self):
        code, out, err = run("verify", "--only", "mu-petersn")
        assert code == 1 and out == ""
        assert "error: unknown row ids: 'mu-petersn'" in err

    def test_empty_only_exits_1(self):
        code, out, err = run("verify", "--only", "")
        assert code == 1 and out == ""
        assert "error: unknown row ids: ''" in err

    def test_the_biplane_row_runs_alone(self):
        code, out, _ = run("verify", "--only", "biplane-mu")
        assert code == 0
        assert out.splitlines()[-1] == "1 passed, 0 failed, 0 recorded"

    def test_include_slow_is_no_option(self):
        code, out, err = run("verify", "--include-slow")
        assert code == 1 and out == ""
        assert "error: unrecognized arguments: --include-slow" in err

    def test_verify_takes_no_budget(self):
        code, out, err = run("verify", "--budget", "1")
        assert code == 1 and out == ""
        assert err.startswith("usage: mdimlab verify ")
        assert "error: unrecognized arguments: --budget 1" in err

    def test_oracle_recomputes_small_frozen_values(self):
        code, out, _ = run("oracle", "--max-n", "10")
        assert code == 0
        assert "mu-petersen: frozen=3 oracle=3 ok" in out
        assert "skipped" in out  # larger instances stay out of reach

    def test_default_oracle_re_derives_every_reachable_row(self):
        # --max-n 32 by default; mu-K_3x4 (n 12, mu 9) sorts two-word rows
        code, out, _ = run("oracle")
        assert code == 0
        assert "mu-K_3x4: frozen=[9] oracle=[9] ok" in out
        assert out.splitlines()[-1] == "28 rows, 22 re-derived, 0 disagreements"

    def test_oracle_that_re_derives_nothing_exits_1(self):
        code, out, err = run("oracle", "--max-n", "2")
        assert code == 1
        assert "0 re-derived" in out
        assert "error:" in err


class TestTopLevel:
    def test_no_arguments_exits_1(self):
        assert run()[0] == 1

    def test_readme_examples_run(self, tmp_path, monkeypatch):
        # run each mdimlab line of the README's shell blocks in order, in one
        # directory; a line exits 0 unless its comment starts "exit N:"
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        lines = [line for block in blocks for line in block.splitlines()
                 if line.startswith("mdimlab ")]
        assert len(lines) >= 20
        monkeypatch.chdir(tmp_path)
        for line in lines:
            command, _, comment = line.partition("#")
            expected = re.match(r"\s*exit (\d+):", comment)
            code, _, err = run(*shlex.split(command)[1:])
            assert code == (int(expected[1]) if expected else 0), (line, err)

    def test_experiment_is_no_command(self):
        code, out, err = run("experiment", "semisplit", "--plane", "2")
        assert code == 1 and out == ""
        assert "error: argument command: invalid choice: 'experiment'" in err

    def test_unknown_subcommand_exits_1(self):
        code, out, err = run("nope")
        assert code == 1 and out == ""
        assert "usage:" in err

    @pytest.mark.parametrize("argv", [
        ("construct", "family", "cycle", "--param", "\u0665"),
        ("construct", "family", "cycle", "--param", "+5"),
        ("construct", "plane", "0_3"),
        ("semiresolve", "--plane", "\u0663"),
        ("oracle", "--max-n", " 12"),
        ("mdim", "C12", "--budget", "1_000"),
        ("mdim", "C12", "--certify", "0_1,0"),
        ("mdim", "C12", "--certify", "\u0661,0"),
        ("mdim", "C12", "--certify", " +1 ,0"),
    ])
    def test_integers_must_be_ascii_decimal(self, tmp_path, argv):
        # int() would read each of these as a number
        c12 = tmp_path / "c12.graph"
        assert run("construct", "family", "cycle", "--param", "12",
                   "--out", str(c12))[0] == 0
        code, out, err = run(*(str(c12) if a == "C12" else a for a in argv))
        assert code == 1 and out == ""
        assert "error: argument" in err and "Traceback" not in err

    def test_python_m_runs_the_command_line(self):
        src = str(Path(__file__).parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mdimlab", "verify", "--only", "fano-complement-pair"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert "1 passed" in proc.stdout
