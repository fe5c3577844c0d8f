"""The command-line interface, run in process: output shapes, file
round-trips, and exit codes (0 ok, 1 user error, 2 budget spent)."""

import contextlib
import io
import json

import pytest

from mdimlab.cli import main


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
        "construct", "--family", "kneser", "--param", "5", "--param", "2",
        "--out", str(path),
    )
    assert code == 0
    return str(path)


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "q3.graph"
    assert run("construct", "--family", "hypercube", "--param", "3",
               "--out", str(path))[0] == 0
    return str(path)


class TestConstruct:
    def test_writes_edge_format(self, tmp_path):
        path = tmp_path / "c6.graph"
        code, out, _ = run("construct", "--family", "cycle", "--param", "6",
                           "--out", str(path))
        assert code == 0
        assert "6-vertex graph" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "6"
        assert lines[1] == "0 1"

    def test_stdout_by_default(self):
        code, out, _ = run("construct", "--family", "cycle", "--param", "6")
        assert code == 0
        assert out.splitlines()[0] == "6"

    def test_dot_output(self):
        code, out, _ = run("construct", "--family", "cycle", "--param", "4",
                           "--dot")
        assert code == 0
        assert out.startswith("graph G {")
        assert "0 -- 1" in out

    def test_plane_design_output(self, tmp_path):
        path = tmp_path / "p3.design"
        code, _, _ = run("construct", "--plane", "3", "--out", str(path))
        assert code == 0
        assert path.read_text().splitlines()[0] == "13 4 1"

    def test_derived_families_via_base(self, tmp_path):
        path = tmp_path / "taylor.graph"
        code, _, _ = run("construct", "--family", "taylor", "--base", "cycle",
                         "--param", "5", "--out", str(path))
        assert code == 0
        assert path.read_text().splitlines()[0] == "12"

    def test_unknown_family_exits_1(self):
        code, _, err = run("construct", "--family", "nope")
        assert code == 1
        assert "unknown family" in err


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
        code, _, err = run("classify", str(path))
        assert code == 1
        assert "error:" in err and "Traceback" not in err

    def test_missing_file_exits_1(self):
        code, _, err = run("classify", "/nonexistent/g.graph")
        assert code == 1
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
        run("construct", "--family", "gq22_incidence", "--out", str(path))
        code, out, _ = run("mdim", str(path), "--budget", "1", "--json")
        assert code == 2
        assert json.loads(out)["status"] == "verified-resolving"

    def test_negative_budget_exits_1(self, petersen_file):
        code, _, err = run("mdim", petersen_file, "--budget", "-3")
        assert code == 1
        assert "error:" in err

    def test_greedy_ignores_the_budget_exit(self, tmp_path):
        path = tmp_path / "gq.graph"
        run("construct", "--family", "gq22_incidence", "--out", str(path))
        code, _, _ = run("mdim", str(path), "--budget", "1", "--greedy")
        assert code == 0


class TestLift:
    def test_halved(self, cube_file):
        code, out, _ = run("lift", "--from", "halved", cube_file,
                           "--plus-set", "0,1,2", "--minus-set", "0,1,2",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == 6
        assert payload["method"] == "lifted-halving"

    def test_folded_reports_the_case(self, cube_file):
        code, out, _ = run("lift", "--from", "folded", cube_file,
                           "--set", "0,1,2")
        assert code == 0
        assert out == "size=3 set=[5, 6, 7] case=ii\n"

    def test_push(self, cube_file):
        code, out, _ = run("lift", "--from", "push", cube_file,
                           "--set", "0,1,2", "--json")
        assert code == 0
        assert json.loads(out)["method"] == "lifted-push"

    def test_taylor_from_a_base_family(self):
        code, out, _ = run("lift", "--from", "taylor", "--base", "cycle",
                           "--param", "5", "--set", "0,1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == 3 and payload["method"] == "lifted-taylor"

    def test_double_writes_the_cover(self, tmp_path):
        out_path = tmp_path / "double.graph"
        code, out, _ = run("lift", "--from", "double", "--base", "rook",
                           "--param", "4", "--param", "4",
                           "--set", "0,2,5,9", "--out", str(out_path),
                           "--json")
        assert code == 0
        assert json.loads(out)["mu"] == 8
        assert out_path.read_text().splitlines()[0] == "32"

    def test_non_resolving_input_exits_1(self, cube_file):
        code, _, err = run("lift", "--from", "halved", cube_file,
                           "--plus-set", "0", "--minus-set", "0,1,2")
        assert code == 1
        assert "error:" in err

    def test_missing_graph_file_exits_1(self):
        code, _, err = run("lift", "--from", "halved", "--plus-set", "0,1")
        assert code == 1
        assert "graph file" in err


class TestBounds:
    def test_json_report(self, petersen_file):
        code, out, _ = run("bounds", petersen_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 10 and payload["lower_nd"] == 3
        assert payload["general"] > payload["lower_nd"]

    def test_imprimitive_graph_exits_1(self, cube_file):
        code, _, err = run("bounds", cube_file)
        assert code == 1
        assert "error:" in err

    def test_one_vertex_graph_exits_1(self, tmp_path):
        path = tmp_path / "k1.graph"
        path.write_text("1\n")
        code, _, err = run("bounds", str(path))
        assert code == 1
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
        run("construct", "--plane", "3", "--out", str(path))
        code, out, _ = run("semiresolve", "--design", str(path))
        assert code == 0
        assert out.startswith("size=6")

    @pytest.mark.parametrize("content", [b"x y z\n", b"7 3 1\n\xff\n"])
    def test_malformed_design_file_exits_1(self, tmp_path, content):
        path = tmp_path / "bad.design"
        path.write_bytes(content)
        code, _, err = run("semiresolve", "--design", str(path))
        assert code == 1
        assert "error:" in err and "Traceback" not in err

    def test_design_without_points_exits_1(self, tmp_path):
        path = tmp_path / "empty.design"
        path.write_text("0 0 0\n")
        code, _, err = run("semiresolve", "--design", str(path))
        assert code == 1
        assert "error:" in err and "unseparated" not in err

    def test_requires_a_design_source(self):
        code, _, err = run("semiresolve", "--side", "blocks")
        assert code == 1
        assert "--plane" in err


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

    def test_oracle_recomputes_small_frozen_values(self):
        code, out, _ = run("oracle", "--max-n", "10")
        assert code == 0
        assert "mu-petersen: frozen=3 oracle=3 ok" in out
        assert "skipped" in out  # larger instances stay out of reach


class TestExperiment:
    def test_descendants_report(self):
        code, out, _ = run("experiment", "descendants", "--base", "cycle",
                           "--param", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["base_mu"] == 2
        assert {d["mu"] for d in payload["descendants"]} == {2}
        assert len(payload["descendants"]) == 12

    def test_semisplit_report(self):
        code, out, _ = run("experiment", "semisplit", "--plane", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["incidence_mu"] == 5
        assert payload["semi_blocks"]["mu"] == 3
        assert payload["split"]["mu_star"] == 6


class TestTopLevel:
    def test_no_arguments_exits_1(self):
        assert run()[0] == 1

    def test_unknown_subcommand_exits_1(self):
        code, _, err = run("nope")
        assert code == 1
        assert "usage:" in err
