"""The golden-value regression suite: the frozen table itself, the runner,
tamper detection, and the exhaustive re-derivation hook."""

import ast
import dataclasses
import functools
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import mdimlab.verify
from mdimlab import (
    BadParameters,
    LiftVerificationError,
    ResolvingCertificate,
    babai_bounds,
    exhaustive_mdim,
    family,
    is_primitive,
    mdim_exact,
)
from mdimlab.verify import (
    CHECKS,
    GoldenRow,
    Report,
    RowResult,
    load_golden,
    oracle_rows,
    run_suite,
)
from mdimlab.zoo import SOLVABLE, ZOO, design, graph

# where each check's row holds its graph and design specs, as (reader, spec)
# pairs; a check not listed takes one graph spec as its arguments
ROW_SPECS = {
    "mdim_list": lambda args: [(graph, spec) for spec in args["graphs"]],
    "biplane_mu": lambda args: [(graph, args["graph"]), (graph, args["base"])],
    "ah_zoo": lambda args: [(graph, {"name": name}) for name in args["names"]],
    "semi_resolving": lambda args: [(design, args["design"])],
    "blocking_triple": lambda args: [(design, args)],
    "split_value": lambda args: [(design, args)],
    "random_soundness": lambda args: [],
    "bounds_chain": lambda args: [],
    "babai_cross": lambda args: [],
}


def literal_constructor_calls(tree: ast.Module) -> list[int]:
    """Line numbers of the calls, inside a function, of a families or
    designs function with a literal argument."""
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in ("families", "designs")
        for alias in node.names
    }
    return sorted({
        call.lineno
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn) if isinstance(call, ast.Call)
        if (isinstance(call.func, ast.Name) and call.func.id in imported
            or isinstance(call.func, ast.Attribute) and isinstance(call.func.value, ast.Name)
            and call.func.value.id in ("families", "designs"))
        and any(isinstance(arg, ast.Constant)
                for arg in call.args + [kw.value for kw in call.keywords])
    })


def spy_on_solves(monkeypatch) -> list:
    """Record the (n, adj) key of every mdim_exact call the checks make."""
    keys = []
    solve = mdimlab.verify.mdim_exact

    def recording(g, *args, **kwargs):
        keys.append((g.n, g.adj))
        return solve(g, *args, **kwargs)

    monkeypatch.setattr(mdimlab.verify, "mdim_exact", recording)
    return keys


@pytest.fixture(scope="module")
def default_report():
    return run_suite()


@pytest.fixture(scope="module")
def run_solves():
    """The keys solved by two successive default runs, and by every
    runnable row's check called directly, outside a run."""
    with pytest.MonkeyPatch.context() as mp:
        keys = spy_on_solves(mp)
        runs = []
        for _ in range(2):
            run_suite()
            runs.append(list(keys))
            keys.clear()
        for row in load_golden():
            if row.check is not None:
                CHECKS[row.check](row.args)
        return runs, set(keys)


class TestGoldenTable:
    def test_loads_and_ids_are_unique(self):
        rows = load_golden()
        assert len(rows) > 50
        ids = [r.id for r in rows]
        assert len(ids) == len(set(ids))

    def test_every_row_is_fully_described(self):
        for row in load_golden():
            assert row.claim
            assert row.source in {"formula", "computed", "literature"}
            assert isinstance(row.args, dict)

    def test_every_entry_has_exactly_the_row_fields(self):
        raw = resources.files("mdimlab.data").joinpath("golden.json").read_text()
        fields = {"id", "claim", "source", "check", "args", "expected"}
        assert {f.name for f in dataclasses.fields(GoldenRow)} == fields
        for entry in json.loads(raw)["entries"]:
            assert set(entry) == fields, entry["id"]

    def test_runnable_rows_name_registered_checks(self):
        for row in load_golden():
            if row.check is not None:
                assert row.check in CHECKS, row.id

    def test_every_check_is_named_by_a_row(self):
        assert set(CHECKS) - {r.check for r in load_golden()} == set()

    def test_every_rows_specs_build(self):
        for row in load_golden():
            if row.check is not None:
                specs = ROW_SPECS.get(row.check, lambda args: [(graph, args)])
                for reader, spec in specs(row.args):
                    reader(spec)

    def test_no_check_builds_a_named_graph_or_design_inline(self):
        # every graph and design a check reads comes from its row's specs,
        # so a new family row is data, not check code
        probe = "from .designs import pg2\ndef f():\n    return pg2(2), families.rook(q, 4)"
        assert literal_constructor_calls(ast.parse(probe)) == [3]
        source = Path(mdimlab.verify.__file__).read_text()
        assert literal_constructor_calls(ast.parse(source)) == []

    def test_recorded_rows_have_no_check(self):
        # a row is recorded, shown but not run, iff it names no check
        recorded = [r for r in load_golden() if r.check is None]
        assert [r.id for r in recorded] == [
            "recorded-gq33", "recorded-taylor-72", "recorded-plane-4q-4",
        ]
        for row in recorded:
            assert row.source == "literature"


class TestRunSuite:
    def test_default_tier_passes(self, default_report):
        assert default_report.ok
        counts = default_report.counts
        assert counts["failed"] == 0
        assert counts["passed"] > 50

    def test_only_filters_rows(self):
        report = run_suite(only={"mu-petersen"})
        assert report.ok
        assert len(report.results) == 1
        assert report.results[0].row.id == "mu-petersen"

    def test_unknown_only_ids_are_rejected(self):
        with pytest.raises(BadParameters, match="unknown row ids: 'mu-petersn', 'zz-typo'$"):
            run_suite(only={"zz-typo", "mu-petersen", "mu-petersn"})

    def test_a_default_run_is_the_whole_table(self, default_report):
        assert default_report.counts == {"passed": 70, "failed": 0, "recorded": 3}
        rows = load_golden()
        assert [r.row for r in default_report.results] == rows
        assert all(r.ran == (r.row.check is not None) for r in default_report.results)

    def test_a_malformed_spec_fails_the_run_by_name(self, monkeypatch):
        rows = [
            dataclasses.replace(r, args={"name": "nope"}) if r.id == "mu-petersen" else r
            for r in load_golden()
        ]
        monkeypatch.setattr("mdimlab.verify.load_golden", lambda: rows)
        with pytest.raises(BadParameters, match="'name': 'nope'"):
            run_suite(only={"mu-petersen"})

    def test_include_slow_is_ignored(self, default_report):
        for include_slow in (True, False):
            assert run_suite(include_slow=include_slow).results == default_report.results

    def test_recorded_rows_render_without_running(self):
        report = run_suite(only={"recorded-gq33"})
        (result,) = report.results
        assert not result.ran
        assert report.counts == {"passed": 0, "failed": 0, "recorded": 1}
        assert "recorded" in report.render()

    def test_render_shows_one_line_per_row_plus_totals(self):
        report = run_suite(only={"mu-petersen", "mu-Q_3"})
        lines = report.render().splitlines()
        assert len(lines) == 3
        assert lines[-1] == "2 passed, 0 failed, 0 recorded"


class TestRunMemo:
    def test_no_graph_is_solved_twice_in_a_run(self, run_solves):
        (first, _), _ = run_solves
        assert len(first) == len(set(first))

    def test_a_run_solves_what_the_direct_checks_solve(self, run_solves):
        (first, _), direct = run_solves
        assert set(first) == direct

    def test_nothing_leaks_into_the_next_run(self, run_solves):
        (first, second), _ = run_solves
        assert len(second) == len(first)

    def test_the_memo_is_dropped_when_a_check_raises(self, monkeypatch):
        (row,) = [r for r in load_golden() if r.id == "mu-petersen"]
        check = CHECKS[row.check]

        def solve_then_fail(args):
            check(args)
            raise RuntimeError("check failed mid-run")

        monkeypatch.setitem(CHECKS, row.check, solve_then_fail)
        with pytest.raises(RuntimeError, match="mid-run"):
            run_suite(only={row.id})
        monkeypatch.setitem(CHECKS, row.check, check)
        keys = spy_on_solves(monkeypatch)
        assert CHECKS[row.check](row.args) == 3
        assert len(keys) == 1

    def test_an_only_row_solves_its_own_graph(self, monkeypatch):
        keys = spy_on_solves(monkeypatch)
        assert run_suite(only={"mu-Q_6"}).ok
        q6 = ZOO["Q_6"]()
        assert keys == [(q6.n, q6.adj)]


class TestTamperDetection:
    def test_altered_expectation_fails_the_row(self, monkeypatch):
        rows = load_golden()
        tampered = [
            dataclasses.replace(r, expected=r.expected + 1)
            if r.id == "mu-petersen"
            else r
            for r in rows
        ]
        monkeypatch.setattr("mdimlab.verify.load_golden", lambda: tampered)
        report = run_suite(only={"mu-petersen"})
        assert not report.ok
        assert report.counts["failed"] == 1
        assert "FAIL" in report.render()

    def test_check_functions_recompute_rather_than_echo(self):
        (row,) = [r for r in load_golden() if r.id == "mu-petersen"]
        assert CHECKS[row.check](row.args) == 3

    def test_oversized_taylor_lift_is_an_error(self, monkeypatch):
        def oversized(cover, r):
            return ResolvingCertificate(
                set=tuple(range(cover.n)),
                status="verified-resolving",
                method="lifted-taylor",
            )

        monkeypatch.setattr("mdimlab.verify.taylor_lift", oversized)
        (row,) = [r for r in load_golden() if r.id == "taylor-C_5"]
        with pytest.raises(LiftVerificationError):
            CHECKS[row.check](row.args)

    def test_a_solve_that_proves_no_minimum_fails_its_row(self, monkeypatch):
        monkeypatch.setattr(mdimlab.verify, "mdim_exact",
                            lambda g: mdim_exact(g, budget=0))
        report = run_suite(only={"mu-Q_6"})
        assert not report.ok
        assert report.results[0].computed == "search budget exceeded after 0 nodes"

    @pytest.mark.parametrize("solver,row_id", [
        ("min_semi_resolving", "semi-order3-blocks"), ("split_mdim", "split-order3"),
    ])
    def test_a_design_search_that_proves_no_minimum_fails_its_row(
        self, monkeypatch, solver, row_id
    ):
        spent = functools.partial(getattr(mdimlab.verify, solver), budget=0)
        monkeypatch.setattr(mdimlab.verify, solver, spent)
        report = run_suite(only={row_id})
        assert not report.ok
        assert report.results[0].computed == "search budget exceeded after 0 nodes"

    def test_json_report_carries_the_failure(self, monkeypatch):
        rows = load_golden()
        tampered = [
            dataclasses.replace(r, expected=99) if r.id == "mu-Q_3" else r
            for r in rows
        ]
        monkeypatch.setattr("mdimlab.verify.load_golden", lambda: tampered)
        payload = run_suite(only={"mu-Q_3"}).to_json()
        assert payload["ok"] is False
        assert payload["rows"][0]["pass"] is False
        assert payload["rows"][0]["computed"] == 3


class TestDescendantValues:
    # each kind of base families.taylor accepts, Paley(q) up to q = 37:
    # every local graph of the Taylor cover has the metric dimension of
    # the base
    @pytest.mark.parametrize("base", [
        ("cycle", 5), ("rook", 3, 3), ("johnson", 6, 2), ("johnson", 6, 4), ("kneser", 6, 2),
        ("paley", 13), ("paley", 17), ("paley", 29), ("paley", 37),
    ], ids=lambda base: "_".join(map(str, base)))
    def test_every_descendant_has_the_base_value(self, base):
        name, *params = base
        args = {"family": name, "params": params}
        assert CHECKS["descendant_values"](args) == [mdim_exact(family(name, *params)).mu]


class TestRandomSoundness:
    ARGS = {"count": 30, "max_n": 8, "seed": 7, "subsets": 50}

    @staticmethod
    def inflated(g):
        """The oracle's minimum set plus its least missing vertex: a
        resolving set one vertex too large, claimed as a minimum."""
        cert = exhaustive_mdim(g)
        extra = min(set(range(g.n)) - set(cert.set))
        return ResolvingCertificate(
            set=tuple(sorted(cert.set + (extra,))), status="minimum", method="inflated"
        )

    def test_an_agreed_oversized_minimum_is_caught_by_the_sampled_subsets(
        self, monkeypatch
    ):
        monkeypatch.setattr(mdimlab.verify, "_solve", self.inflated)
        monkeypatch.setattr(mdimlab.verify, "exhaustive_mdim", self.inflated)
        # on each of these graphs some of the 50 subsets of the true minimum
        # size resolves, though not all of them on every graph
        assert CHECKS["random_soundness"](self.ARGS) == {
            "mismatches": 0, "undersized_successes": self.ARGS["count"],
        }

    def test_an_oracle_that_misses_resolving_sets_is_caught(self, monkeypatch):
        # the oracle's own test ignores the first vertex of every subset, in
        # every module that holds it, so the oracle overstates the minimum;
        # the solver agrees with it, and only the sampled subsets, judged by
        # a test the oracle does not share, see it
        sort = mdimlab.mdim._resolving_rows

        def one_short(dist, subsets):
            return sort(dist, subsets[:, 1:]) if subsets.shape[1] else sort(dist, subsets)

        for name, module in list(sys.modules.items()):
            if name.startswith("mdimlab") and getattr(module, "_resolving_rows", None) is sort:
                monkeypatch.setattr(module, "_resolving_rows", one_short)
        monkeypatch.setattr(mdimlab.verify, "_solve", exhaustive_mdim)
        outcome = CHECKS["random_soundness"](self.ARGS)
        assert outcome["mismatches"] == 0
        assert outcome["undersized_successes"] > 0

    def test_an_oversized_solver_answer_is_a_mismatch(self, monkeypatch):
        monkeypatch.setattr(mdimlab.verify, "_solve", self.inflated)
        outcome = CHECKS["random_soundness"](self.ARGS)
        assert outcome == {"mismatches": self.ARGS["count"], "undersized_successes": 0}

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
    def test_the_pair_index_is_built_once_per_n_and_read_only(self, n):
        u, w = mdimlab.verify._pairs(n)
        want_u, want_w = np.triu_indices(n, 1)
        assert u.tolist() == want_u.tolist() and w.tolist() == want_w.tolist()
        again = mdimlab.verify._pairs(n)
        assert again[0] is u and again[1] is w
        for index in (u, w):
            with pytest.raises(ValueError, match="read-only"):
                index[:] = 0


class TestBoundChecks:
    """bounds_chain and babai_cross: each lists the graphs whose bounds
    contradict the solved value, and takes a one-vertex graph."""

    @pytest.mark.parametrize("check", ["bounds_chain", "babai_cross"])
    def test_a_one_vertex_graph_has_no_violation(self, monkeypatch, check):
        monkeypatch.setitem(mdimlab.verify.ZOO, "K_1", lambda: family("complete", 1))
        monkeypatch.setattr(mdimlab.verify, "SOLVABLE", mdimlab.verify.SOLVABLE | {"K_1"})
        assert CHECKS[check]({}) == {"violations": []}

    def test_a_greedy_set_below_mu_is_a_violation(self, monkeypatch):
        # every zoo graph has a positive mu, or (Q_8, not solved) a positive
        # counting bound, so the empty set undercuts each of them
        empty = ResolvingCertificate(set=(), status="verified-resolving", method="greedy")
        monkeypatch.setattr(mdimlab.verify, "mdim_greedy", lambda g: empty)
        assert CHECKS["bounds_chain"]({}) == {"violations": sorted(ZOO)}

    def test_a_babai_bound_below_mu_is_a_violation(self, monkeypatch):
        def zeroed(g):
            return dataclasses.replace(babai_bounds(g), general=0.0)

        monkeypatch.setattr(mdimlab.verify, "babai_bounds", zeroed)
        primitive = [name for name in sorted(SOLVABLE)
                     if ZOO[name]().distances.connected and is_primitive(ZOO[name]())]
        assert primitive
        assert CHECKS["babai_cross"]({}) == {
            "violations": [f"{name}:general" for name in primitive]
        }


class TestOracleRows:
    def test_small_instances_are_rederived_exhaustively(self):
        rows = oracle_rows(max_n=10)
        assert rows
        checked = {rid: agree for rid, _, value, agree in rows if value is not None}
        assert checked["mu-petersen"] is True
        assert all(checked.values())

    def test_list_rows_are_rederived(self):
        rows = {rid: (expected, value) for rid, expected, value, _ in oracle_rows(max_n=20)}
        assert rows["mu-cycles"] == ([2] * 8, [2] * 8)
        assert rows["double-petersen"] == ([3, 3], [3, 3])
        assert rows["fano-complement-pair"] == ([5, 5], [5, 5])
        assert rows["double-odd_4"] == ([5, 5], None)

    def test_large_instances_are_skipped_not_failed(self):
        rows = oracle_rows(max_n=4)
        assert all(agree for _, _, _, agree in rows)
        assert all(value is None for _, _, value, _ in rows)
