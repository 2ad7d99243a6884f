"""Recipes, search, derivation records, and numeric verification."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swigident import (
    BaseDag,
    CiQuery,
    Derivation,
    DerivationStep,
    Lit,
    Regime,
    StateSpaceLimitError,
    Strategy,
    SwigIdentError,
    Sym,
    Term,
    Variable,
    ZeroProbabilityError,
    d_separated,
    figure2,
    identify,
    parse_ci_query,
    parse_estimand,
    parse_expr,
    regimes_used,
    struct_eq,
    to_swig,
    to_text,
    validate_derivation,
    verify,
)
from swigident import engine, oracle
from swigident.cli import main
from swigident.engine import VerifyStats, _verify_models
from swigident.expr import terms

from conftest import corrupt_step, dose_estimand, model_cpts, seeded_cpts, with_row


def test_strategy_parse():
    s = Strategy.parse("backdoor:L")
    assert s.kind == "backdoor" and s.variables == ("L",)
    s = Strategy.parse("frontdoor:M1,M2")
    assert s.variables == ("M1", "M2")
    assert Strategy.parse("top_down", depth=4).depth == 4
    with pytest.raises(SwigIdentError):
        Strategy.parse("sideways")
    with pytest.raises(SwigIdentError):
        Strategy(kind="top_down", depth=0)
    # a strategy that takes no variables refuses a list instead of ignoring it
    for text in ("top_down:L", "bottom_up:Q", "sequential_backdoor:L"):
        with pytest.raises(SwigIdentError, match="takes no variables"):
            Strategy.parse(text)
    assert Strategy.parse("top_down:").variables == ()


def test_backdoor_records_full_trace(fig1, fig1_estimand):
    d = identify(fig1, fig1_estimand, "backdoor:L")
    assert d.identified
    assert [s.rule for s in d.steps] == [
        "total_probability",
        "product",
        "ci_insert",
        "consistency",
        "redundancy",
        "drop_later",
    ]
    trace = d.trace()
    assert "estimand: q1(Y1 | Do1=d1)" in trace
    assert "status: identified" in trace
    for rule in ("ci_insert", "consistency", "redundancy"):
        assert rule in trace
    validate_derivation(d)


def test_recipes_pick_variables_automatically(fig1, fig1_hidden, fig1_estimand):
    auto = identify(fig1, fig1_estimand, "backdoor")
    assert struct_eq(auto.final, parse_expr("sum{l} q0(Y1 | L=l, D1=d1) * q0(L=l)"))
    auto_fd = identify(fig1_hidden, fig1_estimand, "frontdoor")
    explicit = identify(fig1_hidden, fig1_estimand, "frontdoor:M1")
    assert struct_eq(auto_fd.final, explicit.final)


def test_pinned_dependent_estimand(fig1):
    est = Term.of(Regime.prefix(1), [("Y1", Lit(1))], [("Do1", Sym("d1"))])
    d = identify(fig1, est, "backdoor:L")
    assert d.identified
    assert struct_eq(d.final, parse_expr("sum{l} q0(Y1=1 | L=l, D1=d1) * q0(L=l)"))


def test_backdoor_blocked_without_observed_adjustment(fig1_hidden, fig1_estimand):
    d = identify(fig1_hidden, fig1_estimand, "backdoor")
    assert not d.identified
    assert d.blocking == CiQuery(Regime.prefix(1), {"Y1"}, {"D1"}, {"Do1"})
    assert d.final == d.estimand


def test_identify_rejects_bad_estimand(fig1):
    with pytest.raises(SwigIdentError):
        identify(fig1, Term.of(Regime.prefix(1), ("Nope",)), "backdoor")


def test_mediator_intervention_matches_frontdoor(fig1_hidden, fig1_estimand):
    comp = identify(fig1_hidden, fig1_estimand, "mediator_intervention")
    fd = identify(fig1_hidden, fig1_estimand, "frontdoor:M1")
    assert comp.identified
    assert struct_eq(comp.final, fd.final)
    assert comp.steps[-1].rule == "mediator_composition"
    just = comp.steps[-1].justification
    assert just.mediator_law.identified and just.outcome.identified


def _fig1_direct():
    """fig1 with L hidden and an edge D1 -> Y1 that misses the mediator."""
    from swigident import figure1

    base = figure1(l_observed=False)
    return BaseDag(base.variables, base.edges | {("D1", "Y1")}, base.targets, "fig1_direct")


@pytest.mark.parametrize("graph, strategy", [("fig1", "mediator_intervention:L"),
                                             ("fig1_direct", "mediator_intervention")])
def test_mediator_intervention_refuses_a_dose_that_bypasses_the_mediators(
    graph, strategy, fig1, fig1_estimand
):
    # Do1 reaches Y1 around every mediator target (Do1 -> M1 -> Y1 misses L;
    # Do1 -> Y1 misses M1), so the composition does not hold; both used to
    # come back identified with formulas verify rejects.
    swig = fig1 if graph == "fig1" else to_swig(_fig1_direct())
    d = identify(swig, fig1_estimand, strategy)
    assert not d.identified and d.steps == ()
    assert d.blocking == CiQuery(Regime.prefix(1), {"Y1"}, {"Do1"}, {"D1"})
    assert not d_separated(swig, d.blocking)


def test_mediator_intervention_names_the_doses_query_when_the_outcome_law_refuses(fig2_n2):
    # The outcome law is derived on the graph split at M1.  Its refusal used
    # to be reported as it stood, q1: Y _||_ M1 | D2, Mo1, a query on that
    # graph: Mo1 is not a variable of the doses' graph.
    est = Term.of(Regime({2}), ("Y",), [("Do2", Sym("d2"))])
    d = identify(fig2_n2, est, "mediator_intervention:M1")
    assert not d.identified and d.steps == ()
    assert d.blocking == CiQuery(Regime({2}), {"Y"}, {"Do2"}, {"D2"})
    assert d_separated(fig2_n2, d.blocking) is False


def test_mediator_intervention_without_mediators(fig1_ablated):
    est = dose_estimand(fig1_ablated, ("Y1",))
    d = identify(fig1_ablated, est, "mediator_intervention")
    assert not d.identified
    assert isinstance(d.blocking, CiQuery)


RECIPES = (
    "backdoor", "frontdoor", "sequential_backdoor", "sequential_frontdoor", "mediator_intervention"
)


@pytest.mark.parametrize(
    "graph, query, strategies",
    [
        (
            "fig2_n2",
            "q[2](D1 | do D1=d1, do D2=d2)",
            ("sequential_backdoor", "sequential_frontdoor", "mediator_intervention"),
        ),
        ("fig1", "q[1](D1 | do D1=d1)", RECIPES),
    ],
)
def test_mediator_recipes_with_a_dose_target_dependent(
    graph, query, strategies, fig1, fig2_n2, tmp_path, capsys
):
    # D1 is a dose's own target, so the doses do not reach it: every
    # recipe, mediator or back-door, answers q0(D1) by dropping the whole
    # regime, as the search does, instead of refusing with a blocking query
    # that holds (q1: D1 _||_ Do1) or with none.
    swig = {"fig1": fig1, "fig2_n2": fig2_n2}[graph]
    path = tmp_path / f"{graph}.swig"
    assert main(["fixture", graph, "--out", str(path)]) == 0
    est = parse_estimand(query, swig)
    for strategy in strategies:
        d = identify(swig, est, strategy)
        assert d.identified, strategy
        assert [s.rule for s in d.steps] == ["drop_later"]
        assert to_text(d.final) == "q0(D1)"
        assert verify(d, swig, n_models=5).passed
        capsys.readouterr()
        assert main(["identify", str(path), query, "--strategy", strategy]) == 0
        out = capsys.readouterr().out
        assert "  1. drop_later: q0(D1)" in out and "status: identified" in out
    # the search finds the same answer
    found = identify(swig, est, Strategy("top_down", depth=3))
    assert found.identified and to_text(found.final) == "q0(D1)"


# What identify raises for a recipe before it applies any rule: the estimand
# does not have the recipe's shape, or a named variable cannot be used.
NOT_THE_RECIPE_SHAPE = re.compile(
    "single intervention|no active interventions|exactly the active intervention nodes"
    "|must be pinned|unknown variable|cannot be adjusted for|is an intervention node"
)


def test_no_recipe_reports_a_blocking_query_that_holds(tmp_path):
    # Every estimand of the golden and benchmark identify cases, plus the
    # dose-target dependents and an unobserved dependent, under every
    # recipe.  D2 descends from Do1, so the recipes fall back to their dose
    # query; q1(L | do D1) = q0(L) with L unobserved is refused with no
    # blocking query.  A recipe that refuses an estimand with an active
    # intervention and observed dependents names a blocking query, also when
    # the refusing rule carries none (mediator_intervention on D2: its
    # total_probability step refuses to sum over a dependent).
    # On fig1 with mediator L, and on fig1_direct, a dose reaches the
    # dependent around every mediator target.
    from test_golden import IDENTIFY, _graph

    from swigident import emit_graph
    from swigident.cli import _load_swig

    (tmp_path / "fig1_direct.swig").write_text(emit_graph(_fig1_direct()), encoding="utf-8")
    cases = {(graph, query, flags) for graph, query, _, flags, _ in IDENTIFY.values()}
    cases |= {
        ("fig1", "q[1](D1 | do D1=d1)", ()),
        ("fig1", "q[1](L | do D1=d1)", ("--unobserved", "L")),
        ("fig1_direct", "q[1](Y1 | do D1=d1)", ()),
        ("fig2_n2", "q[2](D1 | do D1=d1, do D2=d2)", ()),
        ("fig2_n2", "q[2](D2 | do D1=d1, do D2=d2)", ()),
    }
    refused = 0
    for graph, query, flags in sorted(cases):
        hidden = [flags[i + 1] for i, f in enumerate(flags) if f == "--unobserved"]
        args = type("Args", (), {"graph": _graph(tmp_path, graph), "unobserved": hidden})
        swig = _load_swig(args)
        est = parse_estimand(query, swig)
        for recipe in (*RECIPES, "mediator_intervention:L"):
            try:
                d = identify(swig, est, recipe)
            except SwigIdentError as exc:
                assert NOT_THE_RECIPE_SHAPE.search(str(exc)), (graph, query, recipe, str(exc))
                continue
            if not d.identified:
                refused += 1
                assert d.blocking is None or d_separated(swig, d.blocking) is False, (
                    graph, query, recipe, str(d.blocking)
                )
                observed = all(swig.var(n).observed for n in est.dep_names())
                if est.regime.active and observed:
                    assert d.blocking is not None, (graph, query, recipe)
    assert refused >= 5


def test_search_finds_backdoor(fig1, fig1_estimand):
    for kind in ("top_down", "bottom_up"):
        d = identify(fig1, fig1_estimand, kind)
        assert d.identified, kind
        assert regimes_used(d.final) == frozenset({Regime.observational()})
        assert verify(d, fig1, n_models=10).passed


def test_search_finds_frontdoor(fig1_hidden, fig1_estimand):
    fd = identify(fig1_hidden, fig1_estimand, "frontdoor:M1")
    for kind in ("top_down", "bottom_up"):
        d = identify(fig1_hidden, fig1_estimand, kind)
        assert d.identified, kind
        assert struct_eq(d.final, fd.final)
        assert verify(d, fig1_hidden, n_models=10).passed


def test_a_search_answer_over_a_bare_intervention_node_verifies(fig1):
    # redundancy once renamed the bare Do1 to D1, whose axis has another name
    d = identify(fig1, parse_estimand("q[0](Y1 | Do1)", fig1))
    assert d.identified and verify(d, fig1, n_models=5).passed


def test_search_budget_exhaustion_reports_blocker(fig1, fig1_estimand):
    d = identify(fig1, fig1_estimand, Strategy("top_down", depth=1))
    assert not d.identified
    assert isinstance(d.blocking, CiQuery)


def test_derivation_json_round_trip(bundled_derivations):
    for name, _, d in bundled_derivations:
        blob = json.dumps(d.to_json(), sort_keys=True)
        clone = Derivation.from_json(json.loads(blob))
        assert clone == d, name
        assert json.dumps(clone.to_json(), sort_keys=True) == blob, name


def test_a_derivation_file_parses_each_distinct_term_text_once(bundled_derivations, monkeypatch):
    from swigident import dsl

    tokenized = []
    tokenize = dsl._tokenize
    monkeypatch.setattr(dsl, "_tokenize", lambda text: tokenized.append(text) or tokenize(text))
    for name, _, d in bundled_derivations:
        tokenized.clear()
        clone = Derivation.from_json(json.loads(json.dumps(d.to_json())))
        assert clone == d, name
        # the steps share one Term object per text, nested derivations too
        shared: dict = {}
        stack = [clone]
        while stack:
            x = stack.pop()
            for e in (x.estimand, *(s.output for s in x.steps), x.final):
                for _, t in terms(e):
                    assert shared.setdefault(to_text(t), t) is t, name
            for s in x.steps:
                if s.rule == "mediator_composition":
                    stack += [s.justification.mediator_law, s.justification.outcome]
        assert sorted(tokenized) == sorted(shared), name


def test_every_golden_and_bench_derivation_round_trips_through_its_text(tmp_path):
    # The identify goldens (the benchmark's identify queries among them) and
    # the benchmark's verify derivations: sequential front-door on fig2
    # n=1, 2, 3 and 5, and the composition on n=2.
    from test_golden import IDENTIFY, _graph, fig2_query

    from swigident.cli import _load_swig

    cases = [
        (graph, query, strategy, flags) for graph, query, strategy, flags, _ in IDENTIFY.values()
    ]
    cases += [(f"fig2_n{n}", fig2_query(n), "sequential_frontdoor", ()) for n in (1, 2, 3, 5)]
    cases += [("fig2_n2", fig2_query(2), "mediator_intervention", ())]
    compositions = 0
    for graph, query, strategy, flags in cases:
        hidden = [flags[i + 1] for i, f in enumerate(flags) if f == "--unobserved"]
        depth = int(flags[flags.index("--depth") + 1]) if "--depth" in flags else 16
        args = type("Args", (), {"graph": _graph(tmp_path, graph), "unobserved": hidden})
        swig = _load_swig(args)
        d = identify(swig, parse_estimand(query, swig), Strategy.parse(strategy, depth=depth))
        clone = Derivation.from_json(json.loads(json.dumps(d.to_json())))
        assert clone == d and clone.trace() == d.trace(), (graph, query, strategy)
        validate_derivation(clone)
        compositions += any(s.rule == "mediator_composition" for s in d.steps)
    assert compositions == 2


def test_a_justification_of_an_unknown_type_is_not_written(fig1, fig1_estimand):
    @dataclasses.dataclass(frozen=True)
    class Hunch:
        note: str

    d = identify(fig1, fig1_estimand, "backdoor:L")
    step = dataclasses.replace(d.steps[0], justification=Hunch("looks right"))
    forged = dataclasses.replace(d, steps=(step, *d.steps[1:]))
    with pytest.raises(TypeError, match="derivation files have no kind for Hunch"):
        forged.to_json()


def test_a_malformed_nested_derivation_is_located(bundled_derivations):
    (d,) = [d for name, _, d in bundled_derivations if name == "compose_fig2_n2"]
    obj = d.to_json()
    obj["steps"][0]["justification"]["outcome"]["steps"][2]["output"] = "q0(Y"
    with pytest.raises(SwigIdentError) as exc:
        Derivation.from_json(obj)
    assert str(exc.value) == (
        "malformed derivation: step 1 outcome: step 3 output: "
        "expected ')', found 'end of input' at line 1, column 5"
    )


def test_validate_derivation_rejects_broken_chain(fig1, fig1_estimand):
    d = identify(fig1, fig1_estimand, "backdoor:L")
    broken = Derivation(
        estimand=d.estimand,
        steps=d.steps[:1] + d.steps[2:],
        final=d.final,
        status=d.status,
    )
    with pytest.raises(SwigIdentError):
        validate_derivation(broken)

    wrong_final = Derivation(
        estimand=d.estimand,
        steps=d.steps,
        final=parse_expr("q0(Y1)"),
        status=d.status,
    )
    with pytest.raises(SwigIdentError):
        validate_derivation(wrong_final)


def test_validate_derivation_rejects_false_identified(fig1, fig1_estimand):
    claim = Derivation(
        estimand=fig1_estimand,
        steps=(),
        final=parse_expr("q1(Y1 | Do1=d1)"),
        status="identified",
    )
    with pytest.raises(SwigIdentError):
        validate_derivation(claim)


def test_verify_reports_per_step(fig1, fig1_estimand):
    d = identify(fig1, fig1_estimand, "backdoor:L")
    report = verify(d, fig1, n_models=10)
    assert report.passed
    assert len(report.steps) == len(d.steps)
    assert all(s.models_used == 10 for s in report.steps)
    assert report.final_deviation is not None and report.final_deviation <= 1e-9
    text = report.summary()
    assert "verdict: pass" in text
    assert "backdoor" not in text  # summary talks about rules, not recipes
    blob = report.to_json()
    assert blob["passed"] is True and len(blob["steps"]) == len(d.steps)


def test_verify_needs_a_model(fig1, fig1_estimand):
    d = identify(fig1, fig1_estimand, "backdoor:L")
    for n in (0, -3):
        with pytest.raises(SwigIdentError, match="at least one model"):
            verify(d, fig1, n_models=n)


def test_verify_stats_stay_out_of_the_report(fig2_n2):
    d = identify(fig2_n2, dose_estimand(fig2_n2, ("Y",)), "mediator_intervention")
    report = verify(d, fig2_n2, n_models=5)
    stats = report.stats_json()
    assert stats["conditionals"] > 0 and stats["largest_table"] > 0
    assert 0 < stats["estimand_seconds"] + sum(s.seconds for s in report.steps) <= stats["seconds"]
    (comp,) = stats["steps"]
    assert comp["rule"] == "mediator_composition" and len(comp["nested"]) == 2
    assert all(len(r["steps"]) > 0 for r in comp["nested"])
    bare = dataclasses.replace(
        report,
        steps=tuple(dataclasses.replace(s, seconds=0.0) for s in report.steps),
        stats=VerifyStats(),
    )
    assert bare == report and bare.to_json() == report.to_json()
    assert "seconds" not in json.dumps(report.to_json())


def test_verify_counts_merges_and_path_searches(fig2_n2):
    # A first run searches a path for each contraction shape it meets, once;
    # a repeat in the same process finds every path memoised.
    d = identify(fig2_n2, dose_estimand(fig2_n2, ("Y",)), "sequential_frontdoor")
    oracle._plan.cache_clear()
    first = verify(d, fig2_n2, n_models=5, seed=4).stats
    info = oracle._plan.cache_info()
    assert first.path_searches == info.misses == info.currsize > 0
    again = verify(d, fig2_n2, n_models=5, seed=4).stats
    assert again.path_searches == 0
    assert again.merges_computed == first.merges_computed > 0
    assert again.peak_live_bytes == first.peak_live_bytes > 0
    # a composition's counts include those of its nested derivations, and
    # its peak is at least theirs
    comp = identify(fig2_n2, dose_estimand(fig2_n2, ("Y",)), "mediator_intervention")
    oracle._plan.cache_clear()
    report = verify(comp, fig2_n2, n_models=5, seed=4)
    assert report.stats.path_searches == oracle._plan.cache_info().misses
    (step,) = report.steps
    for count in ("merges_computed", "path_searches", "conditionals"):
        parts = [getattr(r.stats, count) for r in step.nested]
        assert getattr(report.stats, count) >= sum(parts) and min(parts) > 0
    assert report.stats.largest_table >= max(r.stats.largest_table for r in step.nested)
    assert report.stats.peak_live_bytes >= max(r.stats.peak_live_bytes for r in step.nested)


def test_verify_folds_every_count_over_nested_reports(fig2_n2, monkeypatch):
    # Each count of a composition's stats is its own compare's count plus
    # its nested reports', or their max for the two peaks.  Counts.add folds
    # every field of the record, so a new counter cannot be left out, as
    # conditionals and largest_table once were.
    comp = identify(fig2_n2, dose_estimand(fig2_n2, ("Y",)), "mediator_intervention")
    found = []

    def recorded(*args):
        found.append(oracle.compare(*args))
        return found[-1]

    monkeypatch.setattr(engine, "compare", recorded)
    oracle._plan.cache_clear()
    report = verify(comp, fig2_n2, n_models=5, seed=4)
    (step,) = report.steps
    # the nested derivations are compared first, the composition last
    assert len(found) == 3 and len(step.nested) == 2
    for f in dataclasses.fields(oracle.Counts):
        for nested, comparison in zip(step.nested, found):
            assert getattr(nested.stats, f.name) == getattr(comparison.counts, f.name)
        own = getattr(found[-1].counts, f.name)
        parts = [own, *(getattr(r.stats, f.name) for r in step.nested)]
        peak = f.name in ("largest_table", "peak_live_bytes")
        assert getattr(report.stats, f.name) == (max(parts) if peak else sum(parts)), f.name
    timings = {f.name for f in dataclasses.fields(VerifyStats)}
    timings -= {f.name for f in dataclasses.fields(oracle.Counts)}
    assert timings == {"estimand_seconds", "seconds", "draw_seconds"}


def test_verify_frees_each_table_after_its_last_use():
    # Every conditional that evaluating each whole expression builds, held
    # at once, takes more bytes than verify ever holds: it releases a
    # conditional and a site's tables after the last check that uses them.
    swig = to_swig(figure2(4))
    d = identify(swig, dose_estimand(swig, ("Y",)), "sequential_frontdoor")
    cpts = seeded_cpts(swig, 5)
    report = _verify_models(d, swig, cpts, 0)
    assert report.passed
    [batch] = oracle.model_batches(swig, cpts)
    for e in [d.estimand, *(s.output for s in d.steps)]:
        oracle.eval_expr(batch, e)
    built = sum(table.nbytes for table in batch._conditionals.values())
    assert len(batch._conditionals) == report.stats.conditionals
    assert 0 < report.stats.peak_live_bytes < built


def test_verify_derives_the_tied_conditionals_a_live_table_holds(monkeypatch):
    # On seqfd fig2 n=5, 30 of the 92 conditionals verify builds are the
    # diagonal of a live one under a finer tie pattern.  The report is the
    # one of a verify that contracts all 92, deviations apart, which agree
    # to 1e-15.
    swig = to_swig(figure2(5))
    d = identify(swig, dose_estimand(swig, ("Y",)), "sequential_frontdoor")
    derived = verify(d, swig, n_models=5, seed=0)
    assert derived.passed
    assert (derived.stats.conditionals, derived.stats.conditionals_derived) == (92, 30)
    monkeypatch.setattr(oracle, "_derived", lambda *args: None)
    contracted = verify(d, swig, n_models=5, seed=0)
    assert (contracted.stats.conditionals, contracted.stats.conditionals_derived) == (92, 0)
    devs: list = []
    want: list = []
    assert _split_deviations(derived.to_json(), devs) == _split_deviations(
        contracted.to_json(), want
    )
    assert np.allclose(devs, want, rtol=0, atol=1e-15)


def test_verify_at_seqfd_n8_still_refuses_at_the_state_limit():
    # The widest conditional needs 2^25 states for one model.
    swig = to_swig(figure2(8))
    d = identify(swig, dose_estimand(swig, ("Y",)), "sequential_frontdoor")
    with pytest.raises(StateSpaceLimitError) as refused:
        verify(d, swig, n_models=5, seed=0)
    assert str(refused.value) == (
        "a conditional over 25 variables needs a table over 25 variables (33554432 states); "
        "the limits are 51 einsum subscripts and 4194304 states"
    )


def test_verify_flags_corruption(fig1, fig1_estimand):
    d = identify(fig1, fig1_estimand, "backdoor:L")
    bad = corrupt_step(d, fig1, 2)
    validate_derivation(bad)
    report = verify(bad, fig1, n_models=10)
    assert not report.passed
    assert "FAIL" in report.summary()


def test_verify_composition_checks_nested(fig2_n2):
    est = dose_estimand(fig2_n2, ("Y",))
    d = identify(fig2_n2, est, "mediator_intervention")
    report = verify(d, fig2_n2, n_models=10)
    assert report.passed
    comp = next(s for s in report.steps if s.rule == "mediator_composition")
    assert len(comp.nested) == 2
    assert all(r.passed for r in comp.nested)


def _split_deviations(blob, out):
    """Move every deviation value of a verify report's JSON into out."""
    if isinstance(blob, dict):
        for key, value in blob.items():
            if key in ("max_deviation", "final_deviation") and value is not None:
                out.append(value)
                blob[key] = "dev"
            else:
                _split_deviations(value, out)
    elif isinstance(blob, list):
        for value in blob:
            _split_deviations(value, out)
    return blob


def _cpts_with_a_deterministic_row(swig):
    """Base CPTs of 20 models, stacked; model 3 never has M1=1 when D1=0, so
    steps that condition on that event skip it."""
    return with_row(seeded_cpts(swig, 20, seed=3), 3, "M1", (0,), [1.0, 0.0])


def _verify_with_a_skipped_model(d, swig):
    return _verify_models(d, swig, _cpts_with_a_deterministic_row(swig), 3)


@pytest.mark.parametrize("strategy", ["sequential_frontdoor", "mediator_intervention"])
def test_verify_skips_the_models_that_fail_alone(strategy, fig2_n2):
    d = identify(fig2_n2, dose_estimand(fig2_n2, ("Y",)), strategy)
    cpts = _cpts_with_a_deterministic_row(fig2_n2)
    models = [oracle.model_from_base_cpts(fig2_n2, model_cpts(cpts, m)) for m in range(20)]

    def fails_alone(model, e):
        try:
            oracle.eval_expr(model, e)
        except ZeroProbabilityError:
            return True
        return False

    report = _verify_with_a_skipped_model(d, fig2_n2)
    pairs = [(s.input, s.output) for s in d.steps] + [(d.final, d.estimand)]
    want = [sum(fails_alone(m, a) or fails_alone(m, b) for m in models) for a, b in pairs]
    got = [s.models_skipped for s in report.steps] + [20 - report.final_models]
    assert got == want and 0 < max(want) < 20


@pytest.mark.parametrize("strategy", ["sequential_frontdoor", "mediator_intervention"])
@pytest.mark.parametrize("per_batch", [1, 6])
@pytest.mark.parametrize("run", ["verify", "skipping"])
def test_verify_in_chunks_matches_one_batch(strategy, per_batch, run, fig2_n2, monkeypatch):
    d = identify(fig2_n2, dose_estimand(fig2_n2, ("Y",)), strategy)

    def report():
        if run == "verify":
            return verify(d, fig2_n2, n_models=20, seed=3)
        return _verify_with_a_skipped_model(d, fig2_n2)

    whole_devs: list = []
    whole = _split_deviations(report().to_json(), whole_devs)
    monkeypatch.setattr(oracle, "STATE_LIMIT", per_batch * oracle.joint_states(fig2_n2))
    cpts = seeded_cpts(fig2_n2, 20)
    assert len(list(oracle.model_batches(fig2_n2, cpts))) == -(-20 // per_batch)
    chunked_devs: list = []
    chunked = _split_deviations(report().to_json(), chunked_devs)
    assert chunked == whole
    assert np.allclose(chunked_devs, whole_devs, rtol=0, atol=1e-12)
    skips = [step["models_skipped"] for step in whole["steps"]]
    assert whole["passed"] and (max(skips) == 1 if run == "skipping" else max(skips) == 0)


@pytest.mark.parametrize("strategy", ["sequential_frontdoor", "mediator_intervention"])
def test_verify_in_batches_of_one_searches_no_more_paths(strategy, fig2_n2, monkeypatch):
    # _plan memoises a path by contraction shape, which leaves the batch
    # axis out, so a path is searched once per shape however the models are
    # split.
    d = identify(fig2_n2, dose_estimand(fig2_n2, ("Y",)), strategy)

    def searches(n_models):
        oracle._plan.cache_clear()
        report = verify(d, fig2_n2, n_models=n_models, seed=3)
        assert report.passed
        return report.stats.path_searches

    whole = {n_models: searches(n_models) for n_models in (20, 5)}
    # 20 batches of one model; batches of 4 and 1, whose operand shapes
    # differ in the batch axis only
    for n_models, per_batch in ((20, 1), (5, 4)):
        monkeypatch.setattr(oracle, "STATE_LIMIT", per_batch * oracle.joint_states(fig2_n2))
        assert 0 < searches(n_models) <= whole[n_models]


def test_search_outperforms_rigid_recipe_on_nonprefix_regime(fig2_n2):
    # The recipe conditions only on intervention targets, so it refuses here;
    # search finds the M1 adjustment.
    est = Term.of(Regime(frozenset({2})), ("M2",), [("Do2", Sym("d2"))])
    recipe = identify(fig2_n2, est, "sequential_backdoor")
    assert not recipe.identified
    assert str(recipe.blocking) == "q{2}: M2 _||_ D2 | Do2"
    searched = identify(fig2_n2, est, Strategy("top_down", depth=8))
    assert searched.identified
    assert struct_eq(
        searched.final, parse_expr("sum{m1} q0(M2 | M1=m1, D2=d2) * q0(M1=m1)")
    )
    assert verify(searched, fig2_n2, n_models=10).passed


STATS_KEYS = {
    "expanded", "duplicates", "dsep_hits", "dsep_misses",
    "refusals", "depth", "keys", "key_seconds", "seconds",
}


def test_search_stats_stay_out_of_the_derivation(fig1_estimand):
    from swigident import figure1, to_swig

    swig = to_swig(figure1(l_observed=False))  # a fresh, empty cache
    d = identify(swig, fig1_estimand, "bottom_up")
    s = d.stats
    assert d.identified and set(s.to_json()) == STATS_KEYS
    assert s.expanded > 0 and s.duplicates > 0 and s.seconds > 0
    moves = [st.rule for st in d.steps if st.rule not in ("product", "consistency", "redundancy")]
    assert s.depth >= len(moves)
    assert s.dsep_misses == len(swig.cache.d_separated) and s.dsep_hits > 0
    assert set(s.refusals) <= {"drop_later", "ci_modify", "total_probability"}
    assert sum(s.refusals.values()) > 0
    bare = Derivation(d.estimand, d.steps, d.final, d.status, d.blocking)
    assert bare == d and bare.to_json() == d.to_json() and bare.trace() == d.trace()
    # the same search again answers every d-separation from the cache
    again = identify(swig, fig1_estimand, "bottom_up")
    assert again == d and again.stats.dsep_misses == 0 and again.stats.dsep_hits > 0
    assert identify(swig, fig1_estimand, "frontdoor").stats is None


def test_search_counts_and_times_its_canonical_keys(fig1_estimand):
    from swigident import figure1

    for mode in ("top_down", "bottom_up"):
        first, again = (identify(to_swig(figure1()), fig1_estimand, mode).stats for _ in range(2))
        assert first.keys == again.keys > 0
        assert 0 < first.key_seconds < first.seconds and 0 < again.key_seconds < again.seconds


def test_search_reexpands_a_state_seen_with_a_smaller_budget(fig2_n2):
    # Pruning every state seen earlier in the pass, whatever budget it had,
    # answered not_identified (blocking q2: M2 _||_ Do1 | D1, Do2) here.
    est = parse_estimand("q[2](M2 | do D1=d1, do D2=d2)", fig2_n2)
    d = identify(fig2_n2, est, Strategy("bottom_up", depth=4))
    assert d.identified and len(d.steps) == 9
    assert to_text(d.final) == "sum{m1} q0(M2 | M1=m1, D1=d1, D2=d2) * q0(M1=m1 | D1=d1)"
    assert verify(d, fig2_n2, n_models=10).passed


# (mode, graph, depth) -> (expanded, duplicates, keys, refusals, depth) of
# the golden search cases; the traversal's counts, pinned.
SEARCH_COUNTS = {
    ("top_down", "fig1", 16): (7, 0, 5, {"drop_later": 8, "ci_modify": 8}, 3),
    ("top_down", "fig1_hidden", 16): (47, 7, 43, {"drop_later": 116, "ci_modify": 148}, 6),
    ("top_down", "fig2_n1", 16): (47, 7, 43, {"drop_later": 116, "ci_modify": 148}, 6),
    ("top_down", "fig1_ablated", 16): (100, 0, 23, {"drop_later": 548, "ci_modify": 836}, 16),
    ("bottom_up", "fig1", 16): (53, 10, 53, {"ci_modify": 173, "drop_later": 116}, 4),
    ("bottom_up", "fig1_hidden", 16): (140, 57, 143, {"ci_modify": 678, "drop_later": 507}, 6),
    ("bottom_up", "fig2_n1", 16): (140, 57, 143, {"ci_modify": 678, "drop_later": 507}, 6),
    ("bottom_up", "fig1_ablated", 16): (100, 0, 23, {"ci_modify": 836, "drop_later": 548}, 16),
    ("top_down", "fig2_n2", 4): (351, 71, 360, {"drop_later": 1962, "ci_modify": 2711}, 4),
}


@pytest.mark.parametrize("mode, graph, depth", SEARCH_COUNTS)
def test_search_counts_of_the_golden_cases(mode, graph, depth):
    from swigident import ablated_figure1, figure1, figure2

    base = {
        "fig1": figure1(), "fig1_hidden": figure1(l_observed=False),
        "fig1_ablated": ablated_figure1(), "fig2_n1": figure2(1), "fig2_n2": figure2(2),
    }[graph]
    swig = to_swig(base)
    dependent = "Y" if graph.startswith("fig2") else "Y1"
    s = identify(swig, dose_estimand(swig, (dependent,)), Strategy(mode, depth=depth)).stats
    assert (s.expanded, s.duplicates, s.keys, s.refusals, s.depth) == SEARCH_COUNTS[mode, graph, depth]


@st.composite
def small_search_cases(draw, levels=(2, 2), hidden=1):
    """A random split graph of 2-5 variables of levels[0] to levels[1]
    levels each, up to `hidden` of them hidden (never a target or the last
    variable), with one or two targets; the estimand q_s(V | Do_j=dj, ...)
    under a prefix regime s of 0 to n active interventions, for any
    variable V (intervention nodes and hidden ones included), pinning each
    active intervention node other than V; a mode and a depth."""
    n = draw(st.integers(2, 5))
    names = [f"V{i}" for i in range(n)]
    edges = frozenset(
        (names[i], names[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    )
    targets = tuple(v for v in names[:-1] if draw(st.booleans()))[:2] or (names[0],)
    others = [v for v in names if v not in targets]
    unseen = draw(st.sets(st.sampled_from(others[:-1]), max_size=hidden)) if others[:-1] else ()
    variables = tuple(
        Variable(v, i, observed=v not in unseen, cardinality=draw(st.integers(*levels)))
        for i, v in enumerate(names)
    )
    swig = to_swig(BaseDag(variables, edges, targets, "random"))
    regime = Regime.prefix(draw(st.integers(0, len(targets))))
    y = draw(st.sampled_from([v.name for v in swig.variables]))
    doses = [
        (swig.intervention(j), Sym(f"d{j}"))
        for j in sorted(regime.active)
        if swig.intervention(j) != y
    ]
    estimand = Term.of(regime, (y,), doses)
    return swig, estimand, draw(st.sampled_from(("top_down", "bottom_up"))), draw(st.integers(1, 4))


@given(small_search_cases())
@settings(max_examples=40, deadline=None)
def test_an_estimand_identified_at_a_depth_is_identified_one_deeper(case):
    swig, estimand, mode, depth = case
    if identify(swig, estimand, Strategy(mode, depth=depth)).identified:
        assert identify(swig, estimand, Strategy(mode, depth=depth + 1)).identified


@given(small_search_cases())
@settings(max_examples=60, deadline=None)
def test_every_search_refusal_names_a_query_that_reads_back_and_fails(case):
    # The query must be one a blocking: line can hand to dsep, and must fail.
    swig, estimand, mode, depth = case
    d = identify(swig, estimand, Strategy(mode, depth=depth))
    if not d.identified and d.blocking is not None:
        query = parse_ci_query(str(d.blocking), swig)
        assert d_separated(swig, query) is False, (d.trace(), mode, depth)


@given(small_search_cases())
@settings(max_examples=60, deadline=None)
def test_every_recipe_identified_answer_verifies(case):
    swig, estimand, _, _ = case
    for recipe in RECIPES:
        try:
            d = identify(swig, estimand, recipe)
        except SwigIdentError as exc:
            assert NOT_THE_RECIPE_SHAPE.search(str(exc)), (recipe, str(exc))
            continue
        if d.identified:
            assert verify(d, swig, n_models=5).passed, (recipe, d.trace())
        elif d.blocking is not None:
            assert d_separated(swig, d.blocking) is False, (recipe, str(d.blocking))
