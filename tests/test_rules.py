"""The six rewrite rules: licensed transformations and refused side
conditions, each checked against the exact oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swigident import (
    BaseDag,
    CiQuery,
    Derivation,
    ExprError,
    Lit,
    Regime,
    RuleRefusedError,
    SwigIdentError,
    Sym,
    Term,
    Variable,
    brute_force_ci,
    eval_expr,
    identify,
    parse_expr,
    random_model,
    rule_ci_modify,
    rule_consistency,
    rule_drop_later,
    rule_product,
    rule_redundancy,
    rule_total_probability,
    to_swig,
    to_text,
)
from swigident.expr import all_symbols, site, subexpr_at, terms
from swigident.oracle import model_batches

from conftest import seeded_cpts
from test_engine import small_search_cases

Q1 = Regime.prefix(1)


def _preserves(swig, step, n=5, tol=1e-12):
    for seed in range(n):
        model = random_model(swig, seed=seed)
        a = eval_expr(model, step.input)
        b = eval_expr(model, step.output)
        labels = tuple(dict.fromkeys(a.labels + b.labels))
        assert np.max(np.abs(a.aligned(labels) - b.aligned(labels))) <= tol, step.rule


def test_total_probability_introduces_sum(fig1):
    e = parse_expr("q1(Y1 | Do1=d1)")
    step = rule_total_probability(fig1, e, (), ["L"])
    assert step.rule == "total_probability"
    assert to_text(step.output) == "sum{l} q1(Y1, L=l | Do1=d1)"
    assert step.justification.introduced == (("L", "l"),)
    _preserves(fig1, step)


def test_total_probability_picks_fresh_symbol(fig1):
    e = parse_expr("q1(Y1 | Do1=l)")
    step = rule_total_probability(fig1, e, (), ["L"])
    assert "l'" in to_text(step.output)


def test_total_probability_refusals(fig1):
    e = parse_expr("q1(Y1 | L=l, Do1=d1)")
    with pytest.raises(RuleRefusedError):
        rule_total_probability(fig1, e, (), ["L"])
    with pytest.raises(RuleRefusedError):
        rule_total_probability(fig1, e, (), [])
    from swigident import SwigIdentError

    with pytest.raises(SwigIdentError):
        rule_total_probability(fig1, e, (), ["Nope"])


def test_product_factors_joint(fig1):
    e = parse_expr("sum{l} q1(Y1, L=l | Do1=d1)")
    step = rule_product(fig1, e, (0,), [["Y1"], ["L"]])
    assert step.rule == "product"
    assert to_text(step.output) == "sum{l} q1(Y1 | L=l, Do1=d1) * q1(L=l | Do1=d1)"
    _preserves(fig1, step)


def test_product_refusals(fig1):
    e = parse_expr("sum{l} q1(Y1, L=l | Do1=d1)")
    with pytest.raises(RuleRefusedError):
        rule_product(fig1, e, (0,), [["Y1", "L"]])
    with pytest.raises(RuleRefusedError):
        rule_product(fig1, e, (0,), [["Y1"], ["M1"]])
    with pytest.raises(RuleRefusedError):
        rule_product(fig1, e, (0,), [["Y1"], ["Y1", "L"]])


def test_ci_insert_backdoor(fig1):
    e = parse_expr("q1(Y1 | L=l, Do1=d1)")
    step = rule_ci_modify(fig1, e, (), "D1", "insert", Sym("d1"))
    assert step.rule == "ci_insert"
    assert to_text(step.output) == "q1(Y1 | L=l, Do1=d1, D1=d1)"
    assert step.justification.query == CiQuery(Q1, {"Y1"}, {"D1"}, {"L", "Do1"})
    _preserves(fig1, step)


def test_ci_insert_refused_without_adjustment(fig1):
    e = parse_expr("q1(Y1 | Do1=d1)")
    with pytest.raises(RuleRefusedError) as exc:
        rule_ci_modify(fig1, e, (), "D1", "insert", Sym("d1"))
    blocking = exc.value.blocking
    assert blocking == CiQuery(Q1, {"Y1"}, {"D1"}, {"Do1"})
    # The refusal is real: the claimed independence fails numerically.
    assert not brute_force_ci(random_model(fig1, seed=0), blocking)


def test_ci_change_frontdoor(fig1_hidden):
    e = parse_expr("q1(Y1 | M1=m1, D1=d1, Do1=d1')")
    step = rule_ci_modify(fig1_hidden, e, (), "Do1", "change", Sym("d1"))
    assert step.rule == "ci_change"
    assert to_text(step.output) == "q1(Y1 | M1=m1, D1=d1, Do1=d1)"
    _preserves(fig1_hidden, step)


def test_ci_delete(fig1):
    e = parse_expr("q1(Y1 | M1=m1, D1=d1, Do1=d1)")
    step = rule_ci_modify(fig1, e, (), "Do1", "delete")
    assert step.rule == "ci_delete"
    assert to_text(step.output) == "q1(Y1 | M1=m1, D1=d1)"
    _preserves(fig1, step)


def test_ci_modify_guards(fig1):
    e = parse_expr("q1(Y1 | L=l, Do1=d1)")
    with pytest.raises(RuleRefusedError):
        rule_ci_modify(fig1, e, (), "Y1", "insert", Lit(0))
    with pytest.raises(RuleRefusedError):
        rule_ci_modify(fig1, e, (), "L", "insert", Sym("l"))
    with pytest.raises(RuleRefusedError):
        rule_ci_modify(fig1, e, (), "M1", "delete")
    with pytest.raises(RuleRefusedError):
        rule_ci_modify(fig1, e, (), "L", "change", Sym("l"))
    with pytest.raises(ExprError):
        rule_ci_modify(fig1, e, (), "L", "frobnicate")


def test_consistency_deactivates(fig1):
    e = parse_expr("q1(Y1 | L=l, Do1=d1, D1=d1)")
    step = rule_consistency(fig1, e, (), 1)
    assert step.rule == "consistency"
    assert to_text(step.output) == "q0(Y1 | L=l, Do1=d1, D1=d1)"
    assert step.justification.t == 1
    assert step.justification.value == "d1"
    _preserves(fig1, step)


def test_consistency_refusals(fig1):
    with pytest.raises(RuleRefusedError):
        rule_consistency(fig1, parse_expr("q1(Y1 | Do1=d1)"), (), 1)
    with pytest.raises(RuleRefusedError):
        rule_consistency(fig1, parse_expr("q1(Y1 | Do1=d1, D1=d2)"), (), 1)
    with pytest.raises(RuleRefusedError):
        rule_consistency(fig1, parse_expr("q0(Y1 | Do1=d1, D1=d1)"), (), 1)


def test_drop_later_truncates(fig1):
    e = parse_expr("q1(L=l | Do1=d1)")
    step = rule_drop_later(fig1, e, (), 0)
    assert step.rule == "drop_later"
    assert to_text(step.output) == "q0(L=l)"
    _preserves(fig1, step)


def test_drop_later_sequential(fig2_n2):
    e = parse_expr("q2(M1 | Do1=d1, Do2=d2)")
    step = rule_drop_later(fig2_n2, e, (), 1)
    assert to_text(step.output) == "q1(M1 | Do1=d1)"
    _preserves(fig2_n2, step)


def test_drop_later_refusals(fig1, fig2_n2):
    with pytest.raises(RuleRefusedError):
        rule_drop_later(fig1, parse_expr("q1(Y1 | Do1=d1)"), (), 1)
    with pytest.raises(RuleRefusedError) as exc:
        rule_drop_later(fig2_n2, parse_expr("q2(Y | Do1=d1, Do2=d2)"), (), 1)
    assert isinstance(exc.value.blocking, CiQuery)


def test_drop_later_with_nothing_to_check_is_written_and_read_back(fig1):
    # L precedes the dose, so no intervention after 0 reaches q1(L): the
    # step stores no checks, and an empty list must read back as a tuple.
    estimand = parse_expr("q1(L)")
    step = rule_drop_later(fig1, estimand, (), 0)
    assert to_text(step.output) == "q0(L)" and step.justification.checks == ()
    assert str(step.justification) == "interventions after 0 do not reach the term"
    d = Derivation(estimand, (step,), step.output, "identified")
    stored = json.loads(json.dumps(d.to_json()))
    assert stored["steps"][0]["justification"] == {"kind": "drop_later", "t": 0, "checks": []}
    clone = Derivation.from_json(stored)
    assert clone == d and clone.steps[0].justification.checks == ()
    assert "1. drop_later: q0(L)  [interventions after 0 do not reach the term]" in clone.trace()
    _preserves(fig1, step)


def test_drop_later_refusal_is_real(fig2_n2):
    """The gated truncation would change the number: Y depends on Do2."""
    model = random_model(fig2_n2, seed=1)
    a = eval_expr(model, parse_expr("q2(Y | Do1=d1, Do2=d2)"))
    b = eval_expr(model, parse_expr("q1(Y | Do1=d1)"))
    full = a.aligned(("Y", "d1", "d2"))
    trunc = b.aligned(("Y", "d1"))
    assert np.max(np.abs(full - trunc[:, :, None])) > 1e-3


def test_redundancy_drops_pinned_copy(fig1):
    e = parse_expr("q0(Y1 | L=l, Do1=d1, D1=d1)")
    step = rule_redundancy(fig1, e, ())
    assert step.rule == "redundancy"
    assert to_text(step.output) == "q0(Y1 | L=l, D1=d1)"
    assert step.justification.pairs == (("D1", "Do1"),)
    _preserves(fig1, step)


def test_redundancy_renames_lone_copy(fig1):
    e = parse_expr("q0(M1 | Do1=d1)")
    step = rule_redundancy(fig1, e, ())
    assert to_text(step.output) == "q0(M1 | D1=d1)"
    _preserves(fig1, step)


def test_redundancy_refusals(fig1):
    with pytest.raises(RuleRefusedError):
        rule_redundancy(fig1, parse_expr("q1(Y1 | Do1=d1, D1=d1)"), ())
    with pytest.raises(RuleRefusedError):
        rule_redundancy(fig1, parse_expr("q0(Y1 | L=l)"), ())
    with pytest.raises(RuleRefusedError):
        rule_redundancy(fig1, parse_expr("q0(Y1 | Do1=d1, D1=d2)"), ())
    with pytest.raises(RuleRefusedError):
        rule_redundancy(fig1, parse_expr("q0(D1 | Do1=d1)"), ())
    # renaming a distribution-valued Do1 would rename the table's axis
    with pytest.raises(RuleRefusedError, match="axis 'Do1'"):
        rule_redundancy(fig1, parse_expr("q0(Y1 | Do1)"), ())
    # with both bare there is no value to equate the copy to
    with pytest.raises(RuleRefusedError, match="^'D1' and 'Do1' are both distribution-valued"):
        rule_redundancy(fig1, parse_expr("q0(Y1 | D1, Do1)"), ())


@pytest.mark.parametrize(
    "var, action, value, message",
    [
        ("A", "insert", Lit(5), "level 5 out of range for 'A'"),
        ("B", "insert", Lit(2), "level 2 out of range for 'B'"),
        ("B", "insert", Sym("a"), "symbol 'a' already stands for 'Ao', which has 3 levels, not 2"),
        ("B", "change", Sym("a"), "symbol 'a' already stands for 'Ao', which has 3 levels, not 2"),
    ],
)
def test_ci_modify_refuses_a_value_the_oracle_cannot_evaluate(var, action, value, message):
    # A has 3 levels and B 2; C depends on A alone, so each step below is
    # licensed by d-separation, and was once accepted.
    variables = (Variable("A", 0, cardinality=3), Variable("B", 0), Variable("C", 1))
    swig = to_swig(BaseDag(variables, frozenset({("A", "C")}), ("A",), "three_levels"))
    e = parse_expr("q1(C | Ao=a, B=0)" if action == "change" else "q1(C | Ao=a)")
    with pytest.raises(RuleRefusedError, match=message):
        rule_ci_modify(swig, e, (), var, action, value)
    # the levels and symbols that fit are accepted, and keep the value
    for ok in (Lit(2), Sym("a")) if var == "A" else (Lit(1), Sym("b")):
        _preserves(swig, rule_ci_modify(swig, e, (), var, action, ok))


def test_rule_path_must_point_at_term(fig1):
    e = parse_expr("sum{l} q1(Y1, L=l | Do1=d1)")
    with pytest.raises(ExprError):
        rule_redundancy(fig1, e, (5,))


def _rule_application(data, swig, e):
    """A rule, the path of one of e's terms, and arguments for the rule,
    drawn from the graph's variables, the term's active indices and e's
    symbols."""
    path, term = data.draw(st.sampled_from(list(terms(e))))
    rule = data.draw(st.sampled_from(RULES))
    names = st.sampled_from([v.name for v in swig.variables])
    active = sorted(term.regime.active)
    if rule is rule_total_probability:
        args = (data.draw(st.lists(names, min_size=1, max_size=2, unique=True)),)
    elif rule is rule_product:
        deps = data.draw(st.permutations(term.dep_names()))
        cuts = data.draw(st.sets(st.integers(1, max(1, len(deps) - 1)), min_size=1))
        bounds = [0, *sorted(cuts), len(deps)]
        args = ([deps[a:b] for a, b in zip(bounds, bounds[1:]) if a < b],)
    elif rule is rule_ci_modify:
        values = [None, Lit(0), Lit(1), Lit(2), *map(Sym, sorted(all_symbols(e)))]
        action = data.draw(st.sampled_from(("insert", "delete", "change")))
        args = (data.draw(names), action, data.draw(st.sampled_from(values)))
    elif rule is rule_consistency:
        args = (data.draw(st.sampled_from(active or [1])),)
    elif rule is rule_drop_later:
        args = (data.draw(st.sampled_from([0, *active])),)
    else:
        args = ()
    return rule, path, args


RULES = (
    rule_total_probability,
    rule_product,
    rule_ci_modify,
    rule_consistency,
    rule_drop_later,
    rule_redundancy,
)


@given(small_search_cases(levels=(2, 3), hidden=2), st.data())
@settings(max_examples=300, deadline=None)
def test_every_accepted_rule_application_is_sound_at_its_site(case, data):
    # From the estimand, the estimand with more conditioners, or an
    # expression a recipe's derivation of it passes through, up to six
    # rule applications drawn at random, on graphs of 2 or 3 levels per
    # variable and up to two hidden ones.  Each one rules.py accepts
    # rewrites only the subtree at its path, and that subtree keeps its
    # value on random models (the ones a term of either side skips left
    # out); the oracle refuses none of them.
    swig, estimand, _, _ = case
    starts = [estimand]
    for recipe in ("backdoor", "frontdoor", "sequential_backdoor", "sequential_frontdoor"):
        try:
            starts += [step.output for step in identify(swig, estimand, recipe).steps]
        except SwigIdentError:
            pass
    # the estimand with more conditioners, some pinned as the doses of as
    # many levels are
    named = (*estimand.dep_names(), *estimand.cond_names())
    free = [v.name for v in swig.variables if v.name not in named]
    extra = data.draw(st.lists(st.sampled_from(free), max_size=2, unique=True)) if free else []

    def values(name):
        k = swig.var(name).cardinality
        doses = (ref for m, ref in estimand.conditioners if swig.var(m).cardinality == k)
        return [None, Lit(0), *doses]

    more = tuple((n, data.draw(st.sampled_from(values(n)))) for n in extra)
    starts.append(Term(estimand.regime, estimand.dependents, estimand.conditioners + more))
    e = data.draw(st.sampled_from(starts))
    cpts = seeded_cpts(swig, 6, seed=11)
    for _ in range(6):
        rule, path, args = _rule_application(data, swig, e)
        try:
            step = rule(swig, e, path, *args)
        except SwigIdentError:
            continue
        at = site(step.input, step.output)
        assert at[: len(path)] == path, (step.rule, path, at)
        a, b = subexpr_at(step.input, at), subexpr_at(step.output, at)
        for batch in model_batches(swig, cpts):
            ta, tb = eval_expr(batch, a), eval_expr(batch, b)
            labels = tuple(dict.fromkeys(ta.labels + tb.labels))
            ok = ~(ta.skipped | tb.skipped)
            diff = np.abs(ta.aligned(labels) - tb.aligned(labels)).reshape(len(ok), -1)
            assert np.max(diff[ok], initial=0.0) <= 1e-9, (to_text(a), to_text(b))
        e = step.output
