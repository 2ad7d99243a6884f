"""The six rewrite rules: licensed transformations and refused side
conditions, each checked against the exact oracle."""

import numpy as np
import pytest

from swigident import (
    CiQuery,
    ExprError,
    Lit,
    Regime,
    RuleRefusedError,
    Sym,
    brute_force_ci,
    eval_expr,
    parse_expr,
    random_model,
    rule_ci_modify,
    rule_consistency,
    rule_drop_later,
    rule_product,
    rule_redundancy,
    rule_total_probability,
    to_text,
)

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


def test_rule_path_must_point_at_term(fig1):
    e = parse_expr("sum{l} q1(Y1, L=l | Do1=d1)")
    with pytest.raises(ExprError):
        rule_redundancy(fig1, e, (5,))
