"""Expression AST, parser, canonical form, and text round-trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swigident import (
    DerivationStep,
    ExprError,
    ParseError,
    Lit,
    Product,
    Regime,
    Sum,
    Sym,
    Term,
    canonicalize,
    free_variables,
    parse_expr,
    regimes_used,
    struct_eq,
    to_text,
)
from swigident.expr import free_symbols, replace_at, terms

Q0 = Regime.observational()
Q1 = Regime.prefix(1)


def t(regime, deps, conds=()):
    return Term(regime, tuple(deps), tuple(conds))


def test_parse_round_trip_examples():
    cases = [
        "q0(Y1 | D1=d1, L=l)",
        "q1(Y1 | Do1=d1)",
        "sum{l} q0(Y1 | D1=d1, L=l) * q0(L=l)",
        "sum{d1', m1} q0(Y1 | D1=d1', M1=m1) * q0(D1=d1') * q0(M1=m1 | D1=d1)",
        "q0(M2 | M1, D1=d1, D2=d2) * q0(M1 | D1=d1)",
        "q0(Y1=1 | D1=0)",
        "q{2}(Y | Do2=d2)",
        "q{2}(Y | Do2=d2) * q0(M1)",
    ]
    for text in cases:
        e = parse_expr(text)
        assert to_text(e) == text
        assert parse_expr(to_text(e)) == e


def test_parse_errors_carry_position():
    for bad in ("q0(", "sum{} q0(Y)", "q0(Y | )", "qx(Y)", "q0(Y=)", ""):
        with pytest.raises(ParseError) as exc:
            parse_expr(bad)
        assert "line" in str(exc.value)


def test_parse_error_at_end_of_input_names_it():
    with pytest.raises(ParseError, match=r"expected '\)', found 'end of input' at line 1, column 6"):
        parse_expr("q1(Y1")
    with pytest.raises(ParseError, match="expected a value, found 'end of input'"):
        parse_expr("q1(Y1=")


def test_term_rejects_duplicate_variable():
    with pytest.raises(ExprError):
        t(Q0, [("Y", None)], [("Y", Lit(0))])


def test_sum_rejects_duplicate_binder():
    body = t(Q0, [("Y", None)], [("L", Sym("l"))])
    with pytest.raises(ExprError):
        Sum(("l", "l"), body)


def test_empty_product_rejected():
    with pytest.raises(ExprError):
        Product(())


def test_unused_binder_rejected_by_canonicalize():
    e = Sum(("z",), t(Q0, [("Y", None)]))
    with pytest.raises(ExprError):
        canonicalize(e)


def test_free_variables_and_symbols():
    e = parse_expr("sum{l} q1(Y1 | L=l, Do1=d1) * q0(L=l)")
    assert free_variables(e) == frozenset({"Y1", "L", "Do1"})
    assert free_symbols(e) == frozenset({"d1"})
    assert regimes_used(e) == frozenset({Q0, Q1})


def test_regimes_used_single():
    e = parse_expr("sum{l} q1(Y1 | L=l, Do1=d1) * q1(L=l)")
    assert regimes_used(e) == frozenset({Q1})


def test_struct_eq_alpha_invariance():
    a = parse_expr("sum{a} q0(Y1 | L=a) * q0(L=a)")
    b = parse_expr("sum{b} q0(Y1 | L=b) * q0(L=b)")
    assert struct_eq(a, b)
    assert canonicalize(a) == canonicalize(b)


def test_struct_eq_ignores_nesting_and_order():
    flat = parse_expr("sum{d1', m1} q0(Y1 | D1=d1', M1=m1) * q0(D1=d1') * q0(M1=m1 | D1=d1)")
    nested = parse_expr(
        "sum{m1} (sum{d1'} q0(Y1 | D1=d1', M1=m1) * q0(D1=d1')) * q0(M1=m1 | D1=d1)"
    )
    shuffled = parse_expr(
        "sum{m1, d1'} q0(M1=m1 | D1=d1) * q0(D1=d1') * q0(Y1 | M1=m1, D1=d1')"
    )
    assert struct_eq(flat, nested)
    assert struct_eq(flat, shuffled)


def test_struct_eq_distinguishes_values_and_regimes():
    a = parse_expr("q0(Y1 | D1=d1)")
    assert not struct_eq(a, parse_expr("q0(Y1 | D1=0)"))
    assert not struct_eq(a, parse_expr("q1(Y1 | D1=d1)"))
    assert not struct_eq(a, parse_expr("q0(Y1 | D1=d2)"))


def test_canonicalize_lifts_sums_capture_avoiding():
    # The inner binder collides with the outer free symbol l: lifting must
    # rename it rather than capture.
    e = parse_expr("q0(A | L=l) * (sum{l} q0(B | L=l))")
    c = canonicalize(e)
    assert isinstance(c, Sum)
    assert free_symbols(c) == frozenset({"l"})
    assert struct_eq(e, e)
    text = to_text(c)
    assert "sum{" in text and "L=l)" in text


def test_canonicalize_symmetric_chain_terminates():
    """Alternating symmetric factors used to defeat a naive sort-and-rename
    ordering; the refinement must reach a fixed point."""
    parts = []
    for i in range(6):
        parts.append(f"q1(Y1 | D1=v{i}, Do1=d1)")
        parts.append(f"q1(D1=v{i} | Y1=w{i}, Do1=d1)")
    e = parse_expr("sum{" + ", ".join(f"v{i}, w{i}" for i in range(6)) + "} " + " * ".join(parts))
    c = canonicalize(e)
    assert canonicalize(c) == c


def test_replace_at_and_terms_paths():
    e = parse_expr("sum{l} q0(Y1 | L=l) * q0(L=l)")
    found = dict(terms(e))
    assert len(found) == 2
    path = next(p for p, tm in found.items() if tm.dep_names() == ("Y1",))
    swapped = replace_at(e, path, t(Q1, [("Y1", None)], [("L", Sym("l"))]))
    assert regimes_used(swapped) == frozenset({Q0, Q1})


def test_derivation_step_must_change():
    e = parse_expr("q0(Y1)")
    with pytest.raises(ExprError):
        DerivationStep(rule="noop", input=e, output=e)


def test_json_round_trip():
    # A derivation file stores each expression as its text; a chain through
    # these cases must load back equal, inputs rebuilt from the outputs.
    from swigident import Derivation

    cases = [
        "q0(Y1=1 | D1=0)",
        "sum{d1', m1} q0(Y1 | D1=d1', M1=m1) * q0(D1=d1') * q0(M1=m1 | D1=d1)",
        "q{2}(Y | Do2=d2) * q0(M1)",
    ]
    exprs = [parse_expr(text) for text in cases]
    steps = tuple(
        DerivationStep(rule="rewrite", input=a, output=b) for a, b in zip(exprs, exprs[1:])
    )
    d = Derivation(estimand=exprs[0], steps=steps, final=exprs[-1], status="identified")
    loaded = Derivation.from_json(json.loads(json.dumps(d.to_json())))
    assert loaded == d
    assert [s.input for s in loaded.steps] == exprs[:-1]
    assert [s.output for s in loaded.steps] == exprs[1:]


NAMES = ("A", "B", "C", "D")
SYMS = ("u", "v", "w")


@st.composite
def small_exprs(draw):
    n_factors = draw(st.integers(1, 3))
    used_syms: set[str] = set()
    factors = []
    for _ in range(n_factors):
        pool = list(NAMES)
        deps = []
        for name in pool[: draw(st.integers(1, 2))]:
            ref = draw(st.sampled_from(("bare", "lit", "sym")))
            if ref == "bare":
                deps.append((name, None))
            elif ref == "lit":
                deps.append((name, Lit(draw(st.integers(0, 1)))))
            else:
                s = draw(st.sampled_from(SYMS))
                used_syms.add(s)
                deps.append((name, Sym(s)))
        conds = []
        for name in pool[2 : 2 + draw(st.integers(0, 2))]:
            s = draw(st.sampled_from(SYMS))
            used_syms.add(s)
            conds.append((name, Sym(s)))
        regime = Q1 if draw(st.booleans()) else Q0
        factors.append(Term(regime, tuple(deps), tuple(conds)))
    e = factors[0] if len(factors) == 1 else Product(tuple(factors))
    bindable = sorted(used_syms)
    if bindable and draw(st.booleans()):
        k = draw(st.integers(1, len(bindable)))
        e = Sum(tuple(bindable[:k]), e)
    return e


@given(small_exprs())
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent(e):
    c = canonicalize(e)
    assert canonicalize(c) == c


@given(small_exprs())
@settings(max_examples=200, deadline=None)
def test_canonicalize_permutation_invariant(e):
    assert struct_eq(e, e)
    if isinstance(e, Sum) and isinstance(e.body, Product):
        flipped = Sum(tuple(reversed(e.binders)), Product(tuple(reversed(e.body.factors))))
        assert struct_eq(e, flipped)
    elif isinstance(e, Product):
        assert struct_eq(e, Product(tuple(reversed(e.factors))))


@given(small_exprs())
@settings(max_examples=200, deadline=None)
def test_text_round_trip_random(e):
    assert parse_expr(to_text(e)) == e


@given(small_exprs())
@settings(max_examples=200, deadline=None)
def test_equal_expressions_built_apart_hash_alike(e):
    # Nodes keep their hash once computed; a copy parsed from the text must
    # still hash like the original, whichever is hashed first.
    copy = parse_expr(to_text(e))
    assert copy == e and copy is not e
    assert hash(copy) == hash(e)
    assert len({e, copy}) == 1


def test_derivation_expressions_hash_alike_after_a_round_trip(fig1, fig2_n2):
    from swigident import Derivation, identify, parse_estimand

    cases = [
        (fig1, "q[1](Y1 | do D1=d1)", "top_down"),
        (fig2_n2, "q[2](Y | do D1=d1, do D2=d2)", "sequential_frontdoor"),
    ]
    for swig, query, strategy in cases:
        d = identify(swig, parse_estimand(query, swig), strategy)
        assert d.identified and d.steps
        outputs = {step.output: i for i, step in enumerate(d.steps)}
        loaded = Derivation.from_json(json.loads(json.dumps(d.to_json())))
        for i, (step, copy) in enumerate(zip(d.steps, loaded.steps)):
            assert hash(copy.output) == hash(step.output)
            assert hash(copy.input) == hash(step.input)
            assert outputs[copy.output] == i
