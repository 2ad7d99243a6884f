"""Expression AST, parser, canonical form, and text round-trips."""

import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
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
    SwigIdentError,
    Term,
    canonicalize,
    free_variables,
    parse_expr,
    regimes_used,
    struct_eq,
    to_text,
)
from swigident import dsl
from swigident.expr import (
    all_symbols,
    children,
    free_symbols,
    fresh_symbol,
    rename_symbols,
    replace_at,
    site,
    subexpr_at,
    terms,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
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
SYMS = ("u", "v", "_1")  # _1 is also a name the renaming hands out


@st.composite
def small_terms(draw):
    deps = []
    for name in NAMES[: draw(st.integers(1, 2))]:
        ref = draw(st.sampled_from(("bare", "lit", "sym")))
        if ref == "bare":
            deps.append((name, None))
        elif ref == "lit":
            deps.append((name, Lit(draw(st.integers(0, 1)))))
        else:
            deps.append((name, Sym(draw(st.sampled_from(SYMS)))))
    n_conds = draw(st.integers(0, 2))
    conds = [(name, Sym(draw(st.sampled_from(SYMS)))) for name in NAMES[2 : 2 + n_conds]]
    regime = Q1 if draw(st.booleans()) else Q0
    return Term(regime, tuple(draw(st.permutations(deps))), tuple(draw(st.permutations(conds))))


def _bind_some(draw, e):
    """e under a sum over some of its free symbols, or e itself."""
    bindable = sorted(free_symbols(e))
    if bindable and draw(st.booleans()):
        return Sum(tuple(draw(st.permutations(bindable))[: draw(st.integers(1, len(bindable)))]), e)
    return e


@st.composite
def small_factors(draw):
    """A term, a product of two terms, or either under a sum of its own."""
    inner = [draw(small_terms()) for _ in range(draw(st.integers(1, 2)))]
    return _bind_some(draw, inner[0] if len(inner) == 1 else Product(tuple(inner)))


@st.composite
def small_exprs(draw):
    """Products of up to four factors under an optional sum.  A factor may
    be a sum nested inside the product, binders share one small pool of
    names (so factors reuse them, bound in one and free in another), and a
    factor may repeat an earlier one."""
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        if factors and draw(st.integers(0, 3)) == 0:
            factors.append(draw(st.sampled_from(factors)))
        else:
            factors.append(draw(small_factors()))
    e = factors[0] if len(factors) == 1 else Product(tuple(factors))
    return _bind_some(draw, e)


def test_small_exprs_nest_sums_reuse_binders_and_repeat_factors():
    seen = set()

    @given(small_exprs())
    @settings(max_examples=100, deadline=None)
    def record(e):
        factors = e.body.factors if isinstance(e, Sum) and isinstance(e.body, Product) else (
            e.factors if isinstance(e, Product) else ()
        )
        nested = [f for f in factors if isinstance(f, Sum)]
        if nested:
            seen.add("nested sum")
        binders = [b for f in nested for b in f.binders]
        if len(set(binders)) < len(binders) or any(
            b in free_symbols(g) for f in nested for g in factors if g is not f for b in f.binders
        ):
            seen.add("reused binder")
        if len(set(factors)) < len(factors):
            seen.add("repeated factor")

    record()
    assert seen == {"nested sum", "reused binder", "repeated factor"}


# The two-round canonical form that canonicalize replaced, kept as the
# reference it must agree with: the same _normalize and _order as before,
# each factor's text rebuilt on every refinement pass, and a second round
# to confirm the fixpoint.

def _reference_sorted_term(t: Term) -> Term:
    return Term(
        t.regime,
        tuple(sorted(t.dependents, key=lambda d: d[0])),
        tuple(sorted(t.conditioners, key=lambda c: c[0])),
    )


def _reference_normalize(e):
    if isinstance(e, Term):
        return _reference_sorted_term(e)
    if isinstance(e, Sum):
        body = _reference_normalize(e.body)
        binders = list(e.binders)
        if isinstance(body, Sum):
            inner = list(body.binders)
            clash = [b for b in inner if b in binders]
            if clash:
                taken = set(binders) | set(inner) | set(all_symbols(body.body))
                ren = {}
                for b in clash:
                    nb = fresh_symbol(b, taken)
                    taken.add(nb)
                    ren[b] = nb
                inner = [ren.get(b, b) for b in inner]
                body = Sum(tuple(inner), rename_symbols(body.body, ren))
            binders += list(body.binders)
            body = body.body
        used = free_symbols(body)
        missing = [b for b in binders if b not in used]
        if missing:
            raise ExprError(f"binder(s) never used: {missing}")
        if not binders:
            return body
        return Sum(tuple(binders), body)
    factors = []
    for f in e.factors:
        nf = _reference_normalize(f)
        if isinstance(nf, Product):
            factors.extend(nf.factors)
        else:
            factors.append(nf)
    if len(factors) == 1:
        return factors[0]
    syms_per_factor = [set(all_symbols(f)) for f in factors]
    lifted = []
    stripped = []
    for idx, f in enumerate(factors):
        if isinstance(f, Sum):
            forbidden = set(lifted)
            for j, syms in enumerate(syms_per_factor):
                if j != idx:
                    forbidden |= syms
            ren = {}
            for b in f.binders:
                if b in forbidden:
                    nb = fresh_symbol(b, forbidden | syms_per_factor[idx])
                    ren[b] = nb
                    b = nb
                forbidden.add(b)
                lifted.append(b)
            body = rename_symbols(f.body, ren) if ren else f.body
            if isinstance(body, Product):
                stripped.extend(body.factors)
            else:
                stripped.append(body)
        else:
            stripped.append(f)
    flat = Product(tuple(stripped))
    if lifted:
        return _reference_normalize(Sum(tuple(lifted), flat))
    return flat


def _reference_term_syms(t: Term) -> list:
    return [ref.name for _, ref in (*t.dependents, *t.conditioners) if isinstance(ref, Sym)]


def _reference_term_text(t: Term, color: dict) -> str:
    def entry(name, ref):
        if ref is None:
            return name
        if isinstance(ref, Sym) and ref.name in color:
            return f"{name}=?{color[ref.name]}"
        return f"{name}={ref}"

    deps = ", ".join([entry(n, r) for n, r in t.dependents])
    conds = ", ".join([entry(n, r) for n, r in t.conditioners])
    inner = f"{deps} | {conds}" if conds else deps
    return f"{t.regime}({inner})"


def _reference_order(e):
    if isinstance(e, Term):
        return e
    binders = ()
    body = e
    if isinstance(e, Sum):
        binders, body = e.binders, e.body
    factors = list(body.factors) if isinstance(body, Product) else [body]
    bound = frozenset(binders)
    free = frozenset().union(*(frozenset(_reference_term_syms(f)) for f in factors)) - bound
    color = {b: "" for b in binders}
    keys = [_reference_term_text(f, color) for f in factors]
    for _ in range(len(binders) + len(factors) + 2):
        occurrences = {b: [] for b in binders}
        for key, f in zip(keys, factors):
            for side, entries in (("d", f.dependents), ("c", f.conditioners)):
                for name, ref in entries:
                    if isinstance(ref, Sym) and ref.name in bound:
                        occurrences[ref.name].append(f"{key}#{side}#{name}")
        raw = {b: "|".join(sorted(occurrences[b])) for b in binders}
        ranks = {c: str(i) for i, c in enumerate(sorted(set(raw.values())))}
        new_color = {b: ranks[raw[b]] for b in binders}
        new_keys = [_reference_term_text(f, new_color) for f in factors]
        if new_keys == keys and new_color == color:
            break
        color, keys = new_color, new_keys
    order_idx = sorted(range(len(factors)), key=lambda i: (keys[i], i))
    factors = [factors[i] for i in order_idx]
    ren = {}
    counter = 1
    for f in factors:
        for s in _reference_term_syms(f):
            if s in bound and s not in ren:
                candidate = f"_{counter}"
                while candidate in free:
                    counter += 1
                    candidate = f"_{counter}"
                ren[s] = candidate
                counter += 1
    factors = [rename_symbols(f, ren) for f in factors]
    new_body = factors[0] if len(factors) == 1 else Product(tuple(factors))
    if binders:
        renamed_bound = set(ren.values())
        order = []
        for f in factors:
            for s in _reference_term_syms(f):
                if s in renamed_bound and s not in order:
                    order.append(s)
        return Sum(tuple(order), new_body)
    return new_body


def reference_canonicalize(e):
    cur = _reference_order(_reference_normalize(e))
    for _ in range(4):
        nxt = _reference_order(_reference_normalize(cur))
        if nxt == cur:
            return cur
        cur = nxt
    raise ExprError("canonicalization did not converge")


def assert_canonical_as_reference(e):
    c = canonicalize(e)
    want = reference_canonicalize(e)
    assert c == want and to_text(c) == to_text(want), to_text(e)


@given(small_exprs())
@settings(max_examples=200, deadline=None)
def test_canonicalize_matches_the_reference(e):
    assert_canonical_as_reference(e)


def _golden_expression_texts(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("estimand", "output", "final") and isinstance(value, str):
                yield value
            else:
                yield from _golden_expression_texts(value)
    elif isinstance(node, list):
        for value in node:
            yield from _golden_expression_texts(value)


def test_canonicalize_matches_the_reference_on_every_golden_expression():
    texts = set()
    for path in GOLDEN.glob("*.json"):
        if not path.name.startswith("verify_"):
            texts.update(_golden_expression_texts(json.loads(path.read_text())))
    assert len(texts) > 100
    for text in sorted(texts):
        assert_canonical_as_reference(parse_expr(text))


@pytest.mark.parametrize("mode", ["top_down", "bottom_up"])
@pytest.mark.parametrize("graph", ["fig1", "fig2_n1", "fig2_n2"])
def test_canonicalize_matches_the_reference_on_every_search_key(graph, mode, monkeypatch):
    from swigident import Strategy, engine, figure1, figure2, identify, parse_estimand, to_swig

    if graph == "fig1":
        swig, query, depth = to_swig(figure1()), "q[1](Y1 | do D1=d1)", 16
    elif graph == "fig2_n1":
        swig, query, depth = to_swig(figure2(1)), "q[1](Y | do D1=d1)", 16
    else:  # not identified at this depth; every pass is keyed
        swig, query, depth = to_swig(figure2(2)), "q[2](Y | do D1=d1, do D2=d2)", 4
    keyed = []
    monkeypatch.setattr(engine, "canonicalize", lambda e: keyed.append(e) or canonicalize(e))
    d = identify(swig, parse_estimand(query, swig), Strategy(mode, depth=depth))
    assert d.identified == (graph != "fig2_n2") and d.stats.keys == len(keyed) > 0
    for e in keyed:
        assert_canonical_as_reference(e)


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


# ---------------------------------------------------------------------------
# sites: the smallest subtree holding every difference of two expressions


def _paths(e, prefix=()):
    """The path of every node of e, e's own first."""
    yield prefix
    for i, kid in enumerate(children(e)):
        yield from _paths(kid, prefix + (i,))


@given(small_exprs(), small_exprs(), st.data())
@settings(max_examples=300, deadline=None)
def test_the_site_of_a_rewrite_extends_its_path(e, new, data):
    # The site lies at or below the rewritten path: above it exactly one
    # child differs, and at it the old and new subtrees may share more.
    path = data.draw(st.sampled_from(list(_paths(e))))
    assume(new != subexpr_at(e, path))
    out = replace_at(e, path, new)
    at = site(e, out)
    assert at[: len(path)] == path
    # the subtree at the site holds every difference, and no smaller one does
    assert replace_at(e, at, subexpr_at(out, at)) == out
    assert site(subexpr_at(e, at), subexpr_at(out, at)) == ()


def test_site_examples():
    a = parse_expr("sum{l} q0(Y | L=l) * q0(L=l)")
    assert site(a, parse_expr("sum{l} q0(Y | L=l) * q0(L=0)")) == (0, 1)
    # a term rewritten into a sum, binders or arity that differ, two
    # differing factors: the site stops there
    assert site(a, parse_expr("sum{l} (sum{m} q0(Y, M=m | L=l)) * q0(L=l)")) == (0, 0)
    assert site(a, parse_expr("sum{m} q0(Y | L=m) * q0(L=m)")) == ()
    assert site(a, parse_expr("sum{l} q0(Y | L=l) * q0(L=l) * q0(Z)")) == (0,)
    assert site(a, parse_expr("sum{l} q0(Y | L=0) * q0(L=0)")) == (0,)
    assert site(a, a) == ()


# ---------------------------------------------------------------------------
# the shared term memo of parse_expr


def _by_tokens(text):
    """parse_expr with the layout path switched off: token by token."""

    def refuse(*_):
        raise SwigIdentError("layout path off")

    with mock.patch.object(dsl, "_parse_laid_out", refuse):
        return parse_expr(text)


@given(st.lists(small_exprs(), min_size=1, max_size=4), st.data())
@settings(max_examples=200, deadline=None)
def test_a_shared_term_memo_parses_as_the_tokenizer_does(es, data):
    # Text in to_text's layout is read a term at a time through the memo;
    # any other layout, and text that does not parse, goes token by token,
    # so the tree or the error is the same as without the memo.
    memo: dict = {}
    for e in es:
        text = to_text(e)
        variant = data.draw(st.sampled_from([
            text,
            text.replace(" * ", "*"),
            text.replace("} ", "}\n  "),
            text.replace("(", "( ", 1),
            f" {text}",
            f"{text} # a comment",
            text[:-1],
            text.replace("q0(", "q0 q0(", 1),
        ]))
        try:
            want = _by_tokens(variant)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                parse_expr(variant, memo)
            assert str(info.value) == str(exc)
        else:
            assert parse_expr(variant, memo) == want
        assert parse_expr(text, memo) == e
    for text, t in memo.items():
        assert parse_expr(text, memo) is t
