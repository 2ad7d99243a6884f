"""Exact discrete inference, sampling, and plug-in estimation."""

import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swigident import (
    BaseDag,
    Derivation,
    ExprError,
    Lit,
    Product,
    Regime,
    Role,
    StateSpaceLimitError,
    Sum,
    SwigIdentError,
    Sym,
    Term,
    Variable,
    ZeroProbabilityError,
    ablated_figure1,
    brute_force_ci,
    emit_graph,
    eval_estimand,
    eval_expr,
    figure1,
    figure2,
    figure3,
    identify,
    joint,
    load_model,
    model_from_json,
    model_to_json,
    parse_expr,
    plugin_estimate,
    query,
    random_model,
    sample,
    save_model,
    to_swig,
    verify,
)
from swigident import oracle
from swigident.derivation import _mediators_swig
from swigident.expr import terms
from swigident.figures import FIXTURES
from swigident.graphs import CiQuery, Graph
from swigident.oracle import (
    EINSUM_LABELS,
    MATMUL_ENTRIES,
    ZERO_EPS,
    Dataset,
    _plan,
    _run,
    ancestral_conditional,
    model_batches,
    model_from_base_cpts,
    random_base_cpts,
    random_cpt_batch,
    tie_pattern,
)

from conftest import dose_estimand, model_cpts, mutated_text, seeded_cpts, with_row
from test_engine import small_search_cases
from test_golden import IDENTIFY

Q0 = Regime.observational()
Q1 = Regime.prefix(1)
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_joint_normalizes(fig1):
    model = random_model(fig1, seed=0)
    for regime in (Q0, Q1):
        j = joint(model, regime)
        assert j.table.sum() == pytest.approx(1.0, abs=1e-12)


def test_delta_coupling_in_observed_data(fig1):
    model = random_model(fig1, seed=1)
    pair = joint(model, Q0).marginal(("D1", "Do1"))
    off_diag = pair - np.diag(np.diag(pair))
    assert np.all(np.abs(off_diag) < 1e-15)


def test_intervention_decoupled_and_uniform(fig1):
    model = random_model(fig1, seed=1)
    pair = joint(model, Q1).marginal(("D1", "Do1"))
    d1 = pair.sum(axis=1)
    do1 = pair.sum(axis=0)
    assert np.allclose(pair, np.outer(d1, do1), atol=1e-12)
    assert np.allclose(do1, [0.5, 0.5], atol=1e-12)


def test_nondescendant_untouched_by_intervention(fig1):
    model = random_model(fig1, seed=2)
    for v in range(2):
        a = query(model, Q1, ("L",), {"Do1": v})
        b = query(model, Q0, ("L",))
        assert np.allclose(a, b, atol=1e-12)


def test_active_law_is_inert(fig1):
    model = random_model(fig1, seed=3)
    skewed = joint(model, Q1, active_laws={1: np.array([0.9, 0.1])})
    uniform = joint(model, Q1)
    for v in range(2):
        a = skewed.conditional(("Y1",), ("Do1",))[:, v]
        b = uniform.conditional(("Y1",), ("Do1",))[:, v]
        assert np.allclose(a, b, atol=1e-12)


def test_query_returns_cpt_on_chain():
    base = BaseDag(
        variables=(
            Variable("A", 0, Role.OTHER, True, 2),
            Variable("B", 1, Role.OTHER, True, 3),
        ),
        edges=frozenset({("A", "B")}),
        targets=(),
        name="chain",
    )
    swig = to_swig(base)
    model = random_model(swig, seed=4)
    _, table = model.cpts["B"]
    for a in range(2):
        assert np.allclose(query(model, Q0, ("B",), {"A": a}), table[a], atol=1e-12)


def test_a_symbol_tying_factors_of_different_cardinality_is_refused():
    # Each factor alone is sound; only the product ties A's 2 levels to B's 3.
    base = BaseDag(
        variables=(Variable("A", 0, Role.OTHER, True, 2), Variable("B", 1, Role.OTHER, True, 3)),
        edges=frozenset({("A", "B")}),
        targets=(),
        name="chain",
    )
    model = random_model(to_swig(base), seed=4)
    with pytest.raises(ExprError, match="^axis 'a' has inconsistent sizes 2 and 3$"):
        eval_expr(model, parse_expr("q0(A=a) * q0(B=a)"))


def test_query_zero_probability_event(fig1):
    model = random_model(fig1, seed=5)
    with pytest.raises(ZeroProbabilityError):
        query(model, Q0, ("Y1",), {"D1": 0, "Do1": 1})


def test_eval_term_shared_symbol_diagonal(fig1):
    model = random_model(fig1, seed=6)
    e = parse_expr("q0(Y1 | L=l) * q0(L=l)")
    out = eval_expr(model, e)
    assert set(out.labels) == {"Y1", "l"}
    j = joint(model, Q0).marginal(("Y1", "L"))
    got = out.aligned(("Y1", "l"))
    assert np.allclose(got, j, atol=1e-12)


def test_eval_results_are_shared_read_only(fig1):
    # Values are memoised per model and terms are views of the cached
    # conditionals, so a caller must not be able to write through them.
    model = random_model(fig1, seed=6)
    for text in ("q0(Y1 | L=l)", "q0(Y1 | L=l) * q0(L=l)"):
        first = eval_expr(model, parse_expr(text))
        with pytest.raises(ValueError):
            first.values[...] = 0.0
        assert np.shares_memory(eval_expr(model, parse_expr(text)).values, first.values)


def test_eval_sum_of_everything_is_one(fig1):
    model = random_model(fig1, seed=7)
    e = parse_expr("sum{y, l} q0(Y1=y, L=l)")
    out = eval_expr(model, e)
    assert out.values == pytest.approx(1.0, abs=1e-12)


def test_eval_estimand_matches_query(fig1, fig1_estimand):
    model = random_model(fig1, seed=9)
    table = eval_estimand(model, fig1_estimand)
    for v in range(2):
        direct = query(model, Q1, ("Y1",), {"Do1": v})
        assert np.allclose(table.aligned(("Y1", "d1"))[:, v], direct, atol=1e-12)


def test_shared_base_mechanisms_across_splittings():
    """Two splittings of the same skeleton share their observed-data law."""
    f2 = to_swig(figure2(2))
    f3 = to_swig(figure3(2))
    rng = np.random.default_rng(10)
    cpts = random_base_cpts(f2.base, rng)
    m2 = model_from_base_cpts(f2, cpts)
    m3 = model_from_base_cpts(f3, random_base_cpts(f3.base, np.random.default_rng(10)))
    for deps in (("Y",), ("M1", "M2"), ("D2",)):
        a = query(m2, Q0, deps)
        b = query(m3, Q0, deps)
        assert np.allclose(a, b, atol=1e-12)


def test_state_space_limit():
    k = 24
    names = tuple(f"V{i}" for i in range(k))
    base = BaseDag(
        variables=tuple(Variable(n, i, Role.OTHER, True, 2) for i, n in enumerate(names)),
        edges=frozenset(),
        targets=(),
        name="wide",
    )
    model = random_model(to_swig(base), seed=0)
    with pytest.raises(StateSpaceLimitError):
        joint(model, Q0)


def _line(k, chained, cardinality=2):
    """V0 .. V{k-1}, independent or chained V0 -> V1 -> ... -> V{k-1}."""
    names = tuple(f"V{i}" for i in range(k))
    return to_swig(
        BaseDag(
            variables=tuple(
                Variable(n, i, Role.OTHER, True, cardinality) for i, n in enumerate(names)
            ),
            edges=frozenset(zip(names, names[1:])) if chained else frozenset(),
            targets=(),
            name="line",
        )
    )


def test_a_term_of_a_wide_graph_evaluates_without_the_joint():
    # 2^24 joint states are past STATE_LIMIT (test_state_space_limit), but
    # the other 22 variables are barren for a term over V3 and V17.
    swig = _line(24, chained=False)
    model = random_model(swig, seed=0)
    got = eval_expr(model, parse_expr("q0(V3, V17)"))
    want = np.outer(model.cpts["V3"][1], model.cpts["V17"][1])
    assert got.labels == ("V3", "V17")
    assert np.max(np.abs(got.values - want)) <= 1e-15
    assert not model._joints


def test_query_and_brute_force_ci_of_a_wide_graph_build_no_joint():
    # 2^24 joint states, past STATE_LIMIT: both read ancestral tables.
    swig = _line(24, chained=False)
    model = random_model(swig, seed=0)
    got = query(model, Q0, ("V3",), {"V17": 1, "V20": 0})
    assert np.max(np.abs(got - model.cpts["V3"][1])) <= 1e-15
    assert brute_force_ci(model, CiQuery(Q0, {"V3", "V5"}, {"V17"}, {"V20"}))
    model.cpts["V20"] = ((), np.array([1.0, 0.0]))
    with pytest.raises(ZeroProbabilityError):
        query(model, Q0, ("V3",), {"V20": 1})
    assert not model._joints


def test_a_product_past_the_einsum_subscripts_raises_state_space_limit():
    # 53 one-level variables: the product of their 53 terms needs a table
    # over more labels than one einsum takes.
    swig = _line(53, chained=False, cardinality=1)
    model = random_model(swig, seed=0)
    product = parse_expr(" * ".join(f"q0(V{i}=a{i})" for i in range(53)))
    with pytest.raises(StateSpaceLimitError, match="product of 53 factors"):
        eval_expr(model, product)
    # A merge that keeps 51 labels but sums 11 more out of its pair also
    # needs more labels than one einsum takes.
    swig = _line(62, chained=False, cardinality=1)
    model = random_model(swig, seed=0)
    wide = ", ".join([f"V{i}=a{i}" for i in range(40)] + [f"V{i}=b{i}" for i in range(40, 51)])
    rest = ", ".join(f"V{i}=c{i}" for i in range(51, 62))
    binders = ", ".join(f"b{i}" for i in range(40, 51))
    summed = parse_expr(f"sum{{{binders}}} q0({wide}) * q0({rest})")
    with pytest.raises(StateSpaceLimitError, match="product of 2 factors"):
        eval_expr(model, summed)


def test_an_ancestral_set_past_the_einsum_subscripts_evaluates():
    # q0(V59) of a 60-chain has 60 ancestors, more than one einsum can
    # label; each pairwise merge labels only its own operands, and the
    # answer is the product of the chain's transition matrices.
    swig = _line(60, chained=True)
    model = random_model(swig, seed=1)
    want = model.cpts["V0"][1]
    for i in range(1, 60):
        want = want @ model.cpts[f"V{i}"][1]
    assert len(swig.regime_graph(Q0).ancestors({"V59"})) > EINSUM_LABELS
    got = eval_expr(model, parse_expr("q0(V59)"))
    assert np.max(np.abs(got.values - want)) <= 1e-12
    got = eval_expr(model, parse_expr("q0(V59 | V0=0)"))
    want = model.cpts["V1"][1][0]
    for i in range(2, 60):
        want = want @ model.cpts[f"V{i}"][1]
    assert np.max(np.abs(got.values - want)) <= 1e-12


def test_a_conditional_too_large_for_the_oracle_raises_state_space_limit():
    # 2^23 states for one model, past STATE_LIMIT.
    swig = _line(60, chained=True)
    model = random_model(swig, seed=2)
    deps = tuple(f"V{i}" for i in range(23))
    with pytest.raises(StateSpaceLimitError, match="conditional over"):
        ancestral_conditional(model, Q0, deps, ())
    # One state but 52 variables, past numpy's einsum subscripts [0, 52)
    # once the batch axis takes one: refused with the oracle's error, not
    # numpy's.
    swig = _line(52, chained=False, cardinality=1)
    model = random_model(swig, seed=3)
    with pytest.raises(StateSpaceLimitError, match="einsum subscripts"):
        ancestral_conditional(model, Q0, swig.names, ())


def test_a_conditional_that_is_one_cpt_leaves_the_cpt_alone(fig1):
    # q0(L) contracts to L's own CPT (a view of it); the normalisation must
    # not write into the model.  The row sums 1 - 4e-13, so dividing in
    # place would change the CPT.
    model = random_model(fig1, seed=17)
    model.cpts["L"] = ((), np.array([0.25, 0.75 - 4e-13]))
    before = {name: table.copy() for name, (_, table) in model.cpts.items()}
    got = eval_expr(model, parse_expr("q0(L)"))
    assert np.allclose(got.values, [0.25, 0.75], atol=1e-12)
    assert not np.shares_memory(got.values, model.cpts["L"][1])
    for name, (_, table) in model.cpts.items():
        assert np.array_equal(table, before[name]) and table.flags.writeable, name


def test_a_conditioning_event_below_zero_eps_is_nan(fig1):
    # P(L=1) = 0 exactly: both oracles mask the cells that condition on it,
    # so the term skips the model instead of dividing by zero.
    model = random_model(fig1, seed=18)
    model.cpts["L"] = ((), np.array([1.0, 0.0]))
    for table in (
        ancestral_conditional(model, Q0, ("Y1",), ("L",)),
        joint(model, Q0).conditional(("Y1",), ("L",)),
    ):
        assert np.isnan(table[:, 1]).all() and not np.isnan(table[:, 0]).any()


def test_a_tiny_positive_conditioning_event_is_divided_by(fig1):
    # P(L=1) = 1e-13 is below ZERO_EPS but positive: the conditional given
    # L=1 is exact, so both oracles give it and agree.
    model = random_model(fig1, seed=18)
    model.cpts["L"] = ((), np.array([1 - 1e-13, 1e-13]))
    fast = ancestral_conditional(model, Q0, ("Y1",), ("L",))
    dense = joint(model, Q0).conditional(("Y1",), ("L",))
    assert not np.isnan(fast).any() and np.allclose(fast, dense, atol=1e-12)
    assert np.allclose(fast.sum(axis=0), 1.0, atol=1e-12)


@st.composite
def regime_queries(draw, max_levels=3):
    """A random split graph of 2-6 variables (1 to max_levels levels each), a
    regime, dependents and conditioners, and a seed for its models."""
    n = draw(st.integers(2, 6))
    names = [f"V{i}" for i in range(n)]
    variables = tuple(
        Variable(v, i, Role.OTHER, True, draw(st.integers(1, max_levels)))
        for i, v in enumerate(names)
    )
    edges = frozenset(
        (names[i], names[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    )
    targets = tuple(v for v in names[:-1] if draw(st.booleans()))[:2]
    swig = to_swig(BaseDag(variables, edges, targets, "random"))
    active = frozenset(i for i in range(1, len(targets) + 1) if draw(st.booleans()))
    order = draw(st.permutations(swig.names))
    n_deps = draw(st.integers(1, 2))
    n_conds = draw(st.integers(0, min(3, len(order) - n_deps)))
    deps = tuple(order[:n_deps])
    conds = tuple(order[n_deps : n_deps + n_conds])
    return swig, Regime(active), deps, conds, draw(st.integers(0, 2**16))


def _models_with_a_certain_row(swig, seed):
    """Base CPTs of 3 random models, stacked; model 1 puts all of one row of
    a CPT on a single level, so some conditioning events have probability
    zero in it alone."""
    cpts = seeded_cpts(swig, 3, seed)
    name = next((v.name for v in swig.base.variables if v.cardinality > 1), None)
    if name is None:
        return cpts
    parents, table = cpts[name]
    return with_row(cpts, 1, name, (0,) * len(parents), np.eye(table.shape[-1])[-1])


@given(regime_queries())
@settings(max_examples=200, deadline=None)
def test_ancestral_conditional_matches_the_dense_joint(case):
    swig, regime, deps, conds, seed = case
    cpts = _models_with_a_certain_row(swig, seed)
    [batch] = model_batches(swig, cpts)
    got = ancestral_conditional(batch, regime, deps, conds)
    want = joint(batch, regime).conditional(deps, conds)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.max(np.abs(np.nan_to_num(got) - np.nan_to_num(want)), initial=0.0) <= 1e-12


def reference_brute_force_ci(model, q, tol=1e-9):
    """brute_force_ci as first written, on the dense joint's marginal."""
    if not q.x or not q.y:
        return True
    x, y, z = sorted(q.x), sorted(q.y), sorted(q.z)
    m = joint(model, q.regime).marginal(tuple(x) + tuple(y) + tuple(z))
    nx, ny = len(x), len(y)
    sx, sy, sz = m.shape[:nx], m.shape[nx : nx + ny], m.shape[nx + ny :]
    pz = m.sum(axis=tuple(range(nx + ny))).reshape((1,) * (nx + ny) + sz)
    pxz = m.sum(axis=tuple(range(nx, nx + ny))).reshape(sx + (1,) * ny + sz)
    pyz = m.sum(axis=tuple(range(nx))).reshape((1,) * nx + sy + sz)
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.abs(m / pz - (pxz / pz) * (pyz / pz))
    diff = np.where(pz >= ZERO_EPS, diff, 0.0)
    return float(np.max(diff)) <= tol


@given(regime_queries(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_brute_force_ci_matches_the_dense_joint(case, split):
    swig, regime, deps, conds, seed = case
    names = deps + conds
    q = CiQuery(regime, names[:1], names[1 : 1 + split], names[1 + split :])
    cpts = random_base_cpts(swig.base, np.random.default_rng(seed))
    # with probability 1/2, one CPT row puts all its mass on one level, so
    # some conditioning cells have probability zero
    name = next((v.name for v in swig.base.variables if v.cardinality > 1), None)
    if name is not None and seed % 2:
        parents, table = cpts[name]
        table = table.copy()
        table[(0,) * len(parents)] = np.eye(table.shape[-1])[-1]
        cpts[name] = (parents, table)
    model = model_from_base_cpts(swig, cpts)
    assert brute_force_ci(model, q) == reference_brute_force_ci(model, q)


def reference_plan(subs, sizes, out):
    """_plan's path as first written: every pair of factors is weighed, a
    pair that shares no label behind every pair that shares one.  A lone
    factor is summed down, or reordered, to out by a merge of its own."""
    out_mask = sum(1 << i for i in out)

    def size(mask):
        return math.prod(sizes[i] for i in range(mask.bit_length()) if mask >> i & 1)

    live = [sum(1 << i for i in s) for s in subs]
    steps = []
    while len(live) > 1:
        once = twice = thrice = 0
        for m in live:
            thrice |= twice & m
            twice |= once & m
            once |= m
        best = None
        for j in range(1, len(live)):
            for i in range(j):
                a, b = live[i], live[j]
                keep = (a | b) & out_mask | a & b & thrice | (a ^ b) & twice
                cost = (not a & b, size(keep) - size(a) - size(b))
                if best is None or cost < best[0]:
                    best = (cost, i, j, keep)
        _, i, j, keep = best
        live.pop(j)
        live.pop(i)
        live.append(keep)
        labels = out if len(live) == 1 else tuple(k for k in range(len(sizes)) if keep >> k & 1)
        steps.append(((j, i), labels))
    if len(subs) == 1 and subs[0] != out:
        steps.append(((0,), out))
    return steps


@st.composite
def contraction_shapes(draw):
    """Factors over random subsets of up to 8 labels of 1-6 levels, and kept
    labels in a random order drawn from those the factors hold."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8).map(tuple))
    labels = st.lists(st.integers(0, len(sizes) - 1), max_size=4, unique=True).map(tuple)
    subs = draw(st.lists(labels, min_size=1, max_size=8).map(tuple))
    held = sorted({i for s in subs for i in s})
    out = tuple(draw(st.permutations(held))[: draw(st.integers(0, len(held)))])
    return subs, sizes, out


@given(contraction_shapes())
@settings(max_examples=400, deadline=None)
def test_plan_matches_the_exhaustive_pair_scan(shape):
    # Each compiled merge pops the reference path's positions, and its
    # subscripts name, after the model axis 0, the labels of the factors it
    # pops and the ones the reference keeps.
    subs, sizes, out = shape
    program, refused = _plan(*shape)
    assert refused is None and len(program) == len(reference_plan(*shape))
    held = list(subs)
    for (positions, operands, result, pair), (want, kept) in zip(program, reference_plan(*shape)):
        assert positions == want
        group = [held.pop(p) for p in positions]
        label = {}
        for labels, subscripts in zip(group, operands):
            assert subscripts[0] == 0
            for x, l in zip(subscripts[1:], labels, strict=True):
                assert label.setdefault(x, l) == l
        assert result[0] == 0
        assert tuple(label[x] for x in result[1:]) == tuple(kept)
        assert pair == (math.prod(sizes[l] for l in label.values()) if len(group) == 2 else 0)
        held.append(tuple(kept))
    # a shape met again is not searched again: every caller shares the program
    misses = _plan.cache_info().misses
    assert _plan(*shape)[0] is program and _plan.cache_info().misses == misses


@given(contraction_shapes(), st.integers(1, 3), st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_run_matches_one_einsum_over_every_factor(shape, models, seed):
    # However _plan splits the contraction, its program gives what one
    # np.einsum over all the factors gives, the batch axis included.
    subs, sizes, out = shape
    rng = np.random.default_rng(seed)
    tables = [rng.random((models, *(sizes[l] for l in s))) for s in subs]
    ops = [(t, tuple(f"l{l}" for l in s)) for t, s in zip(tables, subs)]
    got, merges = _run(ops, tuple(f"l{l}" for l in out), "a test product")
    args = [x for t, s in zip(tables, subs) for x in (t, [len(sizes), *s])]
    want = np.einsum(*args, [len(sizes), *out])
    assert got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=0)
    assert merges == len(_plan(*_numbered(subs, sizes, out))[0])


def _numbered(subs, sizes, out):
    """The shape _run plans for factors with the label numbers subs: the
    labels numbered by first use."""
    ids = {}
    renumbered = tuple(tuple(ids.setdefault(l, len(ids)) for l in s) for s in subs)
    return renumbered, tuple(sizes[l] for l in ids), tuple(ids[l] for l in out)


def test_run_sends_a_pair_past_matmul_entries_through_the_matmul_path(monkeypatch):
    # Over all models, the pair (x) * (x, y) has batch * 2 * 2 entries: at
    # MATMUL_ENTRIES with the smaller batch, past it with the larger.  A
    # single table is never sent through the matmul path.
    flags = []
    einsum = np.einsum

    def spy(*operands, optimize):
        flags.append(optimize)
        return einsum(*operands, optimize=optimize)

    monkeypatch.setattr(np, "einsum", spy)
    rng = np.random.default_rng(0)
    for batch in (MATMUL_ENTRIES // 4, MATMUL_ENTRIES // 4 + 1):
        a = rng.random((batch, 2))
        b = rng.random((batch, 2, 2))
        got, merges = _run([(a, ("x",)), (b, ("x", "y"))], ("y",), "a pair")
        assert merges == 1 and np.allclose(got, einsum("mx,mxy->my", a, b))
    big = rng.random((MATMUL_ENTRIES, 2))
    got, merges = _run([(big, ("x",))], (), "a table")
    assert merges == 1 and np.allclose(got, big.sum(axis=1))
    assert flags == [False, True, False]


def test_sampling_determinism_and_coupling(fig1):
    model = random_model(fig1, seed=11)
    a = sample(model, Q0, 500, seed=3)
    b = sample(model, Q0, 500, seed=3)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.col("D1"), a.col("Do1"))

    c = sample(model, Q1, 4000, seed=3)
    assert (c.col("D1") != c.col("Do1")).any()
    assert abs(c.col("Do1").mean() - 0.5) < 0.05


def test_a_negative_seed_or_a_row_count_past_numpy_is_refused(fig1, bundled_derivations):
    # numpy raises ValueError for both; the library answers SwigIdentError
    # before it builds a generator or allocates a row.
    with pytest.raises(SwigIdentError, match="seed must be a non-negative integer, got -1"):
        random_model(fig1, seed=-1)
    model = random_model(fig1, seed=11)
    with pytest.raises(SwigIdentError, match="seed must be a non-negative integer, got -1"):
        sample(model, Q0, 5, seed=-1)
    with pytest.raises(SwigIdentError, match=f"cannot hold {10**20} rows of 5 columns"):
        sample(model, Q0, 10**20)
    name, swig, d = bundled_derivations[0]
    with pytest.raises(SwigIdentError, match="seed must be a non-negative integer, got -1"):
        verify(d, swig, n_models=2, seed=-1)


def test_sampling_matches_joint_frequencies(fig1):
    model = random_model(fig1, seed=12)
    data = sample(model, Q0, 50_000, seed=4)
    want = joint(model, Q0).marginal(("Y1",))
    got = np.bincount(data.col("Y1"), minlength=2) / data.data.shape[0]
    assert np.allclose(got, want, atol=0.01)


def reference_sample(model, regime, n, seed):
    """The sampler as first written: each variable gathers an n x k table of
    its CPT rows and counts the cumulative entries below a uniform draw."""
    swig = model.swig
    rng = np.random.default_rng(seed)
    cols = {}
    for name in swig.regime_graph(regime).topological_order:
        k = swig.var(name).cardinality
        if name in swig.target_of:
            if swig.index_of[name] in regime.active:
                cols[name] = rng.integers(0, k, size=n)
            else:
                cols[name] = cols[swig.target_of[name]].copy()
            continue
        parents, cpt = model.cpts[name]
        rows = cpt[tuple(cols[p] for p in parents)] if parents else np.broadcast_to(cpt, (n, k))
        u = rng.random(n)
        draws = (u[:, None] > np.cumsum(rows, axis=-1)).sum(axis=-1)
        cols[name] = np.minimum(draws, k - 1)
    return np.column_stack([cols[name] for name in swig.names])


@given(regime_queries(max_levels=4), st.integers(0, 60))
@settings(max_examples=200, deadline=None)
def test_sample_matches_the_gathered_reference(case, n):
    swig, regime, _, _, seed = case
    model = model_from_base_cpts(swig, random_base_cpts(swig.base, np.random.default_rng(seed)))
    got = sample(model, regime, n, seed=seed)
    assert got.columns == swig.names
    assert np.array_equal(got.data, reference_sample(model, regime, n, seed))


def test_a_draw_past_a_short_cpt_row_lands_on_the_last_level(fig1):
    # Rows summing to less than 1 leave room for u above the last cumulative
    # entry; such a draw takes the last level, as in the reference.
    model = random_model(fig1, seed=19)
    parents, table = model.cpts["Y1"]
    model.cpts["Y1"] = (parents, table / 2)
    got = sample(model, Q0, 2000, seed=7)
    assert np.array_equal(got.data, reference_sample(model, Q0, 2000, 7))
    assert set(np.unique(got.col("Y1"))) == {0, 1}


@given(
    st.integers(0, 4).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-(10**12), 10**12), min_size=k, max_size=k), max_size=20
        ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), k))
    )
)
@settings(max_examples=200, deadline=None)
def test_write_csv_writes_csv_writer_bytes_and_reads_back(data):
    columns = tuple(f"C{j}" for j in range(data.shape[1]))
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(columns)
    writer.writerows(data.tolist())
    got = io.StringIO(newline="")
    Dataset(columns, data).write_csv(got)
    assert got.getvalue() == want.getvalue()
    if not columns:
        return
    got.seek(0)
    back = Dataset.read_csv(got)
    assert back.columns == columns and np.array_equal(back.data, data)


@pytest.mark.parametrize(
    "text, message",
    [
        ("A,B\r\n0,1\r\n1\r\n", "number of columns changed"),
        ("A,B\r\n0,1\r\n1,x\r\n", "could not convert string 'x'"),
        ("A,B\r\n0,1\r\n# note\r\n", "malformed CSV"),
        ("A,B\r\n0,1,1\r\n1,0,1\r\n", "rows have 3 fields, the header 2"),
        ("", "no column names"),
        ("\r\n0\r\n", "no column names"),
    ],
)
def test_read_csv_refuses_malformed_input(text, message):
    with pytest.raises(SwigIdentError, match=message):
        Dataset.read_csv(io.StringIO(text, newline=""))


def test_read_csv_refuses_a_bare_carriage_return_in_the_header():
    # csv.reader raised _csv.Error on the header line read without
    # universal newlines.
    with pytest.raises(SwigIdentError, match="^malformed CSV: new-line character seen"):
        Dataset.read_csv(io.StringIO("L,D1\r0,1\r\n"))


@pytest.mark.parametrize("offset", [7, 9_000])
def test_read_csv_refuses_a_byte_that_is_not_utf8_wherever_it_is(offset, tmp_path):
    # Reading the header decodes the first 8 KiB of the file: a bad byte
    # there once escaped as UnicodeDecodeError, one past it was refused.
    body = b"A,B\r\n" + b"".join(b"%d,%d\r\n" % (i % 2, i % 3) for i in range(4_000))
    path = tmp_path / "bad.csv"
    path.write_bytes(body[:offset] + b"\xff" + body[offset + 1 :])
    with open(path, encoding="utf-8", newline="") as fh:
        with pytest.raises(SwigIdentError, match="^malformed CSV.*can't decode byte 0xff"):
            Dataset.read_csv(fh)


FIG1_ROWS = "".join((GOLDEN / "simulate_fig1_r0.csv").read_text().splitlines(True)[:12])


@given(text=mutated_text(FIG1_ROWS))
@settings(max_examples=200, deadline=None)
def test_read_csv_and_plugin_estimate_answer_every_mutated_csv_or_refuse(fig1, text):
    # A character mutation of a fig1 sample's header or rows: read_csv
    # reads it and plugin_estimate evaluates the back-door formula on it,
    # or one of them raises SwigIdentError, the error the CLI reports.
    formula = parse_expr("sum{l} q0(Y1 | D1=d1, L=l) * q0(L=l)")
    try:
        table = plugin_estimate(fig1, formula, Dataset.read_csv(io.StringIO(text, newline="")))
    except SwigIdentError:
        return
    assert np.all((table.values >= 0) & (table.values <= 1))


class _Unseekable(io.StringIO):
    def seekable(self):
        return False


@pytest.mark.parametrize("end", ["\r\n", "\n", "\r"])
def test_read_csv_allocates_its_rows_once(end):
    # loadtxt grew its array by reallocation when not told how many rows to
    # expect: at 70,001 rows its traced peak was 16% over the array's
    # bytes, and a grown array's freed blocks could stay resident.  A
    # stream that cannot seek is read without the count, to the same rows.
    data = np.arange(70_001 * 2).reshape(-1, 2) % 7
    text = "A,B" + end + "".join(f"{a},{b}{end}" for a, b in data.tolist())
    fh = io.StringIO(text, newline="")
    tracemalloc.start()
    try:
        read = Dataset.read_csv(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(read.data, data)
    assert peak <= read.data.nbytes + 64 * 1024
    assert np.array_equal(Dataset.read_csv(_Unseekable(text, newline="")).data, data)


def test_read_csv_of_a_header_alone_has_no_rows():
    read = Dataset.read_csv(io.StringIO("A,B\r\n", newline=""))
    assert read.columns == ("A", "B") and read.data.shape == (0, 2) and len(read) == 0


def test_plugin_estimate_sizes_tables_by_the_graph():
    swig = to_swig(figure2(1))
    data = sample(random_model(swig, seed=3), Q0, 500, seed=3)
    data.data[:, swig.names.index("Y")] = 0
    with io.StringIO(newline="") as fh:
        data.write_csv(fh)
        fh.seek(0)
        read = Dataset.read_csv(fh)
    got = plugin_estimate(swig, parse_expr("q0(Y | D1=d1)"), read)
    assert got.labels == ("Y", "d1") and got.values.shape == (2, 2)
    assert (got.values[1] < got.values[0]).all()


def test_plugin_estimate_refuses_values_outside_the_graphs_levels(fig1):
    data = sample(random_model(fig1, seed=3), Q0, 50, seed=3)
    formula = parse_expr("sum{l} q0(Y1 | D1=d1, L=l) * q0(L=l)")
    for bad in (2, -1):
        values = data.data.copy()
        values[7, fig1.names.index("L")] = bad
        with pytest.raises(SwigIdentError, match=f"column 'L' holds {bad}, outside"):
            plugin_estimate(fig1, formula, dataclasses.replace(data, data=values))


def test_plugin_estimate_names_a_missing_column(fig1):
    data = sample(random_model(fig1, seed=3), Q0, 50, seed=3)
    keep = [i for i, n in enumerate(fig1.names) if n != "M1"]
    short = Dataset(tuple(fig1.names[i] for i in keep), data.data[:, keep])
    with pytest.raises(SwigIdentError, match="dataset has no column 'M1'"):
        plugin_estimate(fig1, parse_expr("q0(Y1 | M1=m, D1=d1)"), short)


def test_plugin_estimate_rejects_interventional(fig1):
    model = random_model(fig1, seed=13)
    data = sample(model, Q0, 100, seed=5)
    from swigident import SwigIdentError

    with pytest.raises(SwigIdentError):
        plugin_estimate(fig1, parse_expr("q1(Y1 | Do1=d1)"), data)


def test_plugin_estimate_converges(fig1):
    model = random_model(fig1, seed=14)
    data = sample(model, Q0, 30_000, seed=6)
    e = parse_expr("sum{l} q0(Y1 | D1=d1, L=l) * q0(L=l)")
    got = plugin_estimate(fig1, e, data)
    want = eval_expr(model, e)
    labels = tuple(dict.fromkeys(got.labels + want.labels))
    assert np.max(np.abs(got.aligned(labels) - want.aligned(labels))) < 0.05


def _assert_model_file_round_trips(model):
    """save_model writes the graph as its graph document, and load_model
    reads back an equal graph and equal CPTs."""
    fh = io.StringIO()
    save_model(model, fh)
    assert json.loads(fh.getvalue())["graph"] == emit_graph(model.swig.base)
    fh.seek(0)
    loaded = load_model(fh)
    assert loaded.swig == model.swig
    assert loaded.cpts.keys() == model.cpts.keys()
    for name, (parents, table) in model.cpts.items():
        assert loaded.cpts[name][0] == parents
        assert np.array_equal(loaded.cpts[name][1], table)


def test_model_json_round_trip(fig1, tmp_path):
    model = random_model(fig1, seed=15)
    clone = model_from_json(model_to_json(model))
    assert clone.swig.names == model.swig.names
    for v in range(2):
        assert np.allclose(
            query(clone, Q1, ("Y1",), {"Do1": v}),
            query(model, Q1, ("Y1",), {"Do1": v}),
            atol=1e-15,
        )

    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.allclose(
        query(loaded, Q0, ("Y1",)), query(model, Q0, ("Y1",)), atol=1e-15
    )
    for seed, build in enumerate([*FIXTURES.values(), lambda: figure1(l_observed=False)]):
        _assert_model_file_round_trips(random_model(to_swig(build()), seed=seed))


@given(regime_queries(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_model_file_round_trips_a_random_graph(case, data):
    # up to 3 levels and 2 targets from the generator; any base role, and
    # any variable hidden
    swig, *_, seed = case
    roles = st.sampled_from([r for r in Role if r is not Role.INTERVENTION])
    variables = tuple(
        dataclasses.replace(v, role=data.draw(roles), observed=data.draw(st.booleans()))
        for v in swig.base.variables
    )
    base = dataclasses.replace(swig.base, variables=variables)
    _assert_model_file_round_trips(random_model(to_swig(base), seed=seed))


@pytest.mark.parametrize("text", ['{"graph": {}}', "not json", "[]"])
def test_load_model_malformed_raises_swigident_error(text, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(SwigIdentError, match="^malformed model:"):
        load_model(path)


def test_a_model_graph_that_does_not_parse_names_its_position(fig1):
    obj = model_to_json(random_model(fig1, seed=15))
    assert obj["graph"].splitlines()[5] == "  edge D1 -> M1;"
    obj["graph"] = obj["graph"].replace("edge D1 -> M1;", "edge D1 => M1;")
    with pytest.raises(SwigIdentError) as exc:
        model_from_json(obj)
    assert str(exc.value) == (
        "malformed model: graph: unexpected character '>' at line 6, column 12"
    )


def test_consistency_spot_check(fig1):
    model = random_model(fig1, seed=16)
    for v in range(2):
        a = query(model, Q1, ("Y1",), {"D1": v, "Do1": v})
        b = query(model, Q0, ("Y1",), {"D1": v, "Do1": v})
        assert np.allclose(a, b, atol=1e-12)


def _models_with_a_deterministic_row(swig, n=7, seed=21):
    """Base CPTs of n random models, stacked; in model 3, M1 is never 1 when
    its parents are all 0, so terms conditioning on that event skip model
    3."""
    cpts = seeded_cpts(swig, n, seed)
    parents, _ = cpts["M1"]
    return with_row(cpts, 3, "M1", (0,) * len(parents), [1.0, 0.0])


def _level(ref, name, assignment):
    if ref is None:
        return assignment[name]
    return assignment[ref.name] if isinstance(ref, Sym) else ref.value


@pytest.mark.parametrize(
    "n, strategy",
    [(1, "sequential_frontdoor"), (2, "sequential_frontdoor"), (2, "mediator_intervention")],
)
def test_batched_evaluation_matches_single_models(n, strategy):
    swig = to_swig(figure2(n))
    d = identify(swig, dose_estimand(swig, ("Y",)), strategy)
    cpts = _models_with_a_deterministic_row(swig)
    [batch] = model_batches(swig, cpts)
    singles = [model_from_base_cpts(swig, model_cpts(cpts, m)) for m in range(7)]
    exprs = [d.estimand, *(step.output for step in d.steps)]

    masks = []
    for e in exprs:
        got = eval_expr(batch, e)
        assert got.values.shape[0] == len(singles)
        for m, model in enumerate(singles):
            try:
                alone = eval_expr(model, e)
            except ZeroProbabilityError:
                assert got.skipped[m]
                continue
            assert not got.skipped[m]
            assert got.labels == alone.labels
            assert np.max(np.abs(got.values[m] - alone.values), initial=0.0) <= 1e-12
        masks.append(got.skipped)
    masks = np.array(masks)
    only_model_3 = np.arange(len(singles)) == 3
    assert any((row == only_model_3).all() for row in masks)
    assert not masks[:, 3].all()

    # every term against the dense joint of each model alone
    for t in {t for e in exprs for _, t in terms(e)}:
        got = eval_expr(batch, t)
        for m, model in enumerate(singles):
            skipped = False
            for levels in itertools.product(*map(range, got.values.shape[1:])):
                at = dict(zip(got.labels, levels))
                conds = {name: _level(ref, name, at) for name, ref in t.conditioners}
                try:
                    table = query(model, t.regime, t.dep_names(), conds)
                except ZeroProbabilityError:
                    skipped = True
                    continue
                want = table[tuple(_level(ref, name, at) for name, ref in t.dependents)]
                assert abs(got.values[(m, *levels)] - want) <= 1e-12
            assert got.skipped[m] == skipped


# ---------------------------------------------------------------------------
# memoised evaluation: each expression reads the conditionals and values that
# those evaluated before it left, or that were released and built again, and
# must give what a fresh batch gives


def _chains(swig, d):
    """(swig, expressions) of a derivation and of each nested derivation, in
    the order verify evaluates them."""
    out = []
    for step in d.steps:
        if step.rule == "mediator_composition":
            just = step.justification
            out += _chains(swig, just.mediator_law)
            out += _chains(_mediators_swig(swig, just.mediator_targets), just.outcome)
    return out + [(swig, [d.estimand, *(s.output for s in d.steps)])]


def _fresh(swig, cpts, e):
    """e on a batch with empty caches."""
    [batch] = model_batches(swig, cpts)
    return eval_expr(batch, e)


def _assert_same_table(got, want):
    assert set(got.labels) == set(want.labels)
    assert np.array_equal(got.skipped, want.skipped)
    np.testing.assert_allclose(got.aligned(want.labels), want.values, rtol=0, atol=1e-12)


def _assert_incremental_matches_fresh(swig, d):
    """Every expression of d, evaluated in chain order on one batch, has the
    labels, skip mask and values (within 1e-12) of a fresh evaluation,
    although it reads what the expressions before it memoised, and every
    second one first releases all memoised conditionals and the values of
    the expressions before it, which are then built again."""
    if "M1" in swig.names:
        cpts = _models_with_a_deterministic_row(swig, n=5)
    else:
        cpts = seeded_cpts(swig, 5, seed=21)
    for chain_swig, exprs in _chains(swig, d):
        [batch] = model_batches(chain_swig, cpts)
        for i, e in enumerate(exprs):
            if i % 2:
                for prior in exprs[:i]:
                    batch._values.pop(prior, None)
                for key in list(batch._conditionals):
                    batch._conditionals.pop(key)
                assert not batch._conditionals
            got = eval_expr(batch, e)
            want = _fresh(chain_swig, cpts, e)
            assert got.labels == want.labels
            _assert_same_table(got, want)


def test_compare_leaves_no_memoised_table_in_any_batch(bundled_derivations, monkeypatch):
    # compare drops each subexpression's value and each conditional after
    # the last pair that reads it.  Were the key its liveness pass builds
    # not the one ancestral_conditional memoises under, a conditional would
    # outlive the comparison in one of these batches.
    batches = []
    cut = oracle.model_batches

    def recorded(swig, cpts):
        for batch in cut(swig, cpts):
            batches.append(batch)
            yield batch

    monkeypatch.setattr(oracle, "model_batches", recorded)
    for name, swig, d in bundled_derivations:
        monkeypatch.setattr(oracle, "STATE_LIMIT", 2 * oracle.joint_states(swig))
        report = verify(d, swig, n_models=5)
        assert report.passed and report.stats.conditionals > 0, name
        assert report.stats.peak_live_bytes > 0, name
    assert len(batches) >= 3 * len(bundled_derivations)
    for batch in batches:
        assert batch._values == {} and batch._conditionals == {}


@pytest.mark.parametrize(
    "n, strategy",
    [(n, "sequential_frontdoor") for n in (1, 2, 3, 4)] + [(2, "mediator_intervention")],
)
def test_incremental_contraction_matches_fresh_batches(n, strategy):
    swig = to_swig(figure2(n))
    d = identify(swig, dose_estimand(swig, ("Y",)), strategy)
    _assert_incremental_matches_fresh(swig, d)


def _tied_terms(swig, d):
    """(swig, term) for each term with tied conditioners in d's chain and
    its nested derivations' chains, each once."""
    out = {}
    for chain_swig, exprs in _chains(swig, d):
        for e in exprs:
            for _, t in terms(e):
                if tie_pattern(t) != tuple(range(len(t.conditioners))):
                    out[chain_swig.base.name, t] = (chain_swig, t)
    return list(out.values())


def _diagonal_cells(table, n_deps, ties):
    """The cells of a batch table over deps + conds where every conditioner
    takes the level of the one it is tied to, over deps and the conditioners
    tied to themselves."""
    own = [i for i, j in enumerate(ties) if i == j]
    head = table.shape[: 1 + n_deps]
    out = np.empty(head + tuple(table.shape[1 + n_deps + i] for i in own))
    for cell in np.ndindex(*out.shape[1 + n_deps :]):
        level = dict(zip(own, cell))
        full = tuple(level[j] for j in ties)
        out[(Ellipsis, *cell)] = table[(slice(None),) * (1 + n_deps) + full]
    return out


@pytest.mark.parametrize(
    "n, strategy",
    [(n, "sequential_frontdoor") for n in (1, 2, 3, 4)] + [(2, "mediator_intervention")],
)
def test_a_tied_conditional_is_the_diagonal_of_the_dense_one(n, strategy):
    # Tied conditioners share one axis of the ancestral conditional: it must
    # be the dense conditional's diagonal over them, NaN in the same cells
    # (model 3 has a zero CPT entry).
    swig = to_swig(figure2(n))
    d = identify(swig, dose_estimand(swig, ("Y",)), strategy)
    cpts = _models_with_a_deterministic_row(swig, n=5)
    tied = _tied_terms(swig, d)
    assert tied
    nan_seen = False
    for chain_swig, t in tied:
        [batch] = model_batches(chain_swig, cpts)
        deps, conds, ties = t.dep_names(), t.cond_names(), tie_pattern(t)
        got = ancestral_conditional(batch, t.regime, deps, conds, ties)
        dense = joint(batch, t.regime).conditional(deps, conds)
        want = _diagonal_cells(dense, len(deps), ties)
        assert got.shape == want.shape, t
        assert np.array_equal(np.isnan(got), np.isnan(want)), t
        assert np.max(np.abs(np.nan_to_num(got) - np.nan_to_num(want)), initial=0.0) <= 1e-12
        nan_seen |= bool(np.isnan(got).any())
    assert nan_seen


def _cells_of(source, n_deps, finer, ties):
    """The cells of a batch table over deps and the conditioners the tie
    pattern finer ties to themselves, at which each conditioner takes the
    level of the one ties ties it to: a table over deps and the
    conditioners ties ties to themselves."""
    own = [i for i, j in enumerate(ties) if i == j]
    axes = [i for i, j in enumerate(finer) if i == j]
    head = source.shape[: 1 + n_deps]
    out = np.empty(head + tuple(source.shape[1 + n_deps + axes.index(i)] for i in own))
    for cell in np.ndindex(*out.shape[1 + n_deps :]):
        level = dict(zip(own, cell))
        out[(Ellipsis, *cell)] = source[(Ellipsis, *(level[ties[i]] for i in axes))]
    return out


# Y given Do1, D2, M1 and D1 on fig2 n=2, under a tie pattern a live table's
# finer pattern derives: three conditioners tied, from the untied table and
# from two partly tied ones, and two tied.
DERIVED = [
    ((0, 1, 2, 3), (0, 1, 1, 1)),
    ((0, 1, 1, 3), (0, 1, 1, 1)),
    ((0, 1, 2, 2), (0, 1, 1, 1)),
    ((0, 1, 2, 3), (0, 0, 2, 3)),
]


@pytest.mark.parametrize("regime", [Q0, Q1])
@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("finer, ties", DERIVED)
def test_a_derived_conditional_equals_a_contracted_one(fig2_n2, regime, deterministic, finer, ties):
    # With a table under a finer tie pattern live, a tied conditional is
    # read as its diagonal: each cell is the live table's cell, NaN where it
    # is NaN, and it matches the conditional contracted on a batch with
    # nothing live, NaN in the same cells (model 3 of the deterministic
    # models never has M1=1 when Do1=0; under q0 Do1 copies D1).
    deps, conds = ("Y",), ("Do1", "D2", "M1", "D1")
    if deterministic:
        cpts = _models_with_a_deterministic_row(fig2_n2, n=5)
    else:
        cpts = seeded_cpts(fig2_n2, 5, seed=8)
    [batch] = model_batches(fig2_n2, cpts)
    source = ancestral_conditional(batch, regime, deps, conds, finer)
    got = ancestral_conditional(batch, regime, deps, conds, ties)
    assert batch._counts.conditionals_derived == 1 and batch._counts.conditionals == 2
    assert got.flags.c_contiguous and not got.flags.writeable
    assert not np.shares_memory(got, source)
    assert np.array_equal(got, _cells_of(source, 1, finer, ties), equal_nan=True)
    [fresh] = model_batches(fig2_n2, cpts)
    want = ancestral_conditional(fresh, regime, deps, conds, ties)
    assert fresh._counts.conditionals_derived == 0
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.max(np.abs(np.nan_to_num(got) - np.nan_to_num(want)), initial=0.0) <= 1e-12
    assert np.isnan(got).any() == (deterministic or regime == Q0)


def test_a_tied_conditional_with_no_finer_table_live_is_contracted(fig2_n2, monkeypatch):
    # A table under a coarser pattern, or over other dependents,
    # conditioners or regime, derives nothing: each is contracted.
    deps, conds = ("Y",), ("Do1", "D2", "M1", "D1")
    [batch] = model_batches(fig2_n2, seeded_cpts(fig2_n2, 3))
    runs = []
    run = oracle._run
    monkeypatch.setattr(oracle, "_run", lambda *args: runs.append(args) or run(*args))
    ancestral_conditional(batch, Q1, deps, conds, (0, 1, 1, 1))
    ancestral_conditional(batch, Q1, deps, conds, (0, 1, 2, 2))
    ancestral_conditional(batch, Q0, deps, conds, (0, 1, 1, 1))
    ancestral_conditional(batch, Q1, ("M2",), conds, (0, 1, 1, 1))
    ancestral_conditional(batch, Q1, deps, ("Do1", "D2", "M1", "L"), (0, 1, 1, 1))
    assert len(runs) == 5 and batch._counts.conditionals_derived == 0
    # dropped and asked for again, the first is read from the live
    # (0, 1, 2, 2) table, which refines its pattern
    batch._conditionals.pop((Q1, deps, conds, (0, 1, 1, 1)))
    ancestral_conditional(batch, Q1, deps, conds, (0, 1, 1, 1))
    assert len(runs) == 5 and batch._counts.conditionals_derived == 1


@st.composite
def tied_terms(draw):
    """A small_search_cases graph (2-3 levels, up to two hidden variables),
    a regime and a term over 1-2 dependents and 2-4 conditioners (fewer if
    the graph is smaller).  A dependent is bare or takes a fresh symbol; a
    conditioner is pinned to a level, takes a fresh symbol, or reuses the
    symbol of an earlier entry of as many levels, so random tie patterns
    arise among the conditioners."""
    swig, _, _, _ = draw(small_search_cases(levels=(2, 3), hidden=2))
    regime = Regime.prefix(draw(st.integers(0, len(swig.pairs))))
    order = draw(st.permutations(swig.names))
    n_deps = draw(st.integers(1, min(2, len(order) - 1)))
    n_conds = draw(st.integers(min(2, len(order) - n_deps), min(4, len(order) - n_deps)))
    used: list[tuple[Sym, int]] = []
    entries = []
    for i, name in enumerate(order[: n_deps + n_conds]):
        k = swig.var(name).cardinality
        same = [s for s, c in used if c == k]
        kinds = ["bare", "fresh"] if i < n_deps else ["pin", "fresh", "tie", "tie", "tie"]
        kind = draw(st.sampled_from(kinds))
        if kind == "bare":
            ref = None
        elif kind == "pin":
            ref = Lit(draw(st.integers(0, k - 1)))
        elif kind == "tie" and same:
            ref = draw(st.sampled_from(same))
        else:
            ref = Sym(f"s{i}")
            used.append((ref, k))
        entries.append((name, ref))
    t = Term(regime, tuple(entries[:n_deps]), tuple(entries[n_deps:]))
    return swig, t, draw(st.integers(0, 2**16))


@given(tied_terms())
@settings(max_examples=150, deadline=None)
def test_a_term_with_tied_conditioners_matches_the_dense_joint_cell_by_cell(case):
    swig, t, seed = case
    [batch] = model_batches(swig, _models_with_a_certain_row(swig, seed))
    got = eval_expr(batch, t)
    dense = joint(batch, t.regime).conditional(t.dep_names(), t.cond_names())
    sizes = {}
    for name, ref in (*t.dependents, *t.conditioners):
        if not isinstance(ref, Lit):
            sizes[name if ref is None else ref.name] = swig.var(name).cardinality
    assert set(got.labels) == set(sizes)
    want = np.empty((3,) + tuple(sizes[l] for l in got.labels))
    for cell in itertools.product(*(range(sizes[l]) for l in got.labels)):
        at = dict(zip(got.labels, cell))
        full = tuple(_level(ref, name, at) for name, ref in (*t.dependents, *t.conditioners))
        want[(slice(None), *cell)] = dense[(slice(None), *full)]
    assert np.array_equal(np.isnan(got.values), np.isnan(want))
    assert np.array_equal(got.skipped, np.isnan(want).reshape(3, -1).any(axis=1))
    diff = np.abs(np.nan_to_num(got.values) - np.nan_to_num(want))
    assert np.max(diff, initial=0.0) <= 1e-12


def _fig1_with_l_levels(k):
    base = figure1()
    variables = tuple(
        dataclasses.replace(v, cardinality=k) if v.name == "L" else v for v in base.variables
    )
    return to_swig(dataclasses.replace(base, variables=variables))


def test_tied_symbols_of_different_cardinality_are_refused_before_any_table(monkeypatch):
    # L has 3 levels and D1 2, so they cannot share the symbol a: the term
    # is refused with ExprError before a conditional is built (numpy's
    # ValueError came from a table built first).
    swig = _fig1_with_l_levels(3)
    model = random_model(swig, seed=4)
    built = []
    monkeypatch.setattr(oracle, "_run", lambda *args: built.append(args))
    for text in ("q0(Y1 | L=a, D1=a)", "q0(Y1 | D1=a, L=a)", "q0(Y1 | D1=a, Do1=a, L=a)"):
        with pytest.raises(ExprError, match="symbol 'a' used for variables of different"):
            eval_expr(model, parse_expr(text))
    assert built == [] and model._conditionals == {}


@pytest.mark.parametrize(
    "formula",
    ["sum{l} q0(Y1 | L=l, D1=d1, Do1=d1) * q0(L=l)", "q0(Y1 | L=a, D1=a)"],
)
def test_plugin_estimate_of_tied_conditioners_counts_the_csv(fig1, formula):
    # Tied conditioners read the diagonal of the smoothed table: add-one
    # counts over the rows where the tied columns agree.
    data = sample(random_model(fig1, seed=9), Q0, 400, seed=9)
    with io.StringIO(newline="") as fh:
        data.write_csv(fh)
        text = fh.getvalue()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    header, rows = rows[0], [dict(zip(rows[0], map(int, r))) for r in rows[1:]]

    def count(**cell):
        return sum(all(r[k] == v for k, v in cell.items()) for r in rows)

    got = plugin_estimate(fig1, parse_expr(formula), Dataset.read_csv(io.StringIO(text)))
    for cell in itertools.product(range(2), repeat=len(got.labels)):
        at = dict(zip(got.labels, cell))
        y = at["Y1"]
        if "l" in formula:
            d = at["d1"]
            want = sum(
                (count(Y1=y, L=l, D1=d, Do1=d) + 1) / (count(L=l, D1=d, Do1=d) + 2)
                * (count(L=l) + 1) / (len(rows) + 2)
                for l in range(2)
            )
        else:
            a = at["a"]
            want = (count(Y1=y, L=a, D1=a) + 1) / (count(L=a, D1=a) + 2)
        assert abs(got.values[cell] - want) <= 1e-12, (formula, at)


GOLDEN_GRAPHS = {"fig1": figure1, "fig1_ablated": ablated_figure1}


@pytest.mark.parametrize("name", sorted(IDENTIFY))
def test_incremental_contraction_matches_fresh_batches_on_goldens(name):
    graph = IDENTIFY[name][0]
    base = GOLDEN_GRAPHS[graph]() if graph in GOLDEN_GRAPHS else figure2(int(graph[len("fig2_n"):]))
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
        d = Derivation.from_json(json.load(fh))
    _assert_incremental_matches_fresh(to_swig(base), d)


@functools.lru_cache(maxsize=None)
def _order_case(strategy):
    """fig2 n=2 derivation's chains, their models and each expression's
    table from a fresh batch."""
    swig = to_swig(figure2(2))
    d = identify(swig, dose_estimand(swig, ("Y",)), strategy)
    cpts = _models_with_a_deterministic_row(swig, n=5)
    chains = [
        (chain_swig, exprs, [_fresh(chain_swig, cpts, e) for e in exprs])
        for chain_swig, exprs in _chains(swig, d)
    ]
    return cpts, chains


def _reordered(e, draw):
    """e with the factors of its product (under a sum, if any) in an order
    drawn by hypothesis."""
    body = e.body if isinstance(e, Sum) else e
    if not isinstance(body, Product):
        return e
    body = Product(tuple(draw(st.permutations(body.factors))))
    return Sum(e.binders, body) if isinstance(e, Sum) else body


@given(
    strategy=st.sampled_from(["sequential_frontdoor", "mediator_intervention"]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_evaluation_order_and_factor_order_do_not_change_tables(strategy, data):
    # A partial product keyed by factor position, or by what the expression
    # before held, would give some expression another one's table here.
    cpts, chains = _order_case(strategy)
    for chain_swig, exprs, fresh in chains:
        [batch] = model_batches(chain_swig, cpts)
        for i in data.draw(st.permutations(range(len(exprs)))):
            _assert_same_table(eval_expr(batch, _reordered(exprs[i], data.draw)), fresh[i])


@st.composite
def draw_dags(draw):
    """A base DAG of 2-7 variables of 1-9 levels, one of them of 8 or 9,
    declared in a random order of their names (so sorted parents differ
    from declaration order), each with at most two earlier parents."""
    levels = [draw(st.integers(1, 9)) for _ in range(draw(st.integers(1, 6)))]
    levels = draw(st.permutations([*levels, draw(st.integers(8, 9))]))
    names = draw(st.permutations("ABCDEFG"))[: len(levels)]
    edges = set()
    for j in range(1, len(names)):
        for i in draw(st.lists(st.integers(0, j - 1), max_size=2, unique=True)):
            edges.add((names[i], names[j]))
    variables = [Variable(n, time=t, cardinality=k) for t, (n, k) in enumerate(zip(names, levels))]
    return BaseDag(variables, edges)


@given(draw_dags(), st.integers(0, 2**32), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_the_stacked_draw_is_each_models_dirichlet_draw_bit_for_bit(base, seed, n):
    # verify's models are drawn as one stacked batch; model i must be what
    # default_rng((seed, i)).dirichlet gives variable by variable, so that
    # reports and goldens keep their numbers.  A numpy release that changes
    # dirichlet's stream fails this test.
    cpts = random_cpt_batch(base, [np.random.default_rng((seed, i)) for i in range(n)])
    graph = Graph(base.names, base.edges)
    assert list(cpts) == list(base.names)
    for i in range(n):
        rng = np.random.default_rng((seed, i))
        alone = random_base_cpts(base, np.random.default_rng((seed, i)))
        for v in base.variables:
            parents = tuple(sorted(graph.parents(v.name)))
            shape = tuple(base.var(p).cardinality for p in parents)
            k = v.cardinality
            want = rng.dirichlet([1.0] * k, size=shape) if k > 1 else np.ones(shape + (1,))
            assert cpts[v.name][0] == alone[v.name][0] == parents
            for got in (cpts[v.name][1][i], alone[v.name][1]):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), v.name


def test_cpt_rows_must_sum_to_one_within_1e_12_absolute(fig1):
    cpts = random_base_cpts(fig1.base, np.random.default_rng(5))
    parents, table = cpts["L"]
    with pytest.raises(SwigIdentError, match="CPT rows for 'L' do not sum to 1"):
        model_from_base_cpts(fig1, {**cpts, "L": (parents, table * (1 - 9e-6))})
    # what loads today still loads: random models, their JSON round trip,
    # and CPTs mixed with a share of the uniform law
    for seed in range(20):
        for swig in (fig1, to_swig(figure2(3))):
            model = random_model(swig, seed=seed)
            model_from_json(json.loads(json.dumps(model_to_json(model))))
            mixed = {
                name: (parents, 0.8 * t + 0.2 / t.shape[-1])
                for name, (parents, t) in random_base_cpts(
                    swig.base, np.random.default_rng(seed)
                ).items()
            }
            model_from_base_cpts(swig, mixed)


def test_a_factor_repeated_in_a_product_counts_twice(fig1):
    # The partial products of the first expression must not stand in for
    # those of the second, which holds q0(L=l) twice.
    cpts = random_cpt_batch(fig1.base, [np.random.default_rng(8)])
    once = parse_expr("sum{l} q0(Y1 | L=l) * q0(L=l)")
    twice = parse_expr("sum{l} q0(Y1 | L=l) * q0(L=l) * q0(L=l)")
    [batch] = model_batches(fig1, cpts)
    eval_expr(batch, once)
    got = eval_expr(batch, twice)
    _assert_same_table(got, _fresh(fig1, cpts, twice))
    y_given_l = _fresh(fig1, cpts, parse_expr("q0(Y1 | L=l)")).aligned(("Y1", "l"))
    p_l = _fresh(fig1, cpts, parse_expr("q0(L=l)")).aligned(("Y1", "l"))
    want = (y_given_l * p_l**2).sum(axis=-1)
    np.testing.assert_allclose(got.aligned(("Y1",)), want, rtol=0, atol=1e-12)


@pytest.fixture()
def fig1_batch(fig1):
    """Three models of fig1 as one batch."""
    [batch] = model_batches(fig1, seeded_cpts(fig1, 3))
    return batch


ONE_MODEL = "takes one model, not a batch of 3"


def test_query_refuses_a_batch(fig1_batch):
    # It returned a 3x2 array that read the batch axis as Y1's.
    with pytest.raises(SwigIdentError, match=f"^query {ONE_MODEL}$"):
        query(fig1_batch, Q1, ["Y1"], {"Do1": 1})


def test_brute_force_ci_refuses_a_batch(fig1, fig1_batch):
    # It answered False for an independence that holds in every model.
    q = CiQuery(Q0, {"Y1"}, {"D1"}, {"L", "M1"})
    assert all(brute_force_ci(random_model(fig1, seed), q) for seed in range(3))
    with pytest.raises(SwigIdentError, match=f"^brute_force_ci {ONE_MODEL}$"):
        brute_force_ci(fig1_batch, q)


def test_sample_refuses_a_batch(fig1_batch):
    # It raised numpy's ValueError from ravel_multi_index.
    with pytest.raises(SwigIdentError, match=f"^sample {ONE_MODEL}$"):
        sample(fig1_batch, Q0, 5)


def test_save_model_refuses_a_batch(fig1_batch, tmp_path):
    # It wrote a file that load_model refused: a flat table of 12 entries
    # read as a (2, 2) CPT.
    path = tmp_path / "batch.json"
    with pytest.raises(SwigIdentError, match=f"^model_to_json {ONE_MODEL}$"):
        save_model(fig1_batch, path)
    assert not path.exists()


def test_a_single_model_runs_the_programs_planned_for_a_batch():
    # A single model is a batch of one: its conditionals and expressions
    # contract through the programs _plan compiled for the batch, so no
    # shape is searched again (single models once planned their
    # conditionals with no model axis, each shape a second time).
    swig = to_swig(figure2(3))
    d = identify(swig, dose_estimand(swig, ("Y",)), "sequential_frontdoor")
    exprs = [d.estimand, *(step.output for step in d.steps)]
    [batch] = model_batches(swig, seeded_cpts(swig, 4))
    for e in exprs:
        eval_expr(batch, e)
    misses = _plan.cache_info().misses
    single = random_model(swig, seed=0)
    for e in exprs:
        eval_expr(single, e)
    assert single._counts.conditionals == batch._counts.conditionals > 0
    assert _plan.cache_info().misses == misses
