"""d-separation on regime graphs and truncation of later interventions."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swigident import (
    CiQuery,
    Graph,
    Regime,
    Sym,
    SwigIdentError,
    Term,
    brute_force_ci,
    d_separated,
    drop_later_obstruction,
    figure1,
    figure2,
    random_model,
    to_swig,
)
from swigident.graphs import d_separated_nodes

from conftest import dose_estimand


def _g(nodes, edges):
    return Graph(tuple(nodes), frozenset(edges))


def test_chain_fork_collider():
    chain = _g("ABC", {("A", "B"), ("B", "C")})
    assert not d_separated_nodes(chain, {"A"}, {"C"})
    assert d_separated_nodes(chain, {"A"}, {"C"}, {"B"})

    fork = _g("ABC", {("B", "A"), ("B", "C")})
    assert not d_separated_nodes(fork, {"A"}, {"C"})
    assert d_separated_nodes(fork, {"A"}, {"C"}, {"B"})

    collider = _g("ABC", {("A", "B"), ("C", "B")})
    assert d_separated_nodes(collider, {"A"}, {"C"})
    assert not d_separated_nodes(collider, {"A"}, {"C"}, {"B"})


def test_collider_descendant_opens_path():
    g = _g("ABCD", {("A", "B"), ("C", "B"), ("B", "D")})
    assert d_separated_nodes(g, {"A"}, {"C"})
    assert not d_separated_nodes(g, {"A"}, {"C"}, {"D"})


def test_query_sets_must_be_disjoint():
    g = _g("AB", {("A", "B")})
    with pytest.raises(SwigIdentError):
        d_separated_nodes(g, {"A"}, {"B"}, {"A"})
    with pytest.raises(SwigIdentError):
        d_separated_nodes(g, {"A"}, {"Z"})
    assert d_separated_nodes(g, set(), {"B"})


def test_coupling_monotone_in_regime(fig1, fig2_n2):
    pair = CiQuery(Regime.observational(), {"D1"}, {"Do1"})
    assert not d_separated(fig1, pair)
    assert d_separated(fig1, CiQuery(Regime.prefix(1), {"D1"}, {"Do1"}))
    for t in (1, 2):
        tgt, do = f"D{t}", f"Do{t}"
        assert not d_separated(fig2_n2, CiQuery(Regime.observational(), {tgt}, {do}))
        for active in ({t}, {1, 2}):
            q = CiQuery(Regime(frozenset(active)), {tgt}, {do})
            assert d_separated(fig2_n2, q)


def test_collider_exclusion_pair(fig1):
    q1 = Regime.prefix(1)
    assert d_separated(fig1, CiQuery(q1, {"M1"}, {"D1"}, {"Do1"}))
    assert d_separated(fig1, CiQuery(q1, {"D1"}, {"M1", "Do1"}))
    # Conditioning on the outcome collider reopens the path.
    assert not d_separated(fig1, CiQuery(q1, {"M1"}, {"D1"}, {"Do1", "Y1"}))


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    names = tuple(f"V{i}" for i in range(n))
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.add((names[i], names[j]))
    return Graph(names, frozenset(edges))


@st.composite
def dag_and_query(draw):
    g = draw(random_dags())
    pool = list(g.nodes)
    idx = draw(st.permutations(range(len(pool))))
    nx_ = draw(st.integers(1, 2))
    ny = draw(st.integers(1, 2))
    nz = draw(st.integers(0, max(0, min(3, len(pool) - nx_ - ny))))
    x = frozenset(pool[i] for i in idx[:nx_])
    y = frozenset(pool[i] for i in idx[nx_ : nx_ + ny])
    z = frozenset(pool[i] for i in idx[nx_ + ny : nx_ + ny + nz])
    return g, x, y, z


@given(dag_and_query())
@settings(max_examples=300, deadline=None)
def test_dsep_matches_networkx(case):
    g, x, y, z = case
    dg = nx.DiGraph()
    dg.add_nodes_from(g.nodes)
    dg.add_edges_from(g.edges)
    assert d_separated_nodes(g, x, y, z) == nx.is_d_separator(dg, set(x), set(y), set(z))


@given(dag_and_query())
@settings(max_examples=100, deadline=None)
def test_dsep_symmetry(case):
    g, x, y, z = case
    assert d_separated_nodes(g, x, y, z) == d_separated_nodes(g, y, x, z)


def test_dsep_implies_numeric_independence(fig1):
    rng = np.random.default_rng(11)
    names = list(fig1.names)
    checked = 0
    for _ in range(80):
        perm = list(rng.permutation(names))
        x, y = frozenset(perm[:1]), frozenset(perm[1:2])
        z = frozenset(perm[2 : 2 + int(rng.integers(0, 3))])
        s = Regime(frozenset({1}) if rng.random() < 0.5 else frozenset())
        q = CiQuery(s, x, y, z)
        if not d_separated(fig1, q):
            continue
        for seed in range(5):
            assert brute_force_ci(random_model(fig1, seed=seed), q)
        checked += 1
    assert checked > 0


def test_generic_dependence_with_direct_edge(fig1):
    q = CiQuery(Regime.observational(), {"M1"}, {"D1"})
    assert not d_separated(fig1, q)
    assert not brute_force_ci(random_model(fig1, seed=3), q)


def test_drop_later_allows_mediator_history(fig2_n2):
    est = dose_estimand(fig2_n2, ("M1",))
    assert drop_later_obstruction(fig2_n2, est, 1)[0] is None
    # Dropping after the horizon asks for nothing.
    assert drop_later_obstruction(fig2_n2, est, 2)[0] is None


def test_drop_later_returns_the_checks_it_made(fig2_n2):
    est = dose_estimand(fig2_n2, ("M1",))
    passed = CiQuery(Regime.prefix(2), {"M1"}, {"Do2"}, {"Do1"})
    assert drop_later_obstruction(fig2_n2, est, 1) == (None, (passed,))
    # A blocked walk still reports the checks that passed before the block.
    obstruction, checks = drop_later_obstruction(fig2_n2, est, 0)
    assert "not d-separated from Do1" in obstruction[0]
    assert checks == (passed,)


def test_drop_later_blocks_conditioned_outcome(fig2_n2):
    est = dose_estimand(fig2_n2, ("Y",))
    reason, query = drop_later_obstruction(fig2_n2, est, 1)[0]
    assert "not d-separated from Do2" in reason
    assert isinstance(query, CiQuery)
    assert drop_later_obstruction(fig2_n2, est, 0)[0] is not None


def test_drop_later_blocks_descendant_outcome(fig2_n2):
    # Do2 active but not conditioned on: the outcome still descends from it.
    est = Term.of(Regime.prefix(2), ("Y",), [("Do1", Sym("d1"))])
    reason, _ = drop_later_obstruction(fig2_n2, est, 1)[0]
    assert "Y descend from Do2" in reason


def test_drop_later_blocks_dependent_intervention(fig2_n2):
    est = Term.of(Regime.prefix(2), ("Do2",), [("Do1", Sym("d1"))])
    reason, _ = drop_later_obstruction(fig2_n2, est, 1)[0]
    assert "dependent" in reason


def test_drop_later_counterexample_is_real(fig2_n2):
    """The blocked truncation would actually change the number: Y depends on
    Do2 in q2."""
    est = dose_estimand(fig2_n2, ("Y",))
    _, query = drop_later_obstruction(fig2_n2, est, 1)[0]
    model = random_model(fig2_n2, seed=5)
    assert not brute_force_ci(model, CiQuery(query.regime, {"Y"}, {"Do2"}, frozenset()))


# ---------------------------------------------------------------------------
# the per-Swig caches


def _fresh_regime_graph(swig, regime):
    severed = {swig.pairs[j - 1] for j in regime.active}
    return Graph(swig.names, swig.edges - severed)


def _regimes(swig):
    n = swig.n_interventions
    return [
        Regime(frozenset(j for j in range(1, n + 1) if mask >> (j - 1) & 1))
        for mask in range(2**n)
    ]


# Fresh Swigs, whose caches start empty (the conftest ones are shared).
FRESH = {
    "fig1": lambda: to_swig(figure1()),
    "fig1_hidden": lambda: to_swig(figure1(l_observed=False)),
    "fig2_n2": lambda: to_swig(figure2(2)),
}


@pytest.mark.parametrize("name", FRESH)
def test_regime_graph_cache_matches_a_fresh_graph(name):
    swig = FRESH[name]()
    for regime in _regimes(swig):
        first = swig.regime_graph(regime)
        assert first == _fresh_regime_graph(swig, regime)
        assert swig.regime_graph(Regime(set(regime.active))) is first
    assert len(swig.cache.regime_graphs) == len(_regimes(swig))


@pytest.mark.parametrize("name", FRESH)
def test_cached_d_separation_matches_a_fresh_graph(name):
    swig = FRESH[name]()
    rng = np.random.default_rng(7)
    regimes = _regimes(swig)
    names = list(swig.names)
    queries = []
    for _ in range(300):
        regime = regimes[rng.integers(len(regimes))]
        order = rng.permutation(len(names))
        nx_, ny = rng.integers(1, 3, size=2)
        nz = rng.integers(0, min(3, len(names) - nx_ - ny) + 1)
        pick = [names[i] for i in order]
        x, y = pick[:nx_], pick[nx_ : nx_ + ny]
        z = pick[nx_ + ny : nx_ + ny + nz]
        queries.append(CiQuery(regime, frozenset(x), frozenset(y), frozenset(z)))
    distinct = len(set(queries))
    assert distinct > 100
    answers = {}
    for q in queries:  # first calls, and repeats of earlier queries
        want = d_separated_nodes(_fresh_regime_graph(swig, q.regime), q.x, q.y, q.z)
        assert d_separated(swig, q) == want
        answers[q] = want
    for q in queries:  # every call a repeat
        assert d_separated(swig, CiQuery(q.regime, set(q.x), set(q.y), set(q.z))) == answers[q]
    assert len(swig.cache.d_separated) == distinct
    assert swig.cache.d_separated_hits == 2 * len(queries) - distinct
    assert any(answers.values()) and not all(answers.values())


def test_cached_drop_later_matches_an_uncached_walk():
    swig = to_swig(figure2(2))
    doses = dose_estimand(swig, ("Y",)).conditioners
    estimands = [
        dose_estimand(swig, deps)
        for deps in (("Y",), ("M1",), ("M2",), ("D1",), ("D2",), ("M1", "M2"), ("L",))
    ]
    estimands += [
        Term.of(Regime.prefix(2), deps, doses + (("M1", Sym("m1")),))
        for deps in (("Y",), ("M2",))
    ]
    cases = [(est, t) for est in estimands for t in (0, 1)]
    for est, t in cases + cases:
        assert drop_later_obstruction(swig, est, t) == drop_later_obstruction(
            to_swig(figure2(2)), est, t
        )
    # the walk reads a term's names only, so pinned values share an entry
    pinned = Term.of(Regime.prefix(2), [("Y", Sym("y"))], doses)
    assert drop_later_obstruction(swig, pinned, 0) == drop_later_obstruction(swig, cases[0][0], 0)
    assert len(swig.cache.drop_later) == len(cases)
