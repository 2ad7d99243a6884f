"""Graph declaration, validation, node splitting, and regimes."""

import pytest

from swigident import (
    BaseDag,
    Lit,
    Regime,
    Role,
    Swig,
    SwigIdentError,
    Sym,
    Term,
    Variable,
    ablated_figure1,
    figure1,
    figure2,
    figure3,
    to_swig,
    validate,
    validate_estimand,
)
from swigident.model import NAME, intervention_name

from conftest import dose_estimand


def _v(name, time, role=Role.OTHER, observed=True, cardinality=2):
    return Variable(name, time, role, observed, cardinality)


def test_regime_basics():
    q0 = Regime.observational()
    assert q0.is_observational and q0.is_prefix
    assert str(q0) == "q0"
    q2 = Regime.prefix(2)
    assert q2.active == frozenset({1, 2})
    assert str(q2) == "q2"
    assert q2.without(2) == Regime.prefix(1)
    assert q2.truncated(1) == Regime.prefix(1)
    odd = Regime(frozenset({2}))
    assert not odd.is_prefix
    assert str(odd) == "q{2}"


def test_regime_rejects_nonpositive_index():
    with pytest.raises(SwigIdentError):
        Regime(frozenset({0}))


def test_intervention_name():
    assert intervention_name("D1") == "Do1"
    assert intervention_name("M") == "Mo"


def test_figure1_split_structure(fig1):
    assert set(fig1.names) == {"L", "D1", "Do1", "M1", "Y1"}
    assert fig1.intervention_of == {"D1": "Do1"}
    assert fig1.target_of == {"Do1": "D1"}
    assert fig1.n_interventions == 1
    # Children of the target read the intervention node; the copy edge ties
    # the pair together in the observed data.
    assert fig1.graph.edges == frozenset(
        {("L", "D1"), ("L", "Y1"), ("D1", "Do1"), ("Do1", "M1"), ("M1", "Y1")}
    )
    do1 = fig1.var("Do1")
    assert do1.role is Role.INTERVENTION
    assert do1.time == fig1.var("D1").time
    assert do1.observed


def test_figure3_splits_mediators(fig3_n2):
    assert fig3_n2.intervention_of == {"M1": "Mo1", "M2": "Mo2"}
    edges = fig3_n2.graph.edges
    # M1 keeps its parents; its children read the intervention node.
    assert {("M1", "Mo1"), ("Mo1", "D2"), ("Mo1", "M2"), ("Mo2", "Y"), ("D1", "M1")} <= edges
    assert ("M1", "M2") not in edges and ("M1", "Y") not in edges


def test_split_without_targets_is_identity():
    base = BaseDag(
        variables=(_v("A", 0), _v("B", 1)),
        edges=frozenset({("A", "B")}),
        targets=(),
        name="plain",
    )
    swig = to_swig(base)
    assert swig.names == base.names
    assert swig.graph.edges == base.edges
    assert swig.n_interventions == 0


def test_split_rejects_name_collision():
    base = BaseDag(
        variables=(_v("D1", 0), _v("Do1", 1)),
        edges=frozenset({("D1", "Do1")}),
        targets=("D1",),
        name="clash",
    )
    with pytest.raises(SwigIdentError):
        to_swig(base)


def test_regime_graph_severs_copy_edges(fig1, fig2_n2):
    g0 = fig1.regime_graph(Regime.observational())
    g1 = fig1.regime_graph(Regime.prefix(1))
    assert ("D1", "Do1") in g0.edges
    assert ("D1", "Do1") not in g1.edges
    assert g0.edges - g1.edges == {("D1", "Do1")}

    n_edges = len(fig2_n2.regime_graph(Regime.observational()).edges)
    for active in (frozenset(), {1}, {2}, {1, 2}):
        s = Regime(frozenset(active))
        assert len(fig2_n2.regime_graph(s).edges) == n_edges - len(active)


def test_regime_graph_checks_index(fig1):
    with pytest.raises(SwigIdentError):
        fig1.regime_graph(Regime.prefix(2))


def test_observed_excludes_hidden(fig1_hidden, fig1):
    assert "L" not in fig1_hidden.observed
    assert "L" in fig1.observed
    assert "Do1" in fig1.observed


def test_validate_clean_figures():
    for base in (figure1(), ablated_figure1(), figure2(3), figure3(2)):
        assert validate(base) == []


def test_validate_diagnostics():
    dup = BaseDag((_v("A", 0), _v("A", 1)), frozenset(), (), "dup")
    assert {x.rule for x in validate(dup)} == {"duplicate-name"}

    cyc = BaseDag(
        (_v("A", 0), _v("B", 0)),
        frozenset({("A", "B"), ("B", "A")}),
        (),
        "cyc",
    )
    assert "cycle" in {x.rule for x in validate(cyc)}

    back = BaseDag(
        (_v("A", 1), _v("B", 0)),
        frozenset({("A", "B")}),
        (),
        "back",
    )
    assert "edge-time" in {x.rule for x in validate(back)}

    missing = BaseDag((_v("A", 0),), frozenset({("A", "Z")}), ("Q",), "missing")
    kinds = {x.rule for x in validate(missing)}
    assert {"edge-endpoint", "target"} <= kinds

    swapped = BaseDag(
        (_v("A", 0), _v("B", 1)),
        frozenset({("A", "B")}),
        ("B", "A"),
        "swapped",
    )
    assert "target-order" in {x.rule for x in validate(swapped)}

    manual = BaseDag(
        (Variable("X", 0, Role.INTERVENTION, True, 2),),
        frozenset(),
        (),
        "manual",
    )
    assert "role" in {x.rule for x in validate(manual)}

    # emit_graph would write "graph my graph {", which parse_graph refuses
    spaced = BaseDag((_v("A", 0),), frozenset(), (), "my graph")
    assert [x.message for x in validate(spaced)] == [
        f"graph name 'my graph' is not a name ({NAME})"
    ]
    with pytest.raises(SwigIdentError, match="graph name 'my graph' is not a name"):
        to_swig(spaced)


def test_to_swig_rejects_invalid():
    cyc = BaseDag(
        (_v("A", 0), _v("B", 0)),
        frozenset({("A", "B"), ("B", "A")}),
        (),
        "cyc",
    )
    with pytest.raises(SwigIdentError):
        to_swig(cyc)


def test_estimand_validation(fig1):
    est = dose_estimand(fig1, ("Y1",))
    validate_estimand(fig1, est)
    with pytest.raises(SwigIdentError):
        Term.of(Regime.prefix(1), ())
    with pytest.raises(SwigIdentError):
        Term.of(Regime.prefix(1), ("Y1",), [("Y1", Lit(0))])
    with pytest.raises(SwigIdentError):
        validate_estimand(fig1, Term.of(Regime.prefix(2), ("Y1",)))
    with pytest.raises(SwigIdentError):
        validate_estimand(fig1, Term.of(Regime.prefix(1), ("Nope",)))


def test_estimand_of_accepts_pinned_dependents():
    est = Term.of(Regime.prefix(1), [("Y1", Lit(1))], [("Do1", Sym("d1"))])
    assert est.dependents == (("Y1", Lit(1)),)
