"""Graph documents, query strings, and DOT output."""

import json
from pathlib import Path

import pytest

from swigident import (
    BaseDag,
    CiQuery,
    GraphValidationError,
    Lit,
    ParseError,
    Regime,
    Role,
    SwigIdentError,
    Sym,
    Term,
    Variable,
    ablated_figure1,
    emit_graph,
    figure1,
    figure2,
    figure3,
    parse_ci_query,
    parse_estimand,
    parse_expr,
    parse_graph,
    to_dot,
    to_swig,
    validate,
    validate_estimand,
)
from swigident.cli import main
from swigident.dsl import _TOKEN, _tokenize

GOLDEN = Path(__file__).resolve().parent / "golden"

FIXTURE_BUILDERS = {
    "fig1": figure1,
    "fig1_ablated": ablated_figure1,
    "fig2_n2": lambda: figure2(2),
    "fig3_n2": lambda: figure3(2),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_packaged_fixtures_match_builders(name, capsys):
    assert main(["fixture", name]) == 0
    text = capsys.readouterr().out
    base = FIXTURE_BUILDERS[name]()
    assert text == emit_graph(base)
    assert parse_graph(text) == base


def test_emit_parse_round_trip_with_attributes():
    base = figure1(l_observed=False)
    text = emit_graph(base)
    assert "unobserved" in text
    assert parse_graph(text) == base

    wide = parse_graph(
        "graph wide {\n"
        "  var A @0 levels=4;\n"
        "  var B @1 role=target;\n"
        "  edge A -> B;\n"
        "  target B order=1;\n"
        "}\n"
    )
    assert wide.variables[0].cardinality == 4
    assert parse_graph(emit_graph(wide)) == wide


@pytest.mark.parametrize(
    "base", [*(figure2(n) for n in range(1, 8)), figure3(3)], ids=lambda base: base.name
)
def test_every_figure_round_trips(base):
    # The packaged fixtures are checked above; these are the other sizes.
    assert parse_graph(emit_graph(base)) == base


PRIMED_TARGET = (
    "graph primed {\n"
    "  var D1' @0 role=target;\n"
    "  var Y @1 role=outcome;\n"
    "  edge D1' -> Y;\n"
    "  target D1' order=1;\n"
    "}\n"
)


def test_a_variable_name_the_text_form_cannot_spell_is_rejected(tmp_path, capsys):
    # Split, D1' would become D1'o, which the expression text cannot spell.
    with pytest.raises(GraphValidationError, match="name: \"D1'\" is not a name"):
        parse_graph(PRIMED_TARGET)
    dashed = BaseDag((Variable("D-1", 0, Role.TARGET),), frozenset(), ("D-1",), "dashed")
    assert [v.rule for v in validate(dashed)] == ["name"]
    with pytest.raises(GraphValidationError, match="'D-1' is not a name"):
        to_swig(dashed)

    graphs = PRIMED_TARGET, PRIMED_TARGET.replace("D1'", "D-1")
    for i, graph in enumerate(graphs):
        path = tmp_path / f"g{i}.swig"
        path.write_text(graph)
        assert main(["identify", str(path), "q[1](Y | do D1=d1)"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


def test_an_estimand_symbol_the_text_form_cannot_spell_is_rejected(fig1):
    validate_estimand(fig1, Term.of(Regime.prefix(1), ("Y1",), [("Do1", Sym("d1''"))]))
    bad = Term.of(Regime.prefix(1), ("Y1",), [("Do1", Sym("d-1"))])
    with pytest.raises(SwigIdentError, match="'d-1' is not a name"):
        validate_estimand(fig1, bad)


def test_parse_graph_ignores_comments_and_blank_lines():
    text = (
        "# header comment\n\n"
        "graph g {\n"
        "  var X @0 role=target;  # trailing comment\n"
        "\n"
        "  target X order=1;\n"
        "}\n"
    )
    base = parse_graph(text)
    assert base.name == "g" and base.targets == ("X",)


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("graph g {\n  var X @0\n}", 3, 1),
        ("digraph g {}", 1, 1),
        ("graph g { var X $0; }", 1, 17),
        ("graph g {\n  edge A -> ;\n}", 2, 13),
        ("graph g {\n  var X @0 role=boss;\n}", 2, 17),
    ],
)
def test_parse_graph_reports_positions(text, line, column):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert exc.value.line == line
    assert exc.value.column == column
    assert f"line {line}, column {column}" in str(exc.value)


def test_parse_graph_runs_validation():
    dup = "graph g {\n  var X @0;\n  var X @1;\n  target X order=1;\n}"
    with pytest.raises(GraphValidationError, match="declared twice"):
        parse_graph(dup)
    cycle = (
        "graph g {\n  var A @0;\n  var B @1 role=target;\n"
        "  edge A -> B;\n  edge B -> A;\n  target B order=1;\n}"
    )
    with pytest.raises(GraphValidationError, match="cycle"):
        parse_graph(cycle)


def test_parse_estimand_maps_do_to_intervention_node(fig1):
    est = parse_estimand("q[1](Y1 | do D1=d1)", fig1)
    assert est == Term.of(Regime.prefix(1), ("Y1",), [("Do1", Sym("d1"))])

    est2 = parse_estimand("q[1](Y1=1 | do D1=0, L=l)", fig1)
    assert est2.dependents == (("Y1", Lit(1)),)
    assert est2.conditioners == (("Do1", Lit(0)), ("L", Sym("l")))

    obs = parse_estimand("q[0](M1, Y1 | D1=0)", fig1)
    assert obs.regime == Regime.observational()
    assert obs.dependents == (("M1", None), ("Y1", None))


@pytest.mark.parametrize(
    "text, line, column", [("q[2](Y1)", 1, 3), ("  q[5](Y1)", 1, 5), ("\n q [ 7 ](Y1)", 2, 6)]
)
def test_a_regime_index_past_the_targets_names_its_position(fig1, text, line, column):
    with pytest.raises(ParseError, match="exceeds the 1 declared targets") as exc:
        parse_estimand(text, fig1)
    assert (exc.value.line, exc.value.column) == (line, column)
    with pytest.raises(ParseError, match=f"line {line}, column {column}"):
        parse_ci_query(text.replace("(Y1)", ": Y1 _||_ L"), fig1)


def test_parse_estimand_errors(fig1):
    with pytest.raises(ParseError, match="exceeds the 1 declared targets"):
        parse_estimand("q[2](Y1 | do D1=d1)", fig1)
    with pytest.raises(ParseError, match="not an intervention target"):
        parse_estimand("q[1](Y1 | do L=0)", fig1)
    with pytest.raises(ParseError):
        parse_estimand("q[1](Y1 | do D1=d1", fig1)


@pytest.mark.parametrize(
    "text",
    [
        "(" * 5000 + "q0(Y1)" + ")" * 5000,
        "sum{a} " * 5000 + "q0(Y1)",
        "(" * 5000 + "q0(Y1) * q0(L)",
    ],
    ids=["parentheses", "sums", "unclosed_parentheses"],
)
def test_parse_expr_refuses_text_nested_past_the_recursion_limit(text):
    # Both parsers recurse once per level; past the limit the text is a
    # ParseError like any other, where a RecursionError once escaped.
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_expr(text)
    assert parse_expr("(" * 100 + "q0(Y1)" + ")" * 100) == parse_expr("q0(Y1)")


def test_parse_ci_query(fig1):
    q = parse_ci_query("q[1]: Y1 _||_ Do1 | M1, D1", fig1)
    assert q == CiQuery(
        Regime.prefix(1), frozenset({"Y1"}), frozenset({"Do1"}), frozenset({"M1", "D1"})
    )
    bare = parse_ci_query("q[0]: L _||_ D1", fig1)
    assert bare.z == frozenset()
    assert str(bare) == "q0: L _||_ D1"
    with pytest.raises(SwigIdentError, match="unknown variable"):
        parse_ci_query("q[1]: Y1 _||_ Nope", fig1)
    with pytest.raises(ParseError):
        parse_ci_query("q[1]: Y1 Do1", fig1)


def test_parse_ci_query_reads_the_printed_regime_marker(fig1, fig2_n2):
    q = parse_ci_query("q[1]: Y1 _||_ Do1 | M1, D1", fig1)
    for text in ("q1: Y1 _||_ Do1 | M1, D1", "q{1}: Y1 _||_ Do1 | D1, M1", str(q)):
        assert parse_ci_query(text, fig1) == q
    q2 = parse_ci_query("q{2}: Y _||_ Do2 | D2", fig2_n2)
    assert q2.regime == Regime(frozenset({2})) and parse_ci_query(str(q2), fig2_n2) == q2
    for text in ("q2: Y1 _||_ Do1", "q{1,2}: Y1 _||_ Do1", "q[2]: Y1 _||_ Do1"):
        with pytest.raises(SwigIdentError, match="exceed"):
            parse_ci_query(text, fig1)
    for text in ("x1: Y1 _||_ Do1", "q: Y1 _||_ Do1", ""):
        with pytest.raises(ParseError):
            parse_ci_query(text, fig1)


def test_to_dot_marks_roles_and_regimes(fig1, fig1_hidden):
    dot0 = to_dot(fig1)
    assert '"Do1" [shape=box];' in dot0
    assert '"D1" -> "Do1";' in dot0  # coupling intact when observational
    dot1 = to_dot(fig1, Regime.prefix(1))
    assert '"D1" -> "Do1";' not in dot1  # severed under intervention
    assert '"Do1" -> "M1";' in dot1
    assert '"L" [shape=ellipse, style=dashed];' in to_dot(fig1_hidden)


def reference_tokenize(text):
    """The tokenizer as one _TOKEN.match per token, with the column counted
    token by token: what _tokenize must return."""
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m.lastgroup == "error":
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        if m.lastgroup == "nl":
            line, col = line + 1, 1
        else:
            if m.lastgroup not in ("ws", "comment"):
                tokens.append((m.lastgroup, m.group(), line, col))
            col += len(m.group())
        pos = m.end()
    return tokens + [("eof", "", line, col)]


def _golden_texts():
    """Every expression in a golden derivation, every golden graph file and
    the emitted text of every figure."""
    def strings(obj):
        if isinstance(obj, str):
            yield obj
        elif isinstance(obj, dict):
            for v in obj.values():
                yield from strings(v)
        elif isinstance(obj, list):
            for v in obj:
                yield from strings(v)

    for path in sorted(GOLDEN.glob("*.json")):
        yield from strings(json.loads(path.read_text(encoding="utf-8")))
    for path in sorted(GOLDEN.glob("*.swig")):
        yield path.read_text(encoding="utf-8")
    for base in (figure1(), ablated_figure1(), *(figure2(n) for n in range(1, 6)), figure3(3)):
        yield emit_graph(base)


def test_tokens_match_the_reference_on_every_golden_text():
    texts = list(_golden_texts())
    assert len(texts) > 100
    for text in texts:
        assert _tokenize(text) == reference_tokenize(text)


@pytest.mark.parametrize(
    "text", ["q0(Y | $)", "graph g {\n  var X @0;\n  edge X -> Y; !\n}", "\n\n  ~", "a\tb\r\n?"]
)
def test_an_unexpected_character_is_placed_as_the_reference_places_it(text):
    with pytest.raises(ParseError) as want:
        reference_tokenize(text)
    with pytest.raises(ParseError) as got:
        _tokenize(text)
    assert (got.value.line, got.value.column, str(got.value)) == (
        want.value.line, want.value.column, str(want.value)
    )
