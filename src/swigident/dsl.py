"""Text surfaces: the graph description language, query strings,
probability expressions, and DOT.

Graph files, and the graph field of model files, hold one graph each:

    # a comment
    graph fig1 {
      var L @0 role=covariate;
      var D1 @1 role=target;
      edge L -> D1;
      target D1 order=1;
    }

Estimand queries look like ``q[1](Y1 | do D1=d1)``; conditional-independence
queries like ``q[1]: Y1 _||_ Do1 | M1, D1`` or, as a CiQuery prints,
``q1: Y1 _||_ Do1 | M1, D1``; expressions are the text form of expr.to_text,
like ``sum{l} q0(Y1 | L=l, D1=d1) * q0(L=l)``, and the only
form in which derivation files store them.  parse_graph and emit_graph
round-trip exactly, and so do parse_expr and to_text.  All of them spell a
variable as model.NAME and a symbol as a NAME with optional trailing quotes
(d1'); model.validate rejects a graph with any other graph or variable
name.
"""

from __future__ import annotations

import re
from typing import Callable

from .errors import GraphValidationError, ParseError, SwigIdentError
from .expr import Entry, ProbExpr, Product, Sum, Term
from .graphs import CiQuery
from .model import NAME, SYMBOL, BaseDag, Lit, Regime, Role, Swig, Sym, Variable, validate

_TOKEN = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<arrow>->)
  | (?P<sep>_\|\|_)
  | (?P<num>\d+)
  | (?P<ident>"""
    + NAME
    + r"""'*)
  | (?P<punct>[{};=@|,:\[\]()*])
  | (?P<error>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) of each token, in one pass of _TOKEN over
    the text; every character starts a match, an unexpected one as error."""
    tokens = []
    line, start = 1, 0  # start: offset of the current line's first character
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            start = m.end()
        elif kind == "error":
            column = m.start() - start + 1
            raise ParseError(f"unexpected character {m.group()!r}", line, column)
        elif kind != "ws" and kind != "comment":
            tokens.append((kind, m.group(), line, m.start() - start + 1))
    tokens.append(("eof", "", line, len(text) - start + 1))
    return tokens


def _int(digits: str, line: int, col: int) -> int:
    """int(digits), or a ParseError where int refuses that many digits."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"a number of {len(digits)} digits is too long", line, col) from None


class _Tokens:
    def __init__(self, text: str):
        self.items = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.items[self.i]

    def next(self) -> tuple[str, str, int, int]:
        tok = self.items[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int, int]:
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2], tok[3])
        return tok

    def number(self) -> int:
        _, digits, line, col = self.expect("num")
        return _int(digits, line, col)

    def accept(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            self.next()
            return True
        return False


def parse_graph(text: str) -> BaseDag:
    """Parse a graph document; raises ParseError with position on syntax
    errors and GraphValidationError on semantic ones."""
    toks = _Tokens(text)
    tok = toks.expect("ident")
    if tok[1] != "graph":
        raise ParseError("expected 'graph'", tok[2], tok[3])
    name = toks.expect("ident")[1]
    toks.expect("punct", "{")

    variables: list[Variable] = []
    edges: set[tuple[str, str]] = set()
    targets: list[tuple[int, int, str]] = []

    while not toks.accept("punct", "}"):
        kind, word, line, col = toks.expect("ident")
        if word == "var":
            vname = toks.expect("ident")[1]
            declared = {}  # Variable's defaults hold for the attributes left out
            while not toks.accept("punct", ";"):
                k, v, l2, c2 = toks.next()
                if k == "punct" and v == "@":
                    declared["time"] = toks.number()
                elif k == "ident" and v == "role":
                    toks.expect("punct", "=")
                    rv, rl, rc = toks.expect("ident")[1:4]
                    try:
                        declared["role"] = Role(rv)
                    except ValueError:
                        raise ParseError(f"unknown role {rv!r}", rl, rc) from None
                elif k == "ident" and v == "levels":
                    toks.expect("punct", "=")
                    declared["cardinality"] = toks.number()
                elif k == "ident" and v == "unobserved":
                    declared["observed"] = False
                else:
                    raise ParseError(f"unexpected {v!r} in var declaration", l2, c2)
            variables.append(Variable(vname, **declared))
        elif word == "edge":
            a = toks.expect("ident")[1]
            toks.expect("arrow")
            b = toks.expect("ident")[1]
            toks.expect("punct", ";")
            edges.add((a, b))
        elif word == "target":
            tname = toks.expect("ident")[1]
            order = None
            if toks.accept("ident", "order"):
                toks.expect("punct", "=")
                order = toks.number()
            toks.expect("punct", ";")
            targets.append((order if order is not None else 10**9, len(targets), tname))
        else:
            raise ParseError(f"expected var, edge, or target, found {word!r}", line, col)
    toks.expect("eof")

    base = BaseDag(
        name=name,
        variables=tuple(variables),
        edges=frozenset(edges),
        targets=tuple(t for _, _, t in sorted(targets)),
    )
    violations = validate(base)
    if violations:
        raise GraphValidationError(violations)
    return base


def emit_graph(base: BaseDag) -> str:
    """Render a graph document that parse_graph maps back to base."""
    lines = [f"graph {base.name} {{"]
    plain = Variable("")  # the attributes a declaration leaves out
    for v in base.variables:
        parts = [f"var {v.name} @{v.time}"]
        if v.role != plain.role:
            parts.append(f"role={v.role.value}")
        if v.cardinality != plain.cardinality:
            parts.append(f"levels={v.cardinality}")
        if v.observed != plain.observed:
            parts.append("unobserved")
        lines.append("  " + " ".join(parts) + ";")
    for a, b in sorted(base.edges):
        lines.append(f"  edge {a} -> {b};")
    for i, t in enumerate(base.targets, start=1):
        lines.append(f"  target {t} order={i};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_regime_index(toks: _Tokens, swig: Swig) -> int:
    tok = toks.expect("ident")
    if tok[1] != "q":
        raise ParseError("expected regime marker 'q[n]'", tok[2], tok[3])
    toks.expect("punct", "[")
    _, digits, line, col = toks.expect("num")
    toks.expect("punct", "]")
    n = _int(digits, line, col)
    if n > swig.n_interventions:
        msg = f"regime index {n} exceeds the {swig.n_interventions} declared targets"
        raise ParseError(msg, line, col)
    return n


def _parse_value(toks: _Tokens):
    kind, value, line, col = toks.next()
    if kind == "num":
        return Lit(_int(value, line, col))
    if kind == "ident":
        return Sym(value)
    raise ParseError(f"expected a value, found {value or 'end of input'!r}", line, col)


def _name(toks: _Tokens) -> str:
    return toks.expect("ident")[1]


def _parse_entry(toks: _Tokens) -> Entry:
    name = _name(toks)
    return (name, _parse_value(toks) if toks.accept("punct", "=") else None)


def _parse_list(toks: _Tokens, item=_parse_entry) -> tuple:
    """One or more comma-separated items; entries by default."""
    items = [item(toks)]
    while toks.accept("punct", ","):
        items.append(item(toks))
    return tuple(items)


def parse_estimand(text: str, swig: Swig) -> Term:
    """Parse ``q[n](Y | do D1=d1, do D2=d2)`` against a SWIG: each ``do X=v``
    pins X's intervention node, plain entries condition as written."""
    toks = _Tokens(text)
    n = _parse_regime_index(toks, swig)
    toks.expect("punct", "(")

    def conditioner(toks: _Tokens) -> Entry:
        if not toks.accept("ident", "do"):
            return _parse_entry(toks)
        tok = toks.expect("ident")
        tname = tok[1]
        if tname not in swig.intervention_of:
            raise ParseError(f"{tname!r} is not an intervention target", tok[2], tok[3])
        toks.expect("punct", "=")
        return (swig.intervention_of[tname], _parse_value(toks))

    dependents = _parse_list(toks)
    conditioners = _parse_list(toks, conditioner) if toks.accept("punct", "|") else ()
    toks.expect("punct", ")")
    toks.expect("eof")
    return Term(Regime.prefix(n), dependents, conditioners)


def parse_ci_query(text: str, swig: Swig) -> CiQuery:
    """Parse ``q[n]: X _||_ Y | Z1, Z2`` into a CiQuery.  The regime may also
    be written as in expressions (``q1``, ``q{1,2}``), which is how a
    CiQuery prints, so a ``blocking:`` line reads back."""
    toks = _Tokens(text)
    if toks.peek()[1] == "q" and toks.items[1][:2] == ("punct", "["):
        regime = Regime.prefix(_parse_regime_index(toks, swig))
    else:
        regime = _parse_regime(toks, swig.prefix_regime)
        swig.check_regime(regime)
    toks.expect("punct", ":")
    x = frozenset(_parse_list(toks, _name))
    toks.expect("sep")
    y = frozenset(_parse_list(toks, _name))
    z = frozenset(_parse_list(toks, _name)) if toks.accept("punct", "|") else frozenset()
    toks.expect("eof")
    for name in (*x, *y, *z):
        swig.var(name)
    return CiQuery(regime=regime, x=x, y=y, z=z)


def _parse_regime(toks: _Tokens, prefix: Callable[[int], Regime] = Regime.prefix) -> Regime:
    """q0, q2 or q{1,2}; prefix builds the prefix regimes, and may check
    the index first."""
    kind, value, line, col = toks.expect("ident")
    if value == "q" and toks.accept("punct", "{"):
        active = _parse_list(toks, _Tokens.number)
        toks.expect("punct", "}")
        return Regime(frozenset(active))
    if value.startswith("q") and value[1:].isdigit():
        return prefix(_int(value[1:], line, col))
    raise ParseError(f"expected a regime like q0 or q{{1,2}}, found {value!r}", line, col)


def _parse_term(toks: _Tokens) -> Term:
    regime = _parse_regime(toks)
    toks.expect("punct", "(")
    deps = _parse_list(toks)
    conds = _parse_list(toks) if toks.accept("punct", "|") else ()
    toks.expect("punct", ")")
    return Term(regime, deps, conds)


def _parse_expression(toks: _Tokens) -> ProbExpr:
    if toks.accept("ident", "sum"):
        toks.expect("punct", "{")
        binders = _parse_list(toks, _name)
        toks.expect("punct", "}")
        return Sum(binders, _parse_expression(toks))
    factors = [_parse_factor(toks)]
    while toks.accept("punct", "*"):
        factors.append(_parse_factor(toks))
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def _parse_factor(toks: _Tokens) -> ProbExpr:
    if not toks.accept("punct", "("):
        return _parse_term(toks)
    e = _parse_expression(toks)
    toks.expect("punct", ")")
    return e


def parse_expr(text: str, terms: dict[str, Term] | None = None) -> ProbExpr:
    """Parse the text form written by expr.to_text.

    Text in the exact layout to_text writes is read a term at a time: terms
    maps each term's text to the Term parsed from it, and when the calls
    for the expressions of one file share it, a term seen before is neither
    tokenized nor built again.  Any other layout, and text that layout
    refuses, is parsed token by token, which gives the same tree or the
    error with its position."""
    try:
        e, end = _parse_laid_out(text, 0, {} if terms is None else terms)
        if end == len(text):
            return e
    except SwigIdentError:
        pass
    toks = _Tokens(text)
    e = _parse_expression(toks)
    kind, value, line, col = toks.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {value!r}", line, col)
    return e


def _parse_laid_out(text: str, pos: int, terms: dict[str, Term]) -> tuple[ProbExpr, int]:
    """The expression of to_text's layout at pos, and the position after it:
    "sum{a, b} body", or factors joined by " * ", each a term or an
    expression in parentheses.  A term ends at its first ")"; it is looked
    up in terms by its text and parsed alone on a miss.  Raises
    SwigIdentError where the text has another layout."""
    if text.startswith("sum{", pos):
        close = text.find("} ", pos)
        binders = text[pos + 4 : close].split(", ") if close >= 0 else [""]
        if not all(SYMBOL.fullmatch(b) for b in binders):
            raise SwigIdentError("not to_text's layout")
        body, pos = _parse_laid_out(text, close + 2, terms)
        return Sum(tuple(binders), body), pos
    factors = []
    while True:
        if text.startswith("(", pos):
            factor, pos = _parse_laid_out(text, pos + 1, terms)
            if not text.startswith(")", pos):
                raise SwigIdentError("not to_text's layout")
            pos += 1
        else:
            end = text.find(")", pos) + 1
            if not end:
                raise SwigIdentError("not to_text's layout")
            span, pos = text[pos:end], end
            factor = terms.get(span)
            if factor is None:
                toks = _Tokens(span)
                factor = _parse_term(toks)
                toks.expect("eof")
                terms[span] = factor
        factors.append(factor)
        if not text.startswith(" * ", pos):
            return (factors[0] if len(factors) == 1 else Product(tuple(factors))), pos
        pos += 3


def to_dot(swig: Swig, regime: Regime | None = None) -> str:
    """DOT rendering of the regime graph: intervention nodes boxed, hidden
    variables dashed, severed couplings omitted."""
    regime = regime if regime is not None else Regime.observational()
    graph = swig.regime_graph(regime)
    lines = [f'digraph "{swig.base.name}" {{', "  rankdir=LR;"]
    for v in swig.variables:
        attrs = []
        if v.name in swig.target_of:
            attrs.append("shape=box")
        else:
            attrs.append("shape=ellipse")
        if not v.observed:
            attrs.append("style=dashed")
        lines.append(f'  "{v.name}" [{", ".join(attrs)}];')
    for a, b in sorted(graph.edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
