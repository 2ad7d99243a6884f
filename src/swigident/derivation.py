"""The derivation contract, which imports neither numpy, engine nor oracle.

A Derivation records the estimand, the chained rewrite steps and the final
expression.  is_identified is the one rule for an identified formula.
This module alone writes and reads derivation files: a step is stored as
its rule, its output's text and its justification, whose kind comes from
one table and whose fields follow by name; a CI query, as its regime's
indices and its three sides.  Each justification field is written and read
by its declared type, through one codec per type: int, str,
tuple[str, ...], name pairs, name groups, CiQuery, tuple[CiQuery, ...] and
a nested Derivation.  A step's rule passes the same scalar check as a str
field.  The format is unchanged: earlier versions wrote the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .dsl import parse_expr
from .errors import RuleRefusedError, SwigIdentError, malformed, parse_field
from .expr import DerivationStep, ProbExpr, Term, free_variables, regimes_used, terms, to_text
from .graphs import CiQuery
from .model import BaseDag, Regime, Swig, to_swig
from .rules import (
    CiJustification,
    ConsistencyJustification,
    DropLaterJustification,
    IntroduceJustification,
    RedundancyJustification,
    SplitJustification,
)

IDENTIFIED = "identified"
NOT_IDENTIFIED = "not_identified"


@dataclass(frozen=True)
class CompositionJustification:
    """Cross-graph composition: the estimand equals the mediator-intervention
    outcome law averaged over the identified mediator law."""

    mediator_targets: tuple[str, ...]
    binders: tuple[str, ...]
    mediator_law: Derivation
    outcome: Derivation

    def __str__(self) -> str:
        meds = ", ".join(self.mediator_targets)
        return f"composing over mediator interventions on {meds}"


@dataclass(frozen=True)
class Derivation:
    estimand: Term
    steps: tuple[DerivationStep, ...]
    final: ProbExpr
    status: str
    blocking: CiQuery | None = None
    # What the search did (an engine.SearchStats, top_down and bottom_up
    # only); not part of the derivation's JSON, trace or equality.
    stats: object | None = field(default=None, compare=False, repr=False)

    @property
    def identified(self) -> bool:
        return self.status == IDENTIFIED

    def trace(self) -> str:
        lines = [f"estimand: {to_text(self.estimand)}"]
        for i, step in enumerate(self.steps, start=1):
            note = f"  [{step.justification}]" if step.justification is not None else ""
            lines.append(f"{i:3d}. {step.rule}: {to_text(step.output)}{note}")
        lines.append(f"final: {to_text(self.final)}")
        lines.append(f"status: {self.status}")
        if self.blocking is not None:
            lines.append(f"blocking: {self.blocking}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Every expression as its text; a step's input is the expression
        before it, so only its output is stored, with its rule and its
        justification."""
        return {
            "estimand": to_text(self.estimand),
            "status": self.status,
            "blocking": None if self.blocking is None else query_to_json(self.blocking),
            "final": to_text(self.final),
            "steps": [
                {
                    "rule": s.rule,
                    "output": to_text(s.output),
                    "justification": _justification_to_json(s.justification),
                }
                for s in self.steps
            ],
        }

    @classmethod
    def from_json(
        cls, obj: dict, where: str = "", terms: dict[str, Term] | None = None
    ) -> "Derivation":
        """Parse the text of to_json back, rebuilding each step's input as
        the estimand or the previous step's output.  where prefixes the
        field names in errors; it locates a derivation nested in a
        composition step.  Each distinct term text of the file is parsed
        once: terms maps it to its Term, shared with the nested
        derivations, so the steps share Term objects."""
        terms = {} if terms is None else terms
        with malformed("derivation"):
            obj = _checked(obj, dict, "an object", where.removesuffix(": ") or "file")
            estimand = _stored_expr(_key(obj, "estimand", where), f"{where}estimand", terms)
            if not isinstance(estimand, Term):
                raise SwigIdentError(
                    f"malformed derivation: {where}estimand: "
                    f"{to_text(estimand)!r} is not a single term"
                )
            steps: list[DerivationStep] = []
            prev: ProbExpr = estimand
            stored = _checked(obj.get("steps"), list, "a list", f"{where}steps")
            for i, s in enumerate(stored, start=1):
                s = _checked(s, dict, "an object", f"{where}step {i}")
                rule = _checked(s.get("rule"), str, "a rule name", f"{where}step {i} rule")
                output = _stored_expr(s.get("output"), f"{where}step {i} output", terms)
                justification = _justification_from_json(
                    s.get("justification"), f"{where}step {i} ", terms
                )
                if rule == "mediator_composition" and not isinstance(
                    justification, CompositionJustification
                ):
                    raise SwigIdentError(
                        f"malformed derivation: {where}step {i} justification: expected "
                        f"a composition, found {_KINDS.get(type(justification), 'null')}"
                    )
                steps.append(DerivationStep(rule, prev, output, justification))
                prev = output
            final = _stored_expr(_key(obj, "final", where), f"{where}final", terms)
            status = _key(obj, "status", where)
            if status not in (IDENTIFIED, NOT_IDENTIFIED):
                raise SwigIdentError(
                    f"malformed derivation: {where}status: expected {IDENTIFIED!r} "
                    f"or {NOT_IDENTIFIED!r}, found {status!r}"
                )
            blocking = obj.get("blocking")
            if blocking is not None:
                blocking = query_from_json(blocking, f"{where}blocking")
            return cls(estimand, tuple(steps), final, status, blocking)


def _stored_expr(text: object, field: str, terms: dict[str, Term]) -> ProbExpr:
    """The expression a derivation file stores as text in the named field;
    terms is the file's memo of parsed term texts."""
    return parse_field(
        lambda t: parse_expr(t, terms), text, f"malformed derivation: {field}", "expression"
    )


def query_to_json(query: CiQuery) -> dict:
    """A CI query as a dict: its regime's indices and its sides, sorted."""
    return {"regime": sorted(query.regime.active), **{k: sorted(getattr(query, k)) for k in "xyz"}}


def query_from_json(obj, field: str) -> CiQuery:
    """The CI query query_to_json wrote, in the derivation file's named field."""
    obj = _checked(obj, dict, "an object", field)
    at = f"{field}: "
    regime = _each(_key(obj, "regime", at), f"{at}regime", _CODECS[int][1])
    return CiQuery(Regime(frozenset(regime)), *(_names(_key(obj, k, at), at + k) for k in "xyz"))


def _key(obj: dict, key: str, at: str):
    """obj[key], for a field of the derivation file whose name at prefixes;
    a field that is not there is refused by name."""
    if key not in obj:
        raise SwigIdentError(f"malformed derivation: {at}{key}: missing")
    return obj[key]


def _checked(value, kind: type, what: str, field: str):
    """value if its JSON type is kind (a bool is no integer); else the error names field."""
    if type(value) is not kind:
        raise SwigIdentError(
            f"malformed derivation: {field}: expected {what}, found {type(value).__name__}"
        )
    return value


def _names(value, field: str) -> tuple[str, ...]:
    """A field that lists names; a string is not read as its characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SwigIdentError(f"malformed derivation: {field}: expected a list of names")
    return tuple(value)


def _each(value, field: str, read) -> tuple:
    """A field that lists values, each read by read(value, field)."""
    return tuple([read(v, field) for v in _checked(value, list, "a list", field)])


def _pair(value, field: str) -> tuple[str, str]:
    """A field that holds two names."""
    if len(pair := _names(value, field)) != 2:
        raise SwigIdentError(f"malformed derivation: {field}: expected a pair of names")
    return pair


def _tuple_of(write, read) -> tuple:
    """The codec of a tuple stored as a list, whose items write and read code."""
    return lambda v: [write(x) for x in v], lambda v, at, *_: _each(v, at, read)


# Each type a justification field is declared with: its writer, to JSON, and
# its reader, of the JSON value, the field's name in errors, and the error
# prefix and term memo that a nested derivation is read with.
_CODECS = {
    int: (lambda v: v, lambda v, at, *_: _checked(v, int, "an integer", at)),
    str: (lambda v: v, lambda v, at, *_: _checked(v, str, "a string", at)),
    tuple[str, ...]: (list, lambda v, at, *_: _names(v, at)),
    tuple[tuple[str, str], ...]: _tuple_of(list, _pair),
    tuple[tuple[str, ...], ...]: _tuple_of(list, _names),
    CiQuery: (query_to_json, lambda v, at, *_: query_from_json(v, at)),
    tuple[CiQuery, ...]: _tuple_of(query_to_json, query_from_json),
    Derivation: (
        Derivation.to_json,
        lambda v, at, *nested: Derivation.from_json(_checked(v, dict, "an object", at), *nested),
    ),
}

# The kind a derivation file names each justification class by.
_KINDS = {
    CiJustification: "ci",
    ConsistencyJustification: "consistency",
    DropLaterJustification: "drop_later",
    RedundancyJustification: "redundancy",
    IntroduceJustification: "introduce",
    SplitJustification: "product",
    CompositionJustification: "composition",
}
_CLASSES = {kind: cls for cls, kind in _KINDS.items()}

# Each justification class's fields, in order: name, writer and reader.
_FIELDS = {c: [(f.name, *_CODECS[get_type_hints(c)[f.name]]) for f in fields(c)] for c in _KINDS}


def _justification_to_json(justification) -> dict | None:
    """The justification's kind, then each field by name, in order."""
    if justification is None:
        return None
    cls = type(justification)
    if cls not in _KINDS:
        raise TypeError(f"derivation files have no kind for {cls.__name__}")
    return {"kind": _KINDS[cls], **{k: w(getattr(justification, k)) for k, w, _ in _FIELDS[cls]}}


def _justification_from_json(obj, where: str, terms: dict[str, Term]):
    """The justification _justification_to_json wrote: its class by its
    kind, then each field by its declared type."""
    if obj is None:
        return None
    at = f"{where}justification: "
    kind = _key(_checked(obj, dict, "an object", f"{where}justification"), "kind", at)
    cls = _CLASSES.get(kind) if isinstance(kind, str) else None  # a list is unhashable
    if cls is None:
        raise SwigIdentError(
            f"malformed derivation: {at}kind: expected a justification kind, found {kind!r}"
        )
    return cls(*[
        read(_key(obj, k, at), at + k, f"{where}{k}: ", terms) for k, _, read in _FIELDS[cls]
    ])


def is_identified(expr: ProbExpr, swig: Swig | None = None) -> bool:
    """The rule of an identified formula: every term is in regime 0 and,
    given the graph, every variable it names is observed.  The variables are
    looked up only once every term is in regime 0: the search asks this of
    every state it reaches."""
    if not all(t.regime.is_observational for _, t in terms(expr)):
        return False
    return swig is None or all(swig.var(n).observed for n in sorted(free_variables(expr)))


def require_identified(expr: ProbExpr, swig: Swig | None = None) -> None:
    """Raise unless is_identified: SwigIdentError naming the regimes other
    than 0, else RuleRefusedError naming the unobserved variables."""
    if not is_identified(expr, swig):
        bad = [str(r) for r in regimes_used(expr) if not r.is_observational]
        if bad:
            raise SwigIdentError(f"identified derivation still uses regimes {bad}")
        hidden = [n for n in sorted(free_variables(expr)) if not swig.var(n).observed]
        raise RuleRefusedError(f"identified derivation names unobserved variables {hidden}")


def validate_derivation(derivation: Derivation, swig: Swig | None = None) -> None:
    """Check the step chain and, if the derivation is identified, its final
    formula (require_identified)."""
    prev = derivation.estimand
    for i, step in enumerate(derivation.steps):
        if step.input != prev:
            raise SwigIdentError(f"step {i + 1} does not chain from the previous output")
        prev = step.output
    if derivation.final != prev:
        raise SwigIdentError("final expression is not the last step output")
    if derivation.identified:
        require_identified(derivation.final, swig)


def _mediators_swig(swig: Swig, targets: tuple[str, ...]) -> Swig:
    """The same skeleton split at the mediators instead of the doses."""
    base = BaseDag(
        variables=swig.base.variables,
        edges=swig.base.edges,
        targets=targets,
        name=f"{swig.base.name}_mediators",
    )
    return to_swig(base)
