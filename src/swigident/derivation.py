"""The derivation contract, which imports neither numpy, engine nor oracle.

A Derivation records the estimand, the chained rewrite steps and the final
expression.  is_identified is the one rule for an identified formula.
This module alone writes and reads derivation files: a step is stored as
its rule, its output's text and its justification, whose kind comes from
one table and whose fields follow by name; a CI query, as its regime's
indices and its three sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dsl import parse_expr
from .errors import ExprError, RuleRefusedError, SwigIdentError, malformed, parse_field
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
    mediator_law: "Derivation"
    outcome: "Derivation"

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
            estimand = _stored_expr(obj["estimand"], f"{where}estimand", terms)
            if not isinstance(estimand, Term):
                raise SwigIdentError(
                    f"malformed derivation: {where}estimand: "
                    f"{to_text(estimand)!r} is not a single term"
                )
            steps: list[DerivationStep] = []
            prev: ProbExpr = estimand
            for i, s in enumerate(obj["steps"], start=1):
                rule = s["rule"]
                if not isinstance(rule, str):
                    raise SwigIdentError(
                        f"malformed derivation: {where}step {i} rule: "
                        f"expected a rule name, found {type(rule).__name__}"
                    )
                output = _stored_expr(s["output"], f"{where}step {i} output", terms)
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
            final = _stored_expr(obj["final"], f"{where}final", terms)
            status = obj["status"]
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


def query_from_json(obj: dict, field: str) -> CiQuery:
    """The CI query query_to_json wrote, in the derivation file's named field."""
    return CiQuery(
        Regime(frozenset(_integer(i, f"{field}: regime") for i in obj["regime"])),
        *(_names(obj[k], f"{field}: {k}") for k in "xyz"),
    )


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


def _justification_to_json(justification) -> dict | None:
    """The justification's kind, then its fields by name, in order (the
    instance dict of a justification dataclass holds exactly its fields)."""
    if justification is None:
        return None
    kind = _KINDS.get(type(justification))
    if kind is None:
        raise TypeError(f"derivation files have no kind for {type(justification).__name__}")
    return {"kind": kind, **{k: _field_json(v) for k, v in vars(justification).items()}}


def _field_json(value):
    """A justification field: a query or a nested derivation by its own
    codec, a tuple as a list."""
    if isinstance(value, tuple):
        return [_field_json(v) for v in value]
    if isinstance(value, CiQuery):
        return query_to_json(value)
    return value.to_json() if isinstance(value, Derivation) else value


def _justification_from_json(obj, where: str, terms: dict[str, Term]):
    if obj is None:
        return None
    at = f"{where}justification: "
    kind = obj.get("kind")
    if kind == "ci":
        return CiJustification(query_from_json(obj["query"], f"{at}query"))
    if kind == "consistency":
        t = _integer(obj["t"], f"{at}t")
        names = (_string(obj[k], f"{at}{k}") for k in ("target", "intervention", "value"))
        return ConsistencyJustification(t, *names)
    if kind == "drop_later":
        checks = tuple(query_from_json(q, f"{at}checks") for q in obj["checks"])
        return DropLaterJustification(_integer(obj["t"], f"{at}t"), checks)
    if kind == "redundancy":
        pairs = (_names(p, f"{at}pairs") for p in obj["pairs"])
        return RedundancyJustification(tuple((t, o) for t, o in pairs))
    if kind == "introduce":
        pairs = (_names(p, f"{at}introduced") for p in obj["introduced"])
        return IntroduceJustification(tuple((v, s) for v, s in pairs))
    if kind == "product":
        return SplitJustification(tuple(_names(g, f"{at}split") for g in obj["split"]))
    if kind == "composition":
        return CompositionJustification(
            mediator_targets=_names(obj["mediator_targets"], f"{at}mediator_targets"),
            binders=_names(obj["binders"], f"{at}binders"),
            mediator_law=Derivation.from_json(
                obj["mediator_law"], f"{where}mediator_law: ", terms
            ),
            outcome=Derivation.from_json(obj["outcome"], f"{where}outcome: ", terms),
        )
    raise ExprError(f"unknown justification kind {kind!r}")


def _names(value, field: str) -> tuple[str, ...]:
    """A field that lists names; a string is not read as its characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SwigIdentError(f"malformed derivation: {field}: expected a list of names")
    return tuple(value)


def _string(value, field: str) -> str:
    """A field that holds a string."""
    if not isinstance(value, str):
        raise SwigIdentError(
            f"malformed derivation: {field}: expected a string, found {type(value).__name__}"
        )
    return value


def _integer(value, field: str) -> int:
    """A field that holds an integer, and not a float or a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SwigIdentError(
            f"malformed derivation: {field}: expected an integer, found {type(value).__name__}"
        )
    return value


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
