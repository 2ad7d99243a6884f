"""Identification engine: derivation recipes, search, and numeric audit.

A Derivation records the estimand, the chained rewrite steps, and the final
expression; it is identified when every term of the final expression is an
observed-data conditional over observed variables.  Recipes reproduce the
classic adjustment arguments step by step; the two search modes explore the
same sound move set with different orderings; verify replays every step
against the exact oracle on batches of random models.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ExprError, RuleRefusedError, SwigIdentError, malformed
from .expr import (
    DerivationStep,
    ProbExpr,
    Sum,
    Product,
    Term,
    canonicalize,
    free_variables,
    fresh_symbol,
    regimes_used,
    terms,
    to_text,
    validate_estimand,
)
from .dsl import parse_expr
from .graphs import CiQuery, Graph
from .model import BaseDag, Swig, Sym, ValueRef, same_skeleton, to_swig
from .oracle import (
    LabeledTable,
    conditional_sizes,
    contraction_counts,
    eval_expr,
    model_batches,
    random_base_cpts,
)
from .rules import (
    CiJustification,
    ConsistencyJustification,
    DropLaterJustification,
    IntroduceJustification,
    RedundancyJustification,
    SplitJustification,
    rule_ci_modify,
    rule_consistency,
    rule_drop_later,
    rule_product,
    rule_redundancy,
    rule_total_probability,
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

    def to_json(self) -> dict:
        return {
            "kind": "composition",
            "mediator_targets": list(self.mediator_targets),
            "binders": list(self.binders),
            "mediator_law": self.mediator_law.to_json(),
            "outcome": self.outcome.to_json(),
        }


@dataclass(frozen=True)
class Derivation:
    estimand: Term
    steps: tuple[DerivationStep, ...]
    final: ProbExpr
    status: str
    blocking: CiQuery | None = None
    # What the search did (top_down and bottom_up only); not part of the
    # derivation's JSON, trace or equality.
    stats: "SearchStats | None" = field(default=None, compare=False, repr=False)

    @property
    def identified(self) -> bool:
        return self.status == IDENTIFIED

    @property
    def initial(self) -> ProbExpr:
        return self.estimand

    def trace(self) -> str:
        lines = [f"estimand: {to_text(self.initial)}"]
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
        before it, so only its output is stored."""
        return {
            "estimand": to_text(self.estimand),
            "status": self.status,
            "blocking": None if self.blocking is None else self.blocking.to_json(),
            "final": to_text(self.final),
            "steps": [s.to_json() for s in self.steps],
        }

    @classmethod
    def from_json(cls, obj: dict, where: str = "") -> "Derivation":
        """Parse the text of to_json back, rebuilding each step's input as
        the estimand or the previous step's output.  where prefixes the
        field names in errors; it locates a derivation nested in a
        composition step."""
        with malformed("derivation"):
            estimand = _stored_expr(obj["estimand"], f"{where}estimand")
            if not isinstance(estimand, Term):
                raise SwigIdentError(
                    f"malformed derivation: {where}estimand: "
                    f"{to_text(estimand)!r} is not a single term"
                )
            steps: list[DerivationStep] = []
            prev: ProbExpr = estimand
            for i, s in enumerate(obj["steps"], start=1):
                output = _stored_expr(s["output"], f"{where}step {i} output")
                justification = _justification_from_json(
                    s.get("justification"), f"{where}step {i} "
                )
                steps.append(DerivationStep(s["rule"], prev, output, justification))
                prev = output
            blocking = obj.get("blocking")
            return cls(
                estimand=estimand,
                steps=tuple(steps),
                final=_stored_expr(obj["final"], f"{where}final"),
                status=obj["status"],
                blocking=None if blocking is None else CiQuery.from_json(blocking),
            )


def _stored_expr(text: object, field: str) -> ProbExpr:
    """The expression a derivation file stores as text in the named field;
    a failure names the field and, for bad text, the parse position."""
    if not isinstance(text, str):
        raise SwigIdentError(
            f"malformed derivation: {field}: expected expression text, found {type(text).__name__}"
        )
    try:
        return parse_expr(text)
    except SwigIdentError as exc:
        raise SwigIdentError(f"malformed derivation: {field}: {exc}") from exc


def _justification_from_json(obj, where: str):
    if obj is None:
        return None
    kind = obj.get("kind")
    if kind == "ci":
        return CiJustification(CiQuery.from_json(obj["query"]))
    if kind == "consistency":
        return ConsistencyJustification(
            int(obj["t"]), obj["target"], obj["intervention"], obj["value"]
        )
    if kind == "drop_later":
        return DropLaterJustification(
            int(obj["t"]), tuple(CiQuery.from_json(q) for q in obj["checks"])
        )
    if kind == "redundancy":
        return RedundancyJustification(tuple((t, o) for t, o in obj["pairs"]))
    if kind == "introduce":
        return IntroduceJustification(tuple((v, s) for v, s in obj["introduced"]))
    if kind == "product":
        return SplitJustification(tuple(tuple(g) for g in obj["split"]))
    if kind == "composition":
        return CompositionJustification(
            mediator_targets=tuple(obj["mediator_targets"]),
            binders=tuple(obj["binders"]),
            mediator_law=Derivation.from_json(obj["mediator_law"], f"{where}mediator_law: "),
            outcome=Derivation.from_json(obj["outcome"], f"{where}outcome: "),
        )
    raise ExprError(f"unknown justification kind {kind!r}")


def validate_derivation(derivation: Derivation) -> None:
    """Check the step chain and the identified-status contract."""
    prev = derivation.initial
    for i, step in enumerate(derivation.steps):
        if step.input != prev:
            raise SwigIdentError(f"step {i + 1} does not chain from the previous output")
        prev = step.output
    if derivation.final != prev:
        raise SwigIdentError("final expression is not the last step output")
    if derivation.identified:
        bad = [str(r) for r in regimes_used(derivation.final) if not r.is_observational]
        if bad:
            raise SwigIdentError(f"identified derivation still uses regimes {bad}")


@dataclass(frozen=True)
class Strategy:
    """How identify should proceed: a named recipe with optional explicit
    variable set, or a bounded search."""

    kind: str
    variables: tuple[str, ...] = ()
    depth: int = 16

    KINDS = (
        "backdoor",
        "frontdoor",
        "sequential_backdoor",
        "sequential_frontdoor",
        "mediator_intervention",
        "top_down",
        "bottom_up",
    )

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise SwigIdentError(
                f"unknown strategy {self.kind!r}; choose from {', '.join(self.KINDS)}"
            )
        if self.depth < 1:
            raise SwigIdentError("search depth must be >= 1")
        if self.variables and self.kind in ("sequential_backdoor", "top_down", "bottom_up"):
            raise SwigIdentError(f"strategy {self.kind!r} takes no variables")

    @classmethod
    def parse(cls, text: str, depth: int = 16) -> "Strategy":
        name, _, rest = text.partition(":")
        variables = tuple(v.strip() for v in rest.split(",") if v.strip()) if rest else ()
        return cls(kind=name.strip(), variables=variables, depth=depth)


class _Builder:
    """Tracks the working expression while a recipe applies rules."""

    def __init__(self, swig: Swig, estimand: Term):
        validate_estimand(swig, estimand)
        self.swig = swig
        self.estimand = estimand
        self.expr: ProbExpr = estimand
        self.steps: list[DerivationStep] = []

    def apply(self, rule, path: tuple[int, ...], *args, **kwargs) -> DerivationStep:
        step = rule(self.swig, self.expr, path, *args, **kwargs)
        self.steps.append(step)
        self.expr = step.output
        return step

    def path_of(self, dep_names: Iterable[str]) -> tuple[int, ...]:
        """Path of the unique term whose dependents are exactly dep_names."""
        want = frozenset(dep_names)
        hits = [p for p, t in terms(self.expr) if frozenset(t.dep_names()) == want]
        if len(hits) != 1:
            raise SwigIdentError(
                f"expected exactly one term over {sorted(want)}, found {len(hits)}"
            )
        return hits[0]

    def term(self, path: tuple[int, ...]) -> Term:
        for p, t in terms(self.expr):
            if p == path:
                return t
        raise SwigIdentError(f"no term at {path}")

    def identified(self) -> Derivation:
        bad = [str(r) for r in regimes_used(self.expr) if not r.is_observational]
        if bad:
            raise SwigIdentError(f"recipe finished but regimes {bad} remain")
        unobserved = [
            n for n in sorted(free_variables(self.expr)) if not self.swig.var(n).observed
        ]
        if unobserved:
            raise SwigIdentError(f"recipe finished but {unobserved} are unobserved")
        return Derivation(self.estimand, tuple(self.steps), self.expr, IDENTIFIED)


def _not_identified(estimand: Term, blocking: CiQuery | None) -> Derivation:
    return Derivation(estimand, (), estimand, NOT_IDENTIFIED, blocking)


def _single_intervention(swig: Swig, estimand: Term) -> tuple[int, ValueRef]:
    """Shape check shared by the two single-shot recipes: exactly one active
    intervention whose node is the sole conditioner."""
    if len(estimand.regime.active) != 1:
        raise SwigIdentError(
            "this recipe handles a single intervention; use the sequential recipes"
        )
    (t,) = estimand.regime.active
    do = swig.intervention(t)
    conds = dict(estimand.conditioners)
    if set(conds) != {do}:
        raise SwigIdentError(f"estimand must condition on {do!r} and nothing else")
    if conds[do] is None:
        raise SwigIdentError(f"{do!r} must be pinned to a value or symbol")
    return t, conds[do]


def _subsets(names: Sequence[str], min_size: int = 0) -> Iterable[tuple[str, ...]]:
    for size in range(min_size, len(names) + 1):
        yield from itertools.combinations(sorted(names), size)


def _adjustment_pool(swig: Swig, estimand: Term) -> list[str]:
    """Observed, non-intervention variables not mentioned by the estimand."""
    used = {n for n, _ in estimand.dependents} | {n for n, _ in estimand.conditioners}
    out = []
    for v in swig.variables:
        if not v.observed or v.name in used:
            continue
        if v.name in swig.target_of or v.name in swig.intervention_of:
            continue
        out.append(v.name)
    return sorted(out, key=lambda n: (swig.var(n).time, n))


def _check_explicit(swig: Swig, names: Sequence[str]) -> None:
    for n in names:
        if not swig.var(n).observed:
            raise SwigIdentError(f"{n!r} is unobserved and cannot be adjusted for")
        if n in swig.target_of:
            raise SwigIdentError(f"{n!r} is an intervention node")


def _try_candidates(
    swig: Swig,
    estimand: Term,
    candidates: Iterable[tuple[str, ...]],
    attempt: Callable[[_Builder, tuple[str, ...]], Derivation],
    fallback_blocking: CiQuery | None = None,
) -> Derivation:
    blocking: CiQuery | None = None
    tried = False
    for cand in candidates:
        tried = True
        builder = _Builder(swig, estimand)
        try:
            return attempt(builder, cand)
        except RuleRefusedError as exc:
            if blocking is None and exc.blocking is not None:
                blocking = exc.blocking
    if blocking is None:
        blocking = fallback_blocking
    if not tried and blocking is None:
        raise SwigIdentError("no candidate variable sets to try")
    return _not_identified(estimand, blocking)


def _dose_blocking(swig: Swig, estimand: Term) -> CiQuery:
    """Fallback blocking query of the mediator recipes: the dependents
    independent of the intervention nodes given their targets, less the
    dependents themselves (a dependent may be a target)."""
    deps = frozenset(n for n, _ in estimand.dependents)
    dos = frozenset(swig.intervention(j) for j in estimand.regime.active)
    tgts = frozenset(swig.target(j) for j in estimand.regime.active)
    return CiQuery(estimand.regime, deps, dos - deps, tgts - deps)


def _or_unreached(swig: Swig, estimand: Term, derivation: Derivation) -> Derivation:
    """A mediator recipe's answer, unless it is a refusal and drop_later
    removes the estimand's whole regime: then the doses do not reach the
    dependents, q_s(dependents | doses) = q0(dependents), and the recipe's
    blocking query may well hold.  The answer is that one-step derivation,
    or, when a dependent is unobserved, a refusal with no blocking query."""
    if derivation.identified:
        return derivation
    builder = _Builder(swig, estimand)
    try:
        builder.apply(rule_drop_later, (), 0)
    except RuleRefusedError:
        return derivation
    if not all(swig.var(n).observed for n in free_variables(builder.expr)):
        return _not_identified(estimand, None)
    return builder.identified()


# ---------------------------------------------------------------------------
# back-door and front-door recipes

def _backdoor_attempt(builder: _Builder, adjustment: tuple[str, ...]) -> Derivation:
    swig, est = builder.swig, builder.estimand
    t, do_ref = _single_intervention(swig, est)
    tgt = swig.target(t)
    deps = tuple(n for n, _ in est.dependents)
    if adjustment:
        builder.apply(rule_total_probability, builder.path_of(deps), adjustment)
        builder.apply(
            rule_product,
            builder.path_of(deps + adjustment),
            [list(deps), list(adjustment)],
        )
    builder.apply(rule_ci_modify, builder.path_of(deps), tgt, "insert", do_ref)
    builder.apply(rule_consistency, builder.path_of(deps), t)
    builder.apply(rule_redundancy, builder.path_of(deps))
    if adjustment:
        builder.apply(rule_drop_later, builder.path_of(adjustment), 0)
    return builder.identified()


def identify_backdoor(
    swig: Swig, estimand: Term, adjustment: Sequence[str] | None = None
) -> Derivation:
    t, _ = _single_intervention(swig, estimand)
    if adjustment is not None:
        _check_explicit(swig, adjustment)
        candidates: Iterable[tuple[str, ...]] = [tuple(adjustment)]
    else:
        candidates = _subsets(_adjustment_pool(swig, estimand))
    return _try_candidates(swig, estimand, candidates, _backdoor_attempt)


def _frontdoor_attempt(builder: _Builder, mediators: tuple[str, ...]) -> Derivation:
    swig, est = builder.swig, builder.estimand
    t, do_ref = _single_intervention(swig, est)
    tgt = swig.target(t)
    deps = tuple(n for n, _ in est.dependents)

    builder.apply(rule_total_probability, builder.path_of(deps), mediators)
    builder.apply(
        rule_product, builder.path_of(deps + mediators), [list(deps), list(mediators)]
    )
    # mediator law: insert the target at the intervened value, then deactivate
    builder.apply(rule_ci_modify, builder.path_of(mediators), tgt, "insert", do_ref)
    builder.apply(rule_consistency, builder.path_of(mediators), t)
    builder.apply(rule_redundancy, builder.path_of(mediators))
    # outcome: introduce the target's natural value and switch the regime over
    step = builder.apply(rule_total_probability, builder.path_of(deps), (tgt,))
    natural = Sym(dict(step.justification.introduced)[tgt])
    builder.apply(rule_product, builder.path_of(deps + (tgt,)), [list(deps), [tgt]])
    builder.apply(rule_ci_modify, builder.path_of(deps), swig.intervention(t), "change", natural)
    builder.apply(rule_consistency, builder.path_of(deps), t)
    builder.apply(rule_redundancy, builder.path_of(deps))
    # propensity: peel the mediators off, then drop the intervention
    for m in mediators:
        builder.apply(rule_ci_modify, builder.path_of((tgt,)), m, "delete")
    builder.apply(rule_drop_later, builder.path_of((tgt,)), 0)
    return builder.identified()


def identify_frontdoor(
    swig: Swig, estimand: Term, mediators: Sequence[str] | None = None
) -> Derivation:
    _single_intervention(swig, estimand)
    if mediators is not None:
        _check_explicit(swig, mediators)
        candidates: Iterable[tuple[str, ...]] = [tuple(mediators)]
    else:
        candidates = _subsets(_mediator_pool(swig, estimand), min_size=1)
    derivation = _try_candidates(
        swig, estimand, candidates, _frontdoor_attempt, _dose_blocking(swig, estimand)
    )
    return _or_unreached(swig, estimand, derivation)


def _mediator_pool(swig: Swig, estimand: Term) -> list[str]:
    """Observed variables lying on a directed path from an active
    intervention node to the dependents, in the estimand's regime graph."""
    deps = [n for n, _ in estimand.dependents]
    graph = swig.regime_graph(estimand.regime)
    dos = [swig.intervention(j) for j in sorted(estimand.regime.active)]
    downstream = graph.descendants(dos)
    upstream = graph.ancestors(deps)
    pool = []
    for v in swig.variables:
        if not v.observed or v.name in deps:
            continue
        if v.name in swig.target_of or v.name in swig.intervention_of:
            continue
        if v.name in downstream and v.name in upstream:
            pool.append(v.name)
    return sorted(pool, key=lambda n: (swig.var(n).time, n))


# ---------------------------------------------------------------------------
# sequential recipes

def _chain_conditioners(swig: Swig, estimand: Term) -> dict[str, ValueRef]:
    """Require the conditioners to be exactly the active intervention nodes,
    each pinned; returns node -> value."""
    conds = dict(estimand.conditioners)
    want = {swig.intervention(j) for j in estimand.regime.active}
    if set(conds) != want:
        raise SwigIdentError(
            "estimand must condition on exactly the active intervention nodes"
        )
    for name, ref in conds.items():
        if ref is None:
            raise SwigIdentError(f"{name!r} must be pinned to a value or symbol")
    return conds


# (target variable, ci_modify action, value) for intervention j, or None
AlignMove = Callable[[int, dict[str, ValueRef]], "tuple[str, str, ValueRef] | None"]


def _reduce_factor(
    builder: _Builder,
    dep_names: tuple[str, ...],
    align: AlignMove,
    time: int | None = None,
) -> None:
    """Shared tail of every sequential factor: bring the factor over
    dep_names to regime 0.  Given a time, first drop the active
    interventions after the last one whose target is at or before it.  Then
    for each remaining index j apply the ci_modify move align(j,
    conditioners) returns (target, action, value), if any; deactivate by
    consistency, latest first; and erase the intervention nodes."""
    swig = builder.swig
    path = builder.path_of(dep_names)
    active = sorted(builder.term(path).regime.active)
    if time is not None:
        cut = max((j for j in active if swig.var(swig.target(j)).time <= time), default=0)
        if any(j > cut for j in active):
            builder.apply(rule_drop_later, path, cut)
        active = [j for j in active if j <= cut]
    for j in active:
        path = builder.path_of(dep_names)
        move = align(j, dict(builder.term(path).conditioners))
        if move is not None:
            builder.apply(rule_ci_modify, path, *move)
    for j in reversed(active):
        builder.apply(rule_consistency, builder.path_of(dep_names), j)
    path = builder.path_of(dep_names)
    if any(do in dict(builder.term(path).conditioners) for _, do in swig.pairs):
        builder.apply(rule_redundancy, path)


def _pin_targets(swig: Swig, do_values: dict[str, ValueRef]) -> AlignMove:
    """Align move that conditions each target on its intervention's value."""

    def align(j: int, conds: dict[str, ValueRef]):
        tgt, want = swig.target(j), do_values[swig.intervention(j)]
        if tgt not in conds:
            return tgt, "insert", want
        if conds[tgt] != want:
            return tgt, "change", want
        return None

    return align


def _sequential_backdoor_attempt(builder: _Builder) -> Derivation:
    swig, est = builder.swig, builder.estimand
    align = _pin_targets(swig, _chain_conditioners(swig, est))
    order = sorted(
        (n for n, _ in est.dependents), key=lambda n: (swig.var(n).time, n)
    )
    if len(order) > 1:
        builder.apply(
            rule_product,
            builder.path_of(order),
            [[n] for n in reversed(order)],
        )
    for name in order:
        _reduce_factor(builder, (name,), align, swig.var(name).time)
    return builder.identified()


def identify_sequential_backdoor(swig: Swig, estimand: Term) -> Derivation:
    builder = _Builder(swig, estimand)
    try:
        return _sequential_backdoor_attempt(builder)
    except RuleRefusedError as exc:
        return _not_identified(estimand, exc.blocking)


def _sequential_frontdoor_attempt(
    builder: _Builder, mediators: tuple[str, ...]
) -> Derivation:
    swig, est = builder.swig, builder.estimand
    pin = _pin_targets(swig, _chain_conditioners(swig, est))
    targets = [swig.target(j) for j in sorted(est.regime.active)]
    deps = tuple(n for n, _ in est.dependents)

    # interleave targets and mediators by time, mediators after their dose
    introduced = sorted(
        [*targets, *mediators],
        key=lambda n: (swig.var(n).time, n in mediators, n),
    )
    step = builder.apply(rule_total_probability, builder.path_of(deps), introduced)
    binder_of = dict(step.justification.introduced)
    builder.apply(
        rule_product,
        builder.path_of(deps + tuple(introduced)),
        [list(deps)] + [[n] for n in reversed(introduced)],
    )

    def to_natural(j: int, conds: dict[str, ValueRef]):
        return swig.intervention(j), "change", Sym(binder_of[swig.target(j)])

    # outcome factor: swap every intervention node to the natural value
    _reduce_factor(builder, deps, to_natural)
    # mediator factors: align the targets with the intervention values
    for m in mediators:
        _reduce_factor(builder, (m,), pin, swig.var(m).time)
    # dose factors: drop own and later interventions, swap earlier ones to
    # the natural values, deactivate
    for tgt in targets:
        _reduce_factor(builder, (tgt,), to_natural, swig.var(tgt).time - 1)
    return builder.identified()


def identify_sequential_frontdoor(
    swig: Swig, estimand: Term, mediators: Sequence[str] | None = None
) -> Derivation:
    if not estimand.regime.active:
        raise SwigIdentError("estimand has no active interventions")
    if mediators is not None:
        _check_explicit(swig, mediators)
        candidates: Iterable[tuple[str, ...]] = [tuple(mediators)]
    else:
        pool = _mediator_pool(swig, estimand)
        candidates = [tuple(pool)] if pool else []
    derivation = _try_candidates(
        swig, estimand, candidates, _sequential_frontdoor_attempt, _dose_blocking(swig, estimand)
    )
    return _or_unreached(swig, estimand, derivation)


# ---------------------------------------------------------------------------
# mediator-intervention composition

def _compose_outcome_attempt(
    builder: _Builder, chain: tuple[str, ...], med_values: dict[str, ValueRef]
) -> Derivation:
    """Identify q'(Y | mediator interventions) by introducing the dose
    chain, inserting the natural mediators next to their intervention nodes,
    and deactivating."""
    swig, est = builder.swig, builder.estimand
    deps = tuple(n for n, _ in est.dependents)
    order = sorted(chain, key=lambda n: (swig.var(n).time, n))

    builder.apply(rule_total_probability, builder.path_of(deps), order)
    builder.apply(
        rule_product,
        builder.path_of(deps + tuple(order)),
        [list(deps)] + [[n] for n in reversed(order)],
    )

    def insert_mediator(j: int, conds: dict[str, ValueRef]):
        tgt = swig.target(j)
        return tgt, "insert", med_values[tgt]

    # outcome factor: insert every natural mediator, then deactivate all
    _reduce_factor(builder, deps, insert_mediator)
    # chain factors: drop interventions at or after the variable's time,
    # insert the earlier natural mediators, deactivate
    for name in order:
        _reduce_factor(builder, (name,), insert_mediator, swig.var(name).time - 1)
    return builder.identified()


def compose_mediator_intervention(
    swig_doses: Swig, swig_mediators: Swig, estimand: Term
) -> Derivation:
    """Express the dose effect as the mediator-intervention outcome law
    averaged over the identified mediator law, and identify both factors."""
    if not same_skeleton(swig_doses.base, swig_mediators.base):
        raise SwigIdentError("the two graphs must share variables and edges")
    validate_estimand(swig_doses, estimand)
    do_values = _chain_conditioners(swig_doses, estimand)

    mediators = [swig_mediators.target(j) for j in range(1, swig_mediators.n_interventions + 1)]
    for m in mediators:
        if not swig_doses.var(m).observed:
            raise SwigIdentError(f"mediator target {m!r} is unobserved")

    taken = set()
    for _, ref in (*estimand.dependents, *estimand.conditioners):
        if isinstance(ref, Sym):
            taken.add(ref.name)
    binders = []
    med_values: dict[str, ValueRef] = {}
    for m in mediators:
        sym = fresh_symbol(m.lower(), taken)
        taken.add(sym)
        binders.append(sym)
        med_values[m] = Sym(sym)

    est_m = Term(
        regime=estimand.regime,
        dependents=tuple((m, med_values[m]) for m in mediators),
        conditioners=estimand.conditioners,
    )
    # A refusal without a CI query (say, total_probability over a dependent
    # that is also a dose target) names the doses' query instead.
    fallback = _dose_blocking(swig_doses, estimand)
    mediator_law = identify_sequential_backdoor(swig_doses, est_m)
    if not mediator_law.identified:
        return _not_identified(estimand, mediator_law.blocking or fallback)

    est_y = Term(
        regime=swig_mediators.full_regime,
        dependents=estimand.dependents,
        conditioners=tuple(
            (swig_mediators.intervention_of[m], med_values[m]) for m in mediators
        ),
    )
    chain = tuple(swig_doses.target(j) for j in sorted(estimand.regime.active))
    builder = _Builder(swig_mediators, est_y)
    try:
        outcome = _compose_outcome_attempt(builder, chain, med_values)
    except RuleRefusedError as exc:
        return _not_identified(estimand, exc.blocking or fallback)
    # A dose that reaches a dependent around every mediator target is not
    # cut off by the mediator interventions, so the composition does not hold.
    graph = swig_doses.regime_graph(estimand.regime)
    kept = [v for v in graph.nodes if v not in mediators]
    cut = Graph(kept, {(a, b) for a, b in graph.edges if a in kept and b in kept})
    dos = [swig_doses.intervention(j) for j in estimand.regime.active]
    if not cut.descendants(dos).isdisjoint(estimand.dep_names()):
        return _not_identified(estimand, fallback)

    assembled: ProbExpr = Sum(tuple(binders), Product((outcome.final, mediator_law.final)))
    step = DerivationStep(
        rule="mediator_composition",
        input=estimand,
        output=assembled,
        justification=CompositionJustification(
            mediator_targets=tuple(mediators),
            binders=tuple(binders),
            mediator_law=mediator_law,
            outcome=outcome,
        ),
    )
    return Derivation(estimand, (step,), assembled, IDENTIFIED)


# ---------------------------------------------------------------------------
# search

@dataclass
class SearchStats:
    """What one top_down or bottom_up search did.  Derivation carries it
    outside its JSON and trace, so the output of identify does not depend on
    it.  Refusals count every refused move the search tried, in every
    deepening pass, by rule."""

    expanded: int = 0  # states whose moves were tried
    duplicates: int = 0  # states pruned as seen earlier in the pass at a budget at least as large
    dsep_hits: int = 0  # d_separated calls answered by the Swig's cache
    dsep_misses: int = 0  # d_separated calls worked out on the graph
    refusals: dict[str, int] = field(default_factory=dict)
    depth: int = 0  # most moves on one path the search reached
    keys: int = 0  # canonical keys computed (a state keeps its key)
    key_seconds: float = 0.0  # time spent computing them
    seconds: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


def _search(swig: Swig, estimand: Term, mode: str, depth: int) -> Derivation:
    """Iterative deepening over the move set.  Each pass simplifies, tests
    and expands the states it reaches afresh; the rules' d-separation and
    drop-later answers come from the Swig's cache.  The one memo is each
    simplified state's canonical key, kept for the later passes.  At budget
    1 total_probability moves are skipped: they never refuse, and the term
    they split keeps its active regime and conditioners, so their leaf
    cannot be a goal.  A refusal reports the first blocking query met."""
    observed = set(swig.observed)
    intervention_nodes = set(swig.target_of)
    first_blocking: CiQuery | None = None
    stats = SearchStats()
    cache = swig.cache
    dsep_hits, dsep_size = cache.d_separated_hits, len(cache.d_separated)
    start = time.perf_counter()
    keys: dict[ProbExpr, str] = {}

    def goal(expr: ProbExpr) -> bool:
        if any(not t.regime.is_observational for _, t in terms(expr)):
            return False
        return all(n in observed for n in free_variables(expr))

    def simplify(expr: ProbExpr, steps: list[DerivationStep]):
        """Apply consistency and redundancy greedily: both strictly shrink
        the distance to regime 0 and never block another rule we generate."""
        changed = True
        while changed:
            changed = False
            for path, term in terms(expr):
                conds = dict(term.conditioners)
                if term.regime.is_observational:
                    if any(do in conds for _, do in swig.pairs):
                        try:
                            step = rule_redundancy(swig, expr, path)
                        except RuleRefusedError:
                            continue
                        steps = steps + [step]
                        expr = step.output
                        changed = True
                        break
                    continue
                for j in sorted(term.regime.active, reverse=True):
                    tgt, do = swig.target(j), swig.intervention(j)
                    if (
                        conds.get(tgt) is not None
                        and conds.get(tgt) == conds.get(do)
                    ):
                        step = rule_consistency(swig, expr, path, j)
                        steps = steps + [step]
                        expr = step.output
                        changed = True
                        break
                if changed:
                    break
        return expr, steps

    def moves(expr: ProbExpr):
        """(rule, attempt) pairs in the mode's order; attempt(expr) returns
        the steps of the move."""
        drops, cis, intros = [], [], []
        for path, term in terms(expr):
            conds = dict(term.conditioners)
            deps = set(term.dep_names())
            if term.regime.is_observational:
                continue
            active = sorted(term.regime.active)
            for t in range(active[-1]):
                drops.append(lambda e, p=path, t=t: [rule_drop_later(swig, e, p, t)])
            for j in active:
                tgt, do = swig.target(j), swig.intervention(j)
                if do in conds and conds[do] is not None:
                    if tgt not in conds and tgt not in deps:
                        cis.append(
                            lambda e, p=path, v=tgt, r=conds[do]: [
                                rule_ci_modify(swig, e, p, v, "insert", r)
                            ]
                        )
                    if tgt in conds and conds[tgt] is not None and conds[tgt] != conds[do]:
                        cis.append(
                            lambda e, p=path, v=do, r=conds[tgt]: [
                                rule_ci_modify(swig, e, p, v, "change", r)
                            ]
                        )
            for v in sorted(conds):
                if v not in intervention_nodes:
                    cis.append(
                        lambda e, p=path, v=v: [rule_ci_modify(swig, e, p, v, "delete")]
                    )
            present = deps | set(conds)
            for v in sorted(observed - present, key=lambda n: (swig.var(n).time, n)):
                if v in intervention_nodes:
                    continue

                def intro(e, p=path, v=v, d=tuple(term.dep_names())):
                    s1 = rule_total_probability(swig, e, p, (v,))
                    s2 = rule_product(swig, s1.output, p + (0,), [list(d), [v]])
                    return [s1, s2]

                intros.append(intro)
        groups = [("drop_later", drops), ("ci_modify", cis), ("total_probability", intros)]
        if mode != "top_down":
            groups.reverse()
        return [(rule, attempt) for rule, group in groups for attempt in group]

    def dfs(expr: ProbExpr, steps: list[DerivationStep], budget: int, seen: dict[str, int], moved: int):
        nonlocal first_blocking
        stats.depth = max(stats.depth, moved)
        expr, steps = simplify(expr, steps)
        if goal(expr):
            return steps
        if budget <= 0:
            return None
        key = keys.get(expr)
        if key is None:
            key_start = time.perf_counter()
            key = keys[expr] = to_text(canonicalize(expr))
            stats.keys += 1
            stats.key_seconds += time.perf_counter() - key_start
        # a state seen with a smaller budget may reach a goal now
        if seen.get(key, -1) >= budget:
            stats.duplicates += 1
            return None
        seen[key] = budget
        stats.expanded += 1
        for rule, attempt in moves(expr):
            if budget == 1 and rule == "total_probability":
                continue
            try:
                new_steps = attempt(expr)
            except RuleRefusedError as exc:
                stats.refusals[rule] = stats.refusals.get(rule, 0) + 1
                if first_blocking is None:
                    first_blocking = exc.blocking
                continue
            found = dfs(new_steps[-1].output, steps + new_steps, budget - 1, seen, moved + 1)
            if found is not None:
                return found
        return None

    found = None
    budget = 0
    while found is None and budget < depth:
        budget = min(budget + 2, depth)
        found = dfs(estimand, [], budget, {}, 0)
    stats.dsep_hits = cache.d_separated_hits - dsep_hits
    stats.dsep_misses = len(cache.d_separated) - dsep_size
    stats.seconds = time.perf_counter() - start
    if found is None:
        return Derivation(estimand, (), estimand, NOT_IDENTIFIED, first_blocking, stats)
    final = found[-1].output if found else estimand
    return Derivation(estimand, tuple(found), final, IDENTIFIED, stats=stats)


# ---------------------------------------------------------------------------
# entry point

def identify(
    swig: Swig, estimand: Term, strategy: Strategy | str = "top_down"
) -> Derivation:
    """Derive an observed-data expression for the estimand, or report the
    blocking independence that could not be established."""
    if isinstance(strategy, str):
        strategy = Strategy.parse(strategy)
    validate_estimand(swig, estimand)
    variables = strategy.variables or None
    if strategy.kind == "backdoor":
        return identify_backdoor(swig, estimand, variables)
    if strategy.kind == "frontdoor":
        return identify_frontdoor(swig, estimand, variables)
    if strategy.kind == "sequential_backdoor":
        return identify_sequential_backdoor(swig, estimand)
    if strategy.kind == "sequential_frontdoor":
        return identify_sequential_frontdoor(swig, estimand, variables)
    if strategy.kind == "mediator_intervention":
        mediators = list(variables) if variables else _mediator_pool(swig, estimand)
        if not mediators:
            derivation = _not_identified(estimand, _dose_blocking(swig, estimand))
        else:
            targets = tuple(sorted(mediators, key=lambda n: (swig.var(n).time, n)))
            mediators_swig = _mediators_swig(swig, targets)
            derivation = compose_mediator_intervention(swig, mediators_swig, estimand)
        return _or_unreached(swig, estimand, derivation)
    return _search(swig, estimand, strategy.kind, strategy.depth)


# ---------------------------------------------------------------------------
# numeric verification

@dataclass(frozen=True)
class StepReport:
    index: int
    rule: str
    max_deviation: float
    models_used: int
    models_skipped: int
    passed: bool
    nested: tuple["VerifyReport", ...] = ()
    # Seconds spent evaluating the step's output; a subexpression shared
    # with an earlier expression counts where it was first evaluated.
    # Like VerifyReport.stats, it stays out of to_json() and equality.
    seconds: float = field(default=0.0, compare=False)

    def to_json(self) -> dict:
        out = {
            "index": self.index,
            "rule": self.rule,
            "max_deviation": self.max_deviation,
            "models_used": self.models_used,
            "models_skipped": self.models_skipped,
            "passed": self.passed,
        }
        if self.nested:
            out["nested"] = [r.to_json() for r in self.nested]
        return out


@dataclass(frozen=True)
class VerifyStats:
    """What one verify did beyond its steps: the seconds spent evaluating
    the estimand, the oracle's conditionals built (over all batches) and the
    most entries one of them had, batch axis included, and the seconds in
    all.  The pairwise merges of expression contractions computed and
    reused from the expression before, and the contraction path searches
    run, are summed over all batches and nested reports.  A step skips a
    model for one reason only: its expression conditions on an event of
    probability exactly zero in that model (a zero in a CPT); a positive
    probability, however small, is divided by."""

    estimand_seconds: float = 0.0
    conditionals: int = 0
    largest_table: int = 0
    seconds: float = 0.0
    merges_computed: int = 0
    merges_reused: int = 0
    path_searches: int = 0


@dataclass(frozen=True)
class VerifyReport:
    steps: tuple[StepReport, ...]
    final_deviation: float | None
    final_models: int
    passed: bool
    n_models: int
    seed: int
    tol: float
    stats: VerifyStats = field(default_factory=VerifyStats, compare=False, repr=False)

    def stats_json(self) -> dict:
        """The stats and each step's seconds and skipped models, nested
        reports included; what verify --stats writes."""
        steps = []
        for s in self.steps:
            step = {"index": s.index, "rule": s.rule, "seconds": s.seconds,
                    "skipped": s.models_skipped}
            if s.nested:
                step["nested"] = [r.stats_json() for r in s.nested]
            steps.append(step)
        return {**asdict(self.stats), "steps": steps}

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "final_deviation": self.final_deviation,
            "final_models": self.final_models,
            "passed": self.passed,
            "n_models": self.n_models,
            "seed": self.seed,
            "tol": self.tol,
        }

    def summary(self) -> str:
        lines = []
        for s in self.steps:
            flag = "ok" if s.passed else "FAIL"
            lines.append(
                f"step {s.index:3d} {s.rule:20s} max dev {s.max_deviation:.3e} "
                f"({s.models_used} models, {s.models_skipped} skipped) {flag}"
            )
        if self.final_deviation is not None:
            flag = "ok" if self.final_deviation <= self.tol else "FAIL"
            lines.append(
                f"final vs oracle        max dev {self.final_deviation:.3e} "
                f"({self.final_models} models) {flag}"
            )
        lines.append(f"verdict: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _deviations(a: LabeledTable, b: LabeledTable) -> tuple[np.ndarray, np.ndarray]:
    """Per model of two batch tables: the largest absolute difference over
    the union of their axes, and whether neither skips the model."""
    labels = a.labels + tuple(l for l in b.labels if l not in a.labels)
    diff = np.abs(a.aligned(labels) - b.aligned(labels))
    return diff.reshape(len(diff), -1).max(axis=1), ~(a.skipped | b.skipped)


def _mediators_swig(swig: Swig, targets: tuple[str, ...]) -> Swig:
    """The same skeleton split at the mediators instead of the doses."""
    base = BaseDag(
        variables=swig.base.variables,
        edges=swig.base.edges,
        targets=targets,
        name=f"{swig.base.name}_mediators",
    )
    return to_swig(base)


def _verify_models(
    derivation: Derivation,
    swig: Swig,
    cpts_list: list,
    tol: float,
    seed: int,
) -> VerifyReport:
    start = time.perf_counter()
    validate_derivation(derivation)
    nested: dict[int, tuple[VerifyReport, ...]] = {}
    for idx, step in enumerate(derivation.steps, start=1):
        if step.rule == "mediator_composition":
            just = step.justification
            swig_m = _mediators_swig(swig, just.mediator_targets)
            nested[idx] = (
                _verify_models(just.mediator_law, swig, cpts_list, tol, seed),
                _verify_models(just.outcome, swig_m, cpts_list, tol, seed),
            )

    # Chained expressions: step i maps exprs[i - 1] to exprs[i]; the final
    # check compares the last one with the estimand, exprs[0].
    exprs = [derivation.initial, *(step.output for step in derivation.steps)]
    pairs = list(zip(range(len(exprs) - 1), range(1, len(exprs))))
    if derivation.identified:
        pairs.append((len(exprs) - 1, 0))
    dev = [0.0] * len(pairs)
    used = [0] * len(pairs)
    seconds = [0.0] * len(exprs)
    conditionals = largest = 0
    nested_stats = [r.stats for reports in nested.values() for r in reports]
    computed = sum(s.merges_computed for s in nested_stats)
    reused = sum(s.merges_reused for s in nested_stats)
    searches = sum(s.path_searches for s in nested_stats)
    for batch in model_batches(swig, cpts_list):
        tables = []
        for i, e in enumerate(exprs):
            t0 = time.perf_counter()
            tables.append(eval_expr(batch, e))
            seconds[i] += time.perf_counter() - t0
        sizes = conditional_sizes(batch)
        conditionals += len(sizes)
        largest = max([largest, *sizes])
        c, r, p = contraction_counts(batch)
        computed, reused, searches = computed + c, reused + r, searches + p
        for k, (i, j) in enumerate(pairs):
            d, ok = _deviations(tables[i], tables[j])
            dev[k] = max(dev[k], float(np.max(d[ok], initial=0.0)))
            used[k] += int(ok.sum())

    reports: list[StepReport] = []
    all_passed = True
    for k, step in enumerate(derivation.steps):
        inner = nested.get(k + 1, ())
        passed = dev[k] <= tol and used[k] > 0 and all(r.passed for r in inner)
        all_passed &= passed
        skipped = len(cpts_list) - used[k]
        reports.append(
            StepReport(k + 1, step.rule, dev[k], used[k], skipped, passed, inner, seconds[k + 1])
        )

    final_dev = None
    final_used = 0
    if derivation.identified:
        final_dev, final_used = dev[-1], used[-1]
        all_passed &= final_dev <= tol and final_used > 0
    return VerifyReport(
        steps=tuple(reports),
        final_deviation=final_dev,
        final_models=final_used,
        passed=all_passed,
        n_models=len(cpts_list),
        seed=seed,
        tol=tol,
        stats=VerifyStats(
            seconds[0],
            conditionals,
            largest,
            time.perf_counter() - start,
            computed,
            reused,
            searches,
        ),
    )


def verify(
    derivation: Derivation,
    swig: Swig,
    n_models: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> VerifyReport:
    """Replay every step on random models: input and output must evaluate
    identically, and the final formula must match the oracle estimand."""
    if n_models < 1:
        raise SwigIdentError(f"verify needs at least one model, got {n_models}")
    cpts_list = [
        random_base_cpts(swig.base, np.random.default_rng((seed, i)))
        for i in range(n_models)
    ]
    return _verify_models(derivation, swig, cpts_list, tol, seed)
