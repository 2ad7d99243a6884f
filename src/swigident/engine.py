"""Identification engine: derivation recipes, search, and numeric audit.

identify is the one entry point; the Derivation it returns, and the rule
for an identified formula, are the derivation module's.  A recipe strategy
reproduces a classic adjustment argument step by step: one driver checks
the estimand's shape, builds the candidate variable sets, and runs the
recipe's attempt on each until one derives the estimand.  The two search
modes explore the same sound move set with different orderings; verify has
oracle.compare evaluate the subtree each step rewrote, in its input and its
output, on random models, and counts a model unless a term of the step's
whole input or output skips it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .derivation import (
    IDENTIFIED,
    NOT_IDENTIFIED,
    CompositionJustification,
    Derivation,
    _mediators_swig,
    is_identified,
    require_identified,
    validate_derivation,
)
from .errors import RuleRefusedError, SwigIdentError
from .expr import (
    DerivationStep,
    ProbExpr,
    Sum,
    Product,
    Term,
    canonicalize,
    fresh_symbol,
    site,
    subexpr_at,
    terms,
    to_text,
    validate_estimand,
)
from .graphs import CiQuery, Graph
from .model import Swig, Sym, ValueRef
from .oracle import Counts, compare, model_count, random_cpt_batch
from .rules import (
    rule_ci_modify,
    rule_consistency,
    rule_drop_later,
    rule_product,
    rule_redundancy,
    rule_total_probability,
)

TOL = 1e-9  # largest deviation verify accepts between two evaluations
# The most models one verify draws.  Every model's CPTs are drawn before the
# first batch is cut, so an unbounded count would grow memory until the
# process is killed.
MODEL_LIMIT = 10_000


@dataclass(frozen=True)
class Strategy:
    """How identify should proceed: a named recipe with optional explicit
    variable set, or a bounded search."""

    kind: str
    variables: tuple[str, ...] = ()
    depth: int = 16

    def __post_init__(self) -> None:
        kinds = (*_ATTEMPTS, "top_down", "bottom_up")
        if self.kind not in kinds:
            raise SwigIdentError(f"unknown strategy {self.kind!r}; choose from {', '.join(kinds)}")
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

    def identified(self) -> Derivation:
        """The derivation so far.  A formula that names a hidden variable is
        refused, with no blocking query."""
        require_identified(self.expr, self.swig)
        return Derivation(self.estimand, tuple(self.steps), self.expr, IDENTIFIED)


def _by_time(swig: Swig, names: Iterable[str]) -> list[str]:
    return sorted(names, key=lambda n: (swig.var(n).time, n))


def _pool(swig: Swig, estimand: Term, on_path: bool) -> list[str]:
    """Observed variables that are neither dependents nor split nodes, in
    time order.  With on_path, only the mediators: those on a directed path
    from an active intervention node to the dependents, in the estimand's
    regime graph."""
    deps = estimand.dep_names()
    pool = [
        v.name
        for v in swig.variables
        if v.observed
        and v.name not in deps
        and v.name not in swig.target_of
        and v.name not in swig.intervention_of
    ]
    if on_path:
        graph = swig.regime_graph(estimand.regime)
        dos = [swig.intervention(j) for j in sorted(estimand.regime.active)]
        between = graph.descendants(dos) & graph.ancestors(deps)
        pool = [n for n in pool if n in between]
    return _by_time(swig, pool)


def _dose_blocking(swig: Swig, estimand: Term) -> CiQuery | None:
    """Fallback blocking query of the recipes: the dependents independent of
    the intervention nodes given their targets, less the dependents
    themselves (a dependent may be a target).  None when no active
    intervention node lies outside the dependents: that query has an empty
    side, and holds."""
    deps = frozenset(estimand.dep_names())
    dos = frozenset(swig.intervention(j) for j in estimand.regime.active)
    tgts = frozenset(swig.target(j) for j in estimand.regime.active)
    if not dos - deps:
        return None
    return CiQuery(estimand.regime, deps, dos - deps, tgts - deps)


def _or_unreached(swig: Swig, estimand: Term, blocking: CiQuery | None) -> Derivation:
    """A recipe's refusal, unless drop_later removes the estimand's whole
    regime: then the doses do not reach the dependents, q_s(dependents |
    doses) = q0(dependents), and the recipe's blocking query may well hold.
    The answer is that one-step derivation, or, when a dependent is
    unobserved, a refusal with no blocking query."""
    builder = _Builder(swig, estimand)
    try:
        builder.apply(rule_drop_later, (), 0)
        blocking = None  # from here on, a refusal is a hidden dependent's
        return builder.identified()
    except RuleRefusedError:
        return Derivation(estimand, (), estimand, NOT_IDENTIFIED, blocking)


# (target variable, ci_modify action, value) for intervention j, or None
AlignMove = Callable[[int, dict[str, ValueRef]], "tuple[str, str, ValueRef] | None"]


def _introduce(
    builder: _Builder,
    deps: tuple[str, ...],
    new: Sequence[str],
    groups: Sequence[Sequence[str]],
) -> dict[str, str]:
    """Sum the new variables into the term over deps, then split the joint
    into deps and the groups, each factor conditioning on the groups after
    it.  Returns each new variable's binder."""
    step = builder.apply(rule_total_probability, builder.path_of(deps), new)
    builder.apply(rule_product, builder.path_of((*deps, *new)), [deps, *groups])
    return dict(step.justification.introduced)


def _settle(
    swig: Swig, expr: ProbExpr, path: tuple[int, ...], steps: list[DerivationStep]
) -> tuple[ProbExpr, list[DerivationStep]]:
    """The recipes' and the search's one way to apply the free rules to the
    term at path: consistency at each index whose target and intervention
    node are pinned to the same value, latest first; then, once the term is
    in regime 0 and still holds an intervention node, redundancy, unless it
    refuses.  Both rewrite the term in place, so every path stays valid.
    Returns the expression and a new list: steps plus the steps applied."""
    term = subexpr_at(expr, path)
    conds = dict(term.conditioners)
    for j in sorted(term.regime.active, reverse=True):
        if (v := conds.get(swig.target(j))) is not None and v == conds.get(swig.intervention(j)):
            steps = steps + [rule_consistency(swig, expr, path, j)]
            expr = steps[-1].output
    if subexpr_at(expr, path).regime.is_observational and swig.target_of.keys() & conds.keys():
        try:
            steps = steps + [rule_redundancy(swig, expr, path)]
        except RuleRefusedError:
            return expr, steps
        expr = steps[-1].output
    return expr, steps


def _reduce_factor(
    builder: _Builder,
    dep_names: tuple[str, ...],
    align: AlignMove,
    time: int | None = None,
) -> None:
    """Shared tail of every recipe factor: bring the factor over dep_names
    to regime 0.  Given a time, first drop the active interventions after
    the last one whose target is at or before it.  Then for each remaining
    index j apply the ci_modify move align(j, conditioners) returns
    (target, action, value), if any, and _settle the term.  A term that does
    not settle to regime 0 free of intervention nodes is refused, with no
    blocking query."""
    swig = builder.swig
    path = builder.path_of(dep_names)  # each rule below rewrites the term in place
    active = sorted(subexpr_at(builder.expr, path).regime.active)
    if time is not None:
        cut = max((j for j in active if swig.var(swig.target(j)).time <= time), default=0)
        if any(j > cut for j in active):
            builder.apply(rule_drop_later, path, cut)
        active = [j for j in active if j <= cut]
    for j in active:
        move = align(j, dict(subexpr_at(builder.expr, path).conditioners))
        if move is not None:
            builder.apply(rule_ci_modify, path, *move)
    builder.expr, builder.steps = _settle(swig, builder.expr, path, builder.steps)
    term = subexpr_at(builder.expr, path)
    if not term.regime.is_observational or swig.target_of.keys() & term.cond_names():
        raise RuleRefusedError(f"{to_text(term)} does not settle to regime 0")


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


def _to_natural(swig: Swig, binder_of: dict[str, str]) -> AlignMove:
    """Align move that revalues each intervention node to its target's
    natural value, the binder total_probability introduced for it."""
    return lambda j, conds: (swig.intervention(j), "change", Sym(binder_of[swig.target(j)]))


# ---------------------------------------------------------------------------
# recipe attempts: each derives the estimand from one candidate variable set
# or raises RuleRefusedError

def _backdoor(builder: _Builder, adjustment: tuple[str, ...]) -> Derivation:
    swig, est = builder.swig, builder.estimand
    (t,) = est.regime.active
    deps = est.dep_names()
    align = _pin_targets(swig, dict(est.conditioners))
    if adjustment:
        _introduce(builder, deps, adjustment, [adjustment])
    _reduce_factor(builder, deps, align)
    if adjustment:
        _reduce_factor(builder, adjustment, align, swig.var(swig.target(t)).time - 1)
    return builder.identified()


def _frontdoor(builder: _Builder, mediators: tuple[str, ...]) -> Derivation:
    swig, est = builder.swig, builder.estimand
    (t,) = est.regime.active
    tgt = swig.target(t)
    deps = est.dep_names()
    _introduce(builder, deps, mediators, [mediators])
    # mediator law: pin the target to the intervened value, then deactivate
    _reduce_factor(builder, mediators, _pin_targets(swig, dict(est.conditioners)))
    # outcome: introduce the target's natural value and switch the regime over
    natural = _to_natural(swig, _introduce(builder, deps, (tgt,), [(tgt,)]))
    _reduce_factor(builder, deps, natural)
    # propensity: peel the mediators off, then drop the intervention
    for m in mediators:
        builder.apply(rule_ci_modify, builder.path_of((tgt,)), m, "delete")
    _reduce_factor(builder, (tgt,), natural, swig.var(tgt).time - 1)
    return builder.identified()


def _sequential_backdoor(builder: _Builder, _: tuple[str, ...] = ()) -> Derivation:
    swig, est = builder.swig, builder.estimand
    align = _pin_targets(swig, dict(est.conditioners))
    order = _by_time(swig, est.dep_names())
    if len(order) > 1:
        builder.apply(rule_product, builder.path_of(order), [[n] for n in reversed(order)])
    for name in order:
        _reduce_factor(builder, (name,), align, swig.var(name).time)
    return builder.identified()


def _sequential_frontdoor(builder: _Builder, mediators: tuple[str, ...]) -> Derivation:
    swig, est = builder.swig, builder.estimand
    targets = [swig.target(j) for j in sorted(est.regime.active)]
    deps = est.dep_names()
    # interleave targets and mediators by time, mediators after their dose
    introduced = sorted(
        [*targets, *mediators],
        key=lambda n: (swig.var(n).time, n in mediators, n),
    )
    binder_of = _introduce(builder, deps, introduced, [[n] for n in reversed(introduced)])
    natural = _to_natural(swig, binder_of)
    # outcome factor: swap every intervention node to the natural value
    _reduce_factor(builder, deps, natural)
    # mediator factors: align the targets with the intervention values
    pin = _pin_targets(swig, dict(est.conditioners))
    for m in mediators:
        _reduce_factor(builder, (m,), pin, swig.var(m).time)
    # dose factors: drop own and later interventions, swap earlier ones to
    # the natural values, deactivate
    for tgt in targets:
        _reduce_factor(builder, (tgt,), natural, swig.var(tgt).time - 1)
    return builder.identified()


def _mediator_intervention(builder: _Builder, mediators: tuple[str, ...]) -> Derivation:
    """Express the dose effect as the outcome law under interventions on the
    mediators, on the graph split at them, averaged over the mediator law,
    and identify both factors.  A refusal of the outcome law carries no
    blocking query: its queries are the mediator graph's, so the driver
    names the doses' query instead."""
    swig, est = builder.swig, builder.estimand
    targets = tuple(_by_time(swig, mediators))
    swig_m = _mediators_swig(swig, targets)
    taken = {ref.name for _, ref in (*est.dependents, *est.conditioners) if isinstance(ref, Sym)}
    med_values: dict[str, ValueRef] = {}
    for m in targets:
        med_values[m] = Sym(fresh_symbol(m.lower(), taken))
        taken.add(med_values[m].name)
    binders = tuple(v.name for v in med_values.values())

    est_m = Term(est.regime, tuple(med_values.items()), est.conditioners)
    mediator_law = _sequential_backdoor(_Builder(swig, est_m))

    est_y = Term(
        swig_m.full_regime,
        est.dependents,
        tuple((swig_m.intervention_of[m], v) for m, v in med_values.items()),
    )
    outcome = _Builder(swig_m, est_y)
    # introduce the dose chain, insert the natural mediators next to their
    # intervention nodes, and deactivate
    chain = _by_time(swig, (swig.target(j) for j in est.regime.active))
    insert = _pin_targets(swig_m, dict(est_y.conditioners))
    try:
        _introduce(outcome, est.dep_names(), chain, [[n] for n in reversed(chain)])
        _reduce_factor(outcome, est.dep_names(), insert)
        for name in chain:
            _reduce_factor(outcome, (name,), insert, swig.var(name).time - 1)
        outcome_law = outcome.identified()
    except RuleRefusedError as exc:
        raise RuleRefusedError(f"outcome law: {exc}") from exc
    # A dose that reaches a dependent around every mediator target is not
    # cut off by the mediator interventions, so the composition does not hold.
    graph = swig.regime_graph(est.regime)
    kept = [v for v in graph.nodes if v not in targets]
    cut = Graph(kept, {(a, b) for a, b in graph.edges if a in kept and b in kept})
    dos = [swig.intervention(j) for j in est.regime.active]
    if not cut.descendants(dos).isdisjoint(est.dep_names()):
        raise RuleRefusedError("a dose reaches the dependents around every mediator")

    assembled: ProbExpr = Sum(binders, Product((outcome_law.final, mediator_law.final)))
    step = DerivationStep(
        rule="mediator_composition",
        input=est,
        output=assembled,
        justification=CompositionJustification(targets, binders, mediator_law, outcome_law),
    )
    return Derivation(est, (step,), assembled, IDENTIFIED)


_ATTEMPTS: dict[str, Callable[[_Builder, tuple[str, ...]], Derivation]] = {
    "backdoor": _backdoor,
    "frontdoor": _frontdoor,
    "sequential_backdoor": _sequential_backdoor,
    "sequential_frontdoor": _sequential_frontdoor,
    "mediator_intervention": _mediator_intervention,
}


def _recipe(swig: Swig, estimand: Term, strategy: Strategy) -> Derivation:
    """Run the recipe's attempt on each candidate variable set in turn and
    return the first derivation.  A refusal names the first blocking query
    an attempt met, else the doses' query, and when the doses do not reach
    the dependents the answer is q0(dependents).

    The candidates are the named variables if any; otherwise every subset of
    the adjustment pool (backdoor), every nonempty subset of the mediators
    (frontdoor), all the mediators (sequential_frontdoor,
    mediator_intervention), or none (sequential_backdoor)."""
    kind, named = strategy.kind, strategy.variables
    active = sorted(estimand.regime.active)
    if kind in ("backdoor", "frontdoor") and len(active) != 1:
        raise SwigIdentError(
            "this recipe handles a single intervention; use the sequential recipes"
        )
    if kind in ("sequential_frontdoor", "mediator_intervention") and not active:
        raise SwigIdentError("estimand has no active interventions")
    conds = dict(estimand.conditioners)
    if set(conds) != {swig.intervention(j) for j in active}:
        raise SwigIdentError("estimand must condition on exactly the active intervention nodes")
    for name, ref in conds.items():
        if ref is None:
            raise SwigIdentError(f"{name!r} must be pinned to a value or symbol")
    targets = {swig.target(j) for j in active}
    for i, name in enumerate(named):
        why = (
            "is unobserved" if not swig.var(name).observed
            else "is an intervention node" if name in swig.target_of
            else "is named twice" if name in named[:i]
            else "is a dependent" if name in estimand.dep_names()
            else "is the target of an active intervention" if name in targets
            else None
        )
        if why:
            raise SwigIdentError(f"{name!r} {why} and cannot be adjusted for")

    candidates: Iterable[tuple[str, ...]] = [named]
    if not named and kind != "sequential_backdoor":
        pool = _pool(swig, estimand, on_path=kind != "backdoor")
        if kind in ("backdoor", "frontdoor"):
            sizes = range(kind == "frontdoor", len(pool) + 1)
            candidates = (c for k in sizes for c in itertools.combinations(sorted(pool), k))
        else:
            candidates = [tuple(pool)] if pool else []
    blocking: CiQuery | None = None
    for candidate in candidates:
        try:
            return _ATTEMPTS[kind](_Builder(swig, estimand), candidate)
        except RuleRefusedError as exc:
            if blocking is None:
                blocking = exc.blocking
    return _or_unreached(swig, estimand, blocking or _dose_blocking(swig, estimand))


# ---------------------------------------------------------------------------
# search

@dataclass
class SearchStats:
    """What one top_down or bottom_up search did.  Derivation carries it
    outside its JSON and trace, so the output of identify does not depend on
    it.  Refusals count every refused move the search met, in every
    deepening pass, by rule."""

    expanded: int = 0  # states whose moves were tried
    duplicates: int = 0  # states pruned as seen earlier in the pass at a budget at least as large
    pruned: int = 0  # states pruned as needing more moves than their budget (_moves_left)
    applied: int = 0  # moves attempt applied (refused ones too; not the found path's replay)
    dsep_hits: int = 0  # d_separated calls answered by the Swig's cache
    dsep_misses: int = 0  # d_separated calls worked out on the graph
    refusals: dict[str, int] = field(default_factory=dict)
    depth: int = 0  # most moves on one path the search reached
    keys: int = 0  # canonical keys computed (a state keeps its key)
    key_seconds: float = 0.0  # time spent computing them
    seconds: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(slots=True)
class _State:
    """What the search learned of one settled state, kept for the whole
    identify call: its canonical key, the indices of its refused moves as
    a bitmask, and the settled child of each accepted move by index."""

    key: str
    refused: int = 0
    children: dict[int, ProbExpr] = field(default_factory=dict)


def _moves_left(expr: ProbExpr) -> int:
    """A lower bound on the moves a settled expression needs to reach an
    identified formula: its terms not in regime 0.  Each move rewrites one
    term, an introduction leaves both of its terms in the regime they had,
    and no rule removes a term."""
    return sum(not t.regime.is_observational for _, t in terms(expr))


def _search(swig: Swig, estimand: Term, mode: str, depth: int) -> Derivation:
    """Iterative deepening over the move set, pruned by a lower bound on the
    moves left (IDA*).  The estimand and each move's result are settled
    (_settle on each term, free: it only nears regime 0 and blocks no
    move); moves are (rule, path, arguments) data that attempt applies.
    The rules' d-separation and drop-later answers come from the Swig's
    cache.  Each settled state the search keys gets one record, kept for
    the call (a transposition table of its expansion): its canonical key,
    its refused moves and the settled child of each accepted move.  So each
    move is applied at most once per call; a later pass counts a refusal
    or descends into a recorded child with no rule applied.  The path is
    carried as moves, and the derivation's steps are rebuilt once at the
    end by applying the found path's moves and settles again.  A refusal
    reports the first blocking query met.

    Once that query is recorded, a state whose terms outside regime 0
    (_moves_left) outnumber its budget is pruned before its key is
    computed: the subtree holds no goal within the budget, so the first
    goal in depth-first order, and the derivation, stay the same.  Before
    it, the traversal is the unpruned one, so the first refused move, and
    the blocking query, stay the same too.  An introduction's child has
    exactly one more such term than its parent (the two new terms keep the
    split term's regime, and the settle cannot move them: the binder is
    fresh and the old conditioners were settled), so an introduction whose
    child the bound would prune is skipped, and counted, before it is
    applied.  At budget 1 introductions are skipped uncounted, as their
    child would have no budget."""
    observed = set(swig.observed)
    intervention_nodes = set(swig.target_of)
    first_blocking: CiQuery | None = None
    stats = SearchStats()
    cache = swig.cache
    dsep_hits, dsep_size = cache.d_separated_hits, len(cache.d_separated)
    start = time.perf_counter()
    states: dict[ProbExpr, _State] = {}

    def moves(expr: ProbExpr) -> list[tuple[str, tuple[int, ...], tuple]]:
        """The moves out of expr as (rule, path, arguments), in the mode's
        order: drop_later (t,), ci_modify (var, action[, value]) and
        introductions total_probability (var, dependents)."""
        drops, cis, intros = [], [], []
        for path, term in terms(expr):
            if term.regime.is_observational:
                continue
            conds = dict(term.conditioners)
            deps = term.dep_names()
            active = sorted(term.regime.active)
            drops += [("drop_later", path, (t,)) for t in range(active[-1])]
            for j in active:
                tgt, do = swig.target(j), swig.intervention(j)
                if do in conds and conds[do] is not None:
                    if tgt not in conds and tgt not in deps:
                        cis.append(("ci_modify", path, (tgt, "insert", conds[do])))
                    if tgt in conds and conds[tgt] is not None and conds[tgt] != conds[do]:
                        cis.append(("ci_modify", path, (do, "change", conds[tgt])))
            kept = sorted(conds.keys() - intervention_nodes)
            cis += [("ci_modify", path, (v, "delete")) for v in kept]
            fresh = observed - intervention_nodes - set(deps) - set(conds)
            intros += [("total_probability", path, (v, deps)) for v in _by_time(swig, fresh)]
        groups = [drops, cis, intros]
        if mode != "top_down":
            groups.reverse()
        return [move for group in groups for move in group]

    def attempt(expr: ProbExpr, rule: str, path: tuple[int, ...], args: tuple):
        """The steps of one move: one rule's, or an introduction's two, the
        variable summed in and then split off by product."""
        if rule == "drop_later":
            return [rule_drop_later(swig, expr, path, *args)]
        if rule == "ci_modify":
            return [rule_ci_modify(swig, expr, path, *args)]
        v, deps = args
        intro = rule_total_probability(swig, expr, path, (v,))
        return [intro, rule_product(swig, intro.output, path + (0,), [list(deps), [v]])]

    def settle(expr: ProbExpr, steps: list[DerivationStep]):
        """_settle on each term of expr: the expression, and steps plus the steps applied."""
        for path, _ in terms(expr):
            expr, steps = _settle(swig, expr, path, steps)
        return expr, steps

    def dfs(expr: ProbExpr, route: list, budget: int, seen: dict[str, int]):
        """The moves (state, rule, path, arguments) from the root to a goal
        within budget of the settled expr, which route reaches; or None."""
        nonlocal first_blocking
        stats.depth = max(stats.depth, len(route))
        if is_identified(expr, swig):
            return route
        if budget <= 0:
            return None
        left = _moves_left(expr)
        if first_blocking is not None and left > budget:
            stats.pruned += 1
            return None
        state = states.get(expr)
        if state is None:
            key_start = time.perf_counter()
            state = states[expr] = _State(to_text(canonicalize(expr)))
            stats.keys += 1
            stats.key_seconds += time.perf_counter() - key_start
        # a state seen with a smaller budget may reach a goal now
        if seen.get(state.key, -1) >= budget:
            stats.duplicates += 1
            return None
        seen[state.key] = budget
        stats.expanded += 1
        for i, (rule, path, args) in enumerate(moves(expr)):
            if rule == "total_probability" and budget == 1:
                continue
            if rule == "total_probability" and first_blocking is not None and left + 1 > budget - 1:
                stats.pruned += 1
                stats.depth = max(stats.depth, len(route) + 1)
                continue
            if state.refused >> i & 1:
                stats.refusals[rule] += 1
                continue
            child = state.children.get(i)
            if child is None:
                stats.applied += 1
                try:
                    output = attempt(expr, rule, path, args)[-1].output
                except RuleRefusedError as exc:
                    state.refused |= 1 << i
                    stats.refusals[rule] = stats.refusals.get(rule, 0) + 1
                    if first_blocking is None:
                        first_blocking = exc.blocking
                    continue
                child = state.children[i] = settle(output, [])[0]
            found = dfs(child, route + [(expr, rule, path, args)], budget - 1, seen)
            if found is not None:
                return found
        return None

    root, steps = settle(estimand, [])
    found = None
    budget = 0
    while found is None and budget < depth:
        budget = min(budget + 2, depth)
        found = dfs(root, [], budget, {})
    if found is not None:
        for state, rule, path, args in found:
            steps = steps + attempt(state, rule, path, args)
            _, steps = settle(steps[-1].output, steps)
    stats.dsep_hits = cache.d_separated_hits - dsep_hits
    stats.dsep_misses = len(cache.d_separated) - dsep_size
    stats.seconds = time.perf_counter() - start
    if found is None:
        return Derivation(estimand, (), estimand, NOT_IDENTIFIED, first_blocking, stats)
    final = steps[-1].output if steps else estimand
    return Derivation(estimand, tuple(steps), final, IDENTIFIED, stats=stats)


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
    if strategy.kind in _ATTEMPTS:
        return _recipe(swig, estimand, strategy)
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
    # Seconds spent evaluating the step's two sites, the rewritten subtree
    # of its input and of its output; a subexpression still memoised from
    # an earlier site counts where it was first evaluated.  Like
    # VerifyReport.stats, it stays out of to_json() and equality.
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


@dataclass
class VerifyStats(Counts):
    """What one verify did beyond its steps: the oracle's counts (Counts)
    over all batches and nested reports, and three timings.  A conditional
    is built per regime, dependents, conditioners and tie pattern, so a term
    whose conditioners share a symbol has its own, smaller table.  _plan
    keeps the paths it searched for the process, so a shape met by an
    earlier request is not searched again, and a repeated verify reports 0
    path_searches.  estimand_seconds is the time spent evaluating the
    estimand (the final check's other side, the final formula, counts in
    seconds alone), seconds the time in all, after the models were drawn,
    and draw_seconds the time verify took to draw the models' CPTs; a
    nested report reuses its parent's models and reads 0.  A step skips a
    model for one reason only: its expression conditions on an event of
    probability exactly zero in that model (a zero in a CPT); a positive
    probability, however small, is divided by."""

    estimand_seconds: float = 0.0
    seconds: float = 0.0
    draw_seconds: float = 0.0


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


def _verify_models(
    derivation: Derivation,
    swig: Swig,
    cpts: dict,
    seed: int,
) -> VerifyReport:
    """verify's report on the models of the base-graph CPTs cpts, stacked
    on a leading model axis; nested reports use the same arrays."""
    start = time.perf_counter()
    validate_derivation(derivation, swig)
    if not (derivation.identified or derivation.steps):
        raise SwigIdentError(
            "nothing to verify: the derivation is not identified and has no steps"
        )
    nested: dict[int, tuple[VerifyReport, ...]] = {}
    for idx, step in enumerate(derivation.steps, start=1):
        if step.rule == "mediator_composition":
            just = step.justification
            swig_m = _mediators_swig(swig, just.mediator_targets)
            nested[idx] = (
                _verify_models(just.mediator_law, swig, cpts, seed),
                _verify_models(just.outcome, swig_m, cpts, seed),
            )

    # Chained expressions: step k maps exprs[k - 1] to exprs[k].  Pair 0
    # compares the final formula with the estimand (identified derivations
    # only); the pair of step k, its rewritten site in its input and in its
    # output.  Evaluation is compositional, so if the two sites agree as
    # tables over their own labels, the whole expressions agree: the check
    # is never weaker than comparing them whole.  A model counts for a pair
    # unless a term of either whole expression skips it; ends[i] names
    # those two expressions.
    steps = derivation.steps
    exprs = [derivation.estimand, *(step.output for step in steps)]
    pairs = [(exprs[0], exprs[-1])] if derivation.identified else []
    ends = [(0, len(steps))] if derivation.identified else []
    first = len(pairs)
    for k, step in enumerate(steps, start=1):
        path = site(step.input, step.output)
        pairs.append((subexpr_at(step.input, path), subexpr_at(step.output, path)))
        ends.append((k - 1, k))
    found = compare(swig, cpts, pairs)
    n_models = model_count(cpts)
    skip = [np.logical_or.reduce([found.masks[t] for _, t in terms(e)]) for e in exprs]
    dev, used = [], []
    for (a, b), deviations in zip(ends, found.deviations):
        ok = ~(skip[a] | skip[b])
        dev.append(float(np.max(deviations[ok], initial=0.0)))
        used.append(int(ok.sum()))

    reports: list[StepReport] = []
    all_passed = True
    for k, step in enumerate(steps, start=1):
        i = first + k - 1
        inner = nested.get(k, ())
        passed = dev[i] <= TOL and used[i] > 0 and all(r.passed for r in inner)
        all_passed &= passed
        skipped = n_models - used[i]
        seconds = float(found.seconds[i].sum())
        reports.append(
            StepReport(k, step.rule, dev[i], used[i], skipped, passed, inner, seconds)
        )

    final_dev = None
    final_used = 0
    stats = VerifyStats()
    if derivation.identified:
        final_dev, final_used = dev[0], used[0]
        all_passed &= final_dev <= TOL and final_used > 0
        stats.estimand_seconds = float(found.seconds[0, 0])
    for counts in (found.counts, *(r.stats for inner in nested.values() for r in inner)):
        stats.add(counts)
    stats.seconds = time.perf_counter() - start
    return VerifyReport(
        steps=tuple(reports),
        final_deviation=final_dev,
        final_models=final_used,
        passed=all_passed,
        n_models=n_models,
        seed=seed,
        tol=TOL,
        stats=stats,
    )


def verify(
    derivation: Derivation,
    swig: Swig,
    n_models: int = 100,
    seed: int = 0,
) -> VerifyReport:
    """Replay every step on random models: the site each step rewrites
    (expr.site) must evaluate identically in its input and its output, and
    the final formula must match the oracle estimand.  Model i is drawn
    from np.random.default_rng((seed, i)); random_cpt_batch draws all of
    them as one stacked batch, and stats.draw_seconds times it.  A
    not_identified derivation with no steps has nothing to check, and
    raises SwigIdentError, as do a number of models outside 1..MODEL_LIMIT
    and an expression nested too deeply to evaluate."""
    if n_models < 1:
        raise SwigIdentError(f"verify needs at least one model, got {n_models}")
    if n_models > MODEL_LIMIT:
        raise SwigIdentError(f"verify takes at most {MODEL_LIMIT} models, got {n_models}")
    if seed < 0:
        raise SwigIdentError(f"a seed must be a non-negative integer, got {seed}")
    start = time.perf_counter()
    rngs = [np.random.default_rng((seed, i)) for i in range(n_models)]
    cpts = random_cpt_batch(swig.base, rngs)
    drawn = time.perf_counter() - start
    try:
        report = _verify_models(derivation, swig, cpts, seed)
    except RecursionError:  # in evaluation; validate_derivation names the field it compared
        raise SwigIdentError("malformed derivation: an expression is nested too deeply") from None
    return replace(report, stats=replace(report.stats, draw_seconds=drawn))
