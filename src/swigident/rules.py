"""The six rewrite rules.

Each rule takes the whole expression plus the path of the term it rewrites
and returns a DerivationStep.  Rules whose soundness is conditional
(ci modify, drop later, consistency, redundancy) check their side condition
against the graph and raise RuleRefusedError when it fails; total
probability and the product rule hold unconditionally.  A refusal carries
the blocking CiQuery when the failed condition is a d-separation.  The
justifications are plain data with a one-line text form; the derivation
module writes and reads them in derivation files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ExprError, RuleRefusedError
from .expr import (
    DerivationStep,
    Entry,
    ProbExpr,
    Product,
    Sum,
    Term,
    all_symbols,
    fresh_symbol,
    replace_at,
    subexpr_at,
    terms,
)
from .graphs import CiQuery, d_separated, drop_later_obstruction
from .model import Lit, Swig, Sym, ValueRef


@dataclass(frozen=True)
class CiJustification:
    """The conditional independence licensing a ci_modify application."""

    query: CiQuery

    def __str__(self) -> str:
        return f"by {self.query}"


@dataclass(frozen=True)
class ConsistencyJustification:
    t: int
    target: str
    intervention: str
    value: str

    def __str__(self) -> str:
        return f"by consistency at {self.target} = {self.intervention} = {self.value}"


@dataclass(frozen=True)
class DropLaterJustification:
    t: int
    checks: tuple[CiQuery, ...]

    def __str__(self) -> str:
        if not self.checks:
            return f"interventions after {self.t} do not reach the term"
        return "; ".join(f"by {q}" for q in self.checks)


@dataclass(frozen=True)
class RedundancyJustification:
    pairs: tuple[tuple[str, str], ...]

    def __str__(self) -> str:
        eqs = ", ".join(f"{o} = {t}" for t, o in self.pairs)
        return f"under q0, {eqs} almost surely"


@dataclass(frozen=True)
class IntroduceJustification:
    """Variable-to-binder assignment made by a total-probability step."""

    introduced: tuple[tuple[str, str], ...]

    def __str__(self) -> str:
        pairs = ", ".join(f"{v} as {s}" for v, s in self.introduced)
        return f"summing over {pairs}"


@dataclass(frozen=True)
class SplitJustification:
    split: tuple[tuple[str, ...], ...]

    def __str__(self) -> str:
        return "chain rule over " + " ; ".join(", ".join(g) for g in self.split)


def _term_at(e: ProbExpr, path: tuple[int, ...]) -> Term:
    sub = subexpr_at(e, path)
    if not isinstance(sub, Term):
        raise ExprError(f"no term at path {path}")
    return sub


def rule_total_probability(
    swig: Swig,
    e: ProbExpr,
    path: tuple[int, ...],
    new_vars: Sequence[str],
) -> DerivationStep:
    """Replace a term by the sum over fresh values of a joint term that
    additionally carries new_vars as dependents; sound unconditionally."""
    term = _term_at(e, path)
    if not new_vars:
        raise RuleRefusedError("no variables to introduce")
    present = set(term.dep_names()) | set(term.cond_names())
    taken = set(all_symbols(e))
    introduced: list[tuple[str, str]] = []
    new_entries: list[Entry] = []
    for name in new_vars:
        swig.var(name)
        if name in present:
            raise RuleRefusedError(f"{name!r} already appears in the term")
        present.add(name)
        sym = fresh_symbol(name.lower(), taken)
        taken.add(sym)
        introduced.append((name, sym))
        new_entries.append((name, Sym(sym)))
    new_term = Term(term.regime, term.dependents + tuple(new_entries), term.conditioners)
    out = replace_at(e, path, Sum(tuple(s for _, s in introduced), new_term))
    return DerivationStep(
        rule="total_probability",
        input=e,
        output=out,
        justification=IntroduceJustification(tuple(introduced)),
    )


def rule_product(
    swig: Swig,
    e: ProbExpr,
    path: tuple[int, ...],
    split: Sequence[Sequence[str]],
) -> DerivationStep:
    """Chain rule: factor a joint term along an ordered partition of its
    dependents; each factor conditions on all later groups."""
    term = _term_at(e, path)
    groups = [tuple(g) for g in split]
    if len(groups) < 2:
        raise RuleRefusedError("product rule needs at least two groups")
    flat = [n for g in groups for n in g]
    if sorted(flat) != sorted(term.dep_names()) or len(set(flat)) != len(flat):
        raise RuleRefusedError(
            f"split {groups} is not an ordered partition of the dependents"
        )
    by_name = dict(term.dependents)
    factors = []
    for i, group in enumerate(groups):
        deps = tuple((n, by_name[n]) for n in group)
        later = tuple(
            (n, by_name[n]) for g in groups[i + 1 :] for n in g
        )
        factors.append(Term(term.regime, deps, later + term.conditioners))
    out = replace_at(e, path, Product(tuple(factors)))
    return DerivationStep(
        rule="product",
        input=e,
        output=out,
        justification=SplitJustification(tuple(groups)),
    )


def rule_ci_modify(
    swig: Swig,
    e: ProbExpr,
    path: tuple[int, ...],
    var: str,
    action: str,
    value: ValueRef | None = None,
) -> DerivationStep:
    """Insert, delete, or revalue a conditioning variable, licensed by
    d-separation of the dependents from it given the other conditioners.
    A new value must be one of the variable's levels, or a symbol that e
    uses for no variable with another number of levels."""
    term = _term_at(e, path)
    k = swig.var(var).cardinality
    if action not in ("insert", "delete", "change"):
        raise ExprError(f"unknown ci_modify action {action!r}")
    conds = dict(term.conditioners)
    if var in term.dep_names():
        raise RuleRefusedError(f"{var!r} is a dependent of the term")
    if action == "insert" and var in conds:
        raise RuleRefusedError(f"{var!r} is already a conditioner")
    if action in ("delete", "change") and var not in conds:
        raise RuleRefusedError(f"{var!r} is not a conditioner")
    if action == "change" and (value is None or value == conds[var]):
        raise RuleRefusedError("change needs a value different from the current one")

    z = frozenset(n for n in conds if n != var)
    query = CiQuery(term.regime, frozenset(term.dep_names()), frozenset({var}), z)
    if not d_separated(swig, query):
        raise RuleRefusedError(f"not d-separated: {query}", blocking=query)
    if action != "delete" and isinstance(value, Lit) and not 0 <= value.value < k:
        raise RuleRefusedError(f"level {value.value} out of range for {var!r}")
    if action != "delete" and isinstance(value, Sym):
        for _, t in terms(e):
            for name, ref in t.dependents + t.conditioners:
                if isinstance(ref, Sym) and ref == value and swig.var(name).cardinality != k:
                    raise RuleRefusedError(
                        f"symbol {value.name!r} already stands for {name!r}, which "
                        f"has {swig.var(name).cardinality} levels, not {k}"
                    )

    if action == "insert":
        new_conds = term.conditioners + ((var, value),)
    elif action == "delete":
        new_conds = tuple((n, r) for n, r in term.conditioners if n != var)
    else:
        new_conds = tuple(
            (n, value if n == var else r) for n, r in term.conditioners
        )
    out = replace_at(e, path, Term(term.regime, term.dependents, new_conds))
    return DerivationStep(
        rule=f"ci_{action}",
        input=e,
        output=out,
        justification=CiJustification(query),
    )


def rule_consistency(
    swig: Swig,
    e: ProbExpr,
    path: tuple[int, ...],
    t: int,
) -> DerivationStep:
    """Deactivate intervention t in a term whose conditioners pin the target
    and its intervention node to the same value."""
    term = _term_at(e, path)
    if t not in term.regime.active:
        raise RuleRefusedError(f"intervention {t} is not active in {term.regime}")
    tgt, do = swig.target(t), swig.intervention(t)
    conds = dict(term.conditioners)
    if tgt not in conds or do not in conds:
        raise RuleRefusedError(
            f"consistency needs both {tgt!r} and {do!r} among the conditioners"
        )
    if conds[tgt] is None or conds[tgt] != conds[do]:
        raise RuleRefusedError(
            f"consistency needs {tgt!r} and {do!r} pinned to the same value, "
            f"found {conds[tgt]} and {conds[do]}"
        )
    out = replace_at(
        e, path, Term(term.regime.without(t), term.dependents, term.conditioners)
    )
    return DerivationStep(
        rule="consistency",
        input=e,
        output=out,
        justification=ConsistencyJustification(t, tgt, do, str(conds[tgt])),
    )


def rule_drop_later(
    swig: Swig,
    e: ProbExpr,
    path: tuple[int, ...],
    t: int,
) -> DerivationStep:
    """Remove every intervention with index above t from the term: the
    intervention nodes leave the conditioning set and the regime is
    truncated.  Gated by the droppability check."""
    term = _term_at(e, path)
    later = sorted(j for j in term.regime.active if j > t)
    if not later:
        raise RuleRefusedError(f"no active intervention after {t}")
    obstruction, checks = drop_later_obstruction(swig, term, t)
    if obstruction is not None:
        reason, query = obstruction
        raise RuleRefusedError(f"cannot drop interventions after {t}: {reason}", blocking=query)

    dropped = {swig.intervention(j) for j in later}
    new_conds = tuple((n, r) for n, r in term.conditioners if n not in dropped)
    out = replace_at(e, path, Term(term.regime.truncated(t), term.dependents, new_conds))
    return DerivationStep(
        rule="drop_later",
        input=e,
        output=out,
        justification=DropLaterJustification(t, checks),
    )


def rule_redundancy(
    swig: Swig,
    e: ProbExpr,
    path: tuple[int, ...],
) -> DerivationStep:
    """In a regime-0 term, intervention nodes among the conditioners are
    copies of their targets: drop them when the target is pinned to the same
    value, or rename them to the target when it is absent and they are
    pinned (a distribution-valued one names its table's axis)."""
    term = _term_at(e, path)
    if not term.regime.is_observational:
        raise RuleRefusedError("redundancy applies to observed-data terms only")
    conds = dict(term.conditioners)
    dep_names = set(term.dep_names())
    handled: list[tuple[str, str]] = []
    entries = list(term.conditioners)
    for tgt, do in swig.pairs:
        if do not in conds:
            continue
        if tgt in conds:
            if conds[tgt] is None and conds[do] is None:
                raise RuleRefusedError(
                    f"{tgt!r} and {do!r} are both distribution-valued; nothing to equate"
                )
            if conds[tgt] != conds[do]:
                raise RuleRefusedError(
                    f"{tgt!r} and {do!r} are pinned to different values"
                )
            entries = [(n, r) for n, r in entries if n != do]
        else:
            if tgt in dep_names:
                raise RuleRefusedError(
                    f"cannot rename {do!r} to {tgt!r}: it is a dependent"
                )
            if conds[do] is None:
                raise RuleRefusedError(
                    f"cannot rename {do!r} to {tgt!r}: the axis {do!r} would change its name"
                )
            entries = [(tgt, r) if n == do else (n, r) for n, r in entries]
        handled.append((tgt, do))
    if not handled:
        raise RuleRefusedError("no intervention node to remove")
    out = replace_at(e, path, Term(term.regime, term.dependents, tuple(entries)))
    return DerivationStep(
        rule="redundancy",
        input=e,
        output=out,
        justification=RedundancyJustification(tuple(handled)),
    )
