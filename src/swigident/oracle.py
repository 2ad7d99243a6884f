"""Exact ground-truth semantics for discrete models on a split graph.

A DiscreteModel holds one CPT per non-intervention variable; intervention
nodes get their law from the regime: a deterministic copy of their target
when inactive, a uniform full-support law when active.  The uniform choice
only matters up to conditioning on the intervention nodes and is verified
inert by the test suite.  regime_factors lists these factors in one place.

There are two exact ways to a conditional q_s(A | B).  The reference is the
dense joint: joint multiplies every factor into one 2^|V|-sized table, and
RegimeJoint.conditional sums it down; the tests compare against it.  The
package itself takes the ancestral way: ancestral_conditional keeps only
the factors of the ancestors of A and B in the regime graph, since every
other variable is barren and sums out to 1 (Shachter 1986), and contracts
them two at a time along the path _plan finds, so no dense joint is built
and query and brute_force_ci do not stop at STATE_LIMIT over all variables.
Conditioners that share a symbol (D1=d1, Do1=d1) are evidence, taken before
the contraction: a term hands its tie pattern (tie_pattern) to the table's
provider, the factors are relabelled so that tied conditioners share one
label, and the table has one axis per distinct conditioner.  Tables are
memoised per tie pattern: the key is (regime, dependents, conditioners,
pattern).  The memo answers what it can derive: a tied conditional whose
(regime, dependents, conditioners) the memo holds under a finer pattern is
that table's diagonal over the tied axes (_derived), copied, with no
contraction and no arithmetic (after Halevy 2001, answering queries using
views).

A model may also be a batch: N models of one graph with their CPTs stacked
on a leading axis, so that joints, conditionals and expression values carry
one table per model.  A single model is a batch of one: regime_factors gives
its CPTs as views with a model axis of one, so every table the ancestral way
builds carries the model axis, and ancestral_conditional hands a single
model's caller the [0] view of the table it memoises.  Expressions are
evaluated by one batched evaluator: a term is a view of the model's
memoised conditional plus a per-model mask of the models for which it
conditions on a zero-probability event, and each sum or product is
contracted two tables at a time (one einsum over the model axis and the
pair's labels), along the path _plan finds.  A model's Counts record counts
the merges and the conditionals built and derived; compare fills one over
all its batches, with the paths searched and the peak of live bytes.
Values are memoised per model (or batch), so each distinct expression is
evaluated once; compare, verify's batch loop, drops each value and
conditional after the last pair of expressions that uses it.
random_cpt_batch draws the CPTs of many random models at once, stacked on a
leading model axis: each model's generator fills all of its variables with
one standard_exponential call, and each variable is normalised over all
models together, which gives each model's dirichlet draws bit for bit.
model_batches cuts the stacked CPTs into batches as slices, each bounded so
that its joint would have at most STATE_LIMIT entries, as large as one
model's joint may be; every table the ancestral way builds is labelled by a
subset of the variables, so that bound holds for it too.  Conditionals and
expressions both contract through _run, which runs the program _plan
compiles: the path, and for each merge its einsum subscripts and whether
it takes einsum's matmul path, so _run is a loop of np.einsum calls.  A
program depends on the contraction's shape alone, without the number of
models, so _plan memoises it once for the process: each shape is searched
and compiled once, whatever the models, single or batched, or the requests
(after opt_einsum, Smith & Gray 2018, which plans a path once per shape).
_plan refuses a merge whose einsum would take more than EINSUM_LABELS labels
or whose table would have more than STATE_LIMIT entries for one model, and
_run raises that refusal before any merge runs.  The entry points that read
one model's numbers (query, brute_force_ci, sample and model_to_json) refuse
a batch.

The data path does no Python work per row or cell.  sample draws the regime
graph's variables in topological order, each from the cumulative sums of its
CPT at the row one ravel_multi_index over its parents' columns selects, so a
seed fixes the rows.  Dataset.write_csv lays the rows out as one byte block
and writes exactly what csv.writer would; Dataset.read_csv parses the body
with np.loadtxt into an array allocated once, sized by a count of the line
ends of a seekable file.  plugin_estimate counts cells over the levels the graph
declares and refuses a value outside them.

A model file is JSON with two fields: graph, the base graph as the graph
document dsl.emit_graph writes and dsl.parse_graph reads, and cpts, each
non-intervention variable's parents and CPT flattened in C order.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dsl import emit_graph, parse_graph
from .errors import (
    ExprError,
    StateSpaceLimitError,
    SwigIdentError,
    ZeroProbabilityError,
    malformed,
    parse_field,
)
from .expr import ProbExpr, Product, Sum, Term, children, regimes_used, terms
from .graphs import CiQuery, Graph
from .model import BaseDag, Regime, Swig, Sym, to_swig

STATE_LIMIT = 2**22
ZERO_EPS = 1e-12
CI_TOL = 1e-9  # largest cell deviation brute_force_ci reads as independence
# np.einsum takes at most 52 subscripts; the model axis takes one of them.
EINSUM_LABELS = 51
# A merge whose pair product has more entries than this, over all models of
# the batch, goes through einsum's matmul-backed path; below it, that path's
# set-up costs more than einsum's plain loop (measured on seqfd fig2 n=3-6).
MATMUL_ENTRIES = 4096
# The contraction programs _plan keeps, each serving single models and
# batches alike.  One verify of seqfd fig2 n=3, 5, 6 and 7 meets 29, 45, 53
# and 61 shapes (the tied conditionals it derives need none; n=8 passes
# STATE_LIMIT), so this holds the widest verify's programs with room for
# those of another graph.
PLAN_CACHE = 256

Cpt = tuple[tuple[str, ...], np.ndarray]


@dataclass
class Counts:
    """The oracle's counts, named as verify --stats writes them: the
    ancestral conditionals built and the most entries one had (model axis
    included), how many of them were derived from a live table (_derived)
    rather than contracted, the pairwise merges expressions computed, the
    contraction paths _plan searched and the most bytes of conditionals and
    expression tables one batch held at once.  add folds another record in:
    largest_table and peak_live_bytes by their max, the rest by their sum."""

    conditionals: int = 0
    largest_table: int = 0
    conditionals_derived: int = 0
    merges_computed: int = 0
    path_searches: int = 0
    peak_live_bytes: int = 0

    def add(self, other: "Counts") -> None:
        for f in fields(Counts):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            peak = f.name in ("largest_table", "peak_live_bytes")
            setattr(self, f.name, max(mine, theirs) if peak else mine + theirs)


@dataclass(eq=False)
class DiscreteModel:
    """CPTs keyed by variable name; parents listed in table axis order.

    A batch of `batch` models stacks every CPT on a leading axis; batch is
    None for a single model.  Joints, ancestral conditionals (keyed by
    regime, dependents, conditioners and tie pattern) and expression values
    are cached (compare drops conditionals and values after their last
    use), and the Counts record counts the contraction work."""

    swig: Swig
    cpts: dict[str, Cpt]
    batch: int | None = None
    _joints: dict[Regime, "RegimeJoint"] = field(default_factory=dict, repr=False)
    _conditionals: dict[tuple, np.ndarray] = field(default_factory=dict, repr=False)
    _values: dict[ProbExpr, "LabeledTable"] = field(default_factory=dict, repr=False)
    _counts: Counts = field(default_factory=Counts, repr=False)

    def __post_init__(self) -> None:
        swig = self.swig
        interventions = set(swig.target_of)
        lead = () if self.batch is None else (self.batch,)
        for name in interventions & set(self.cpts):
            raise SwigIdentError(f"{name!r} is an intervention node and takes no CPT")
        for v in swig.variables:
            if v.name in interventions:
                continue
            if v.name not in self.cpts:
                raise SwigIdentError(f"missing CPT for {v.name!r}")
            parents, table = self.cpts[v.name]
            table = np.asarray(table, dtype=float)
            self.cpts[v.name] = (tuple(parents), table)
            if set(parents) != set(swig.graph.parents(v.name)):
                raise SwigIdentError(
                    f"CPT parents for {v.name!r} do not match the graph"
                )
            want = lead + tuple(swig.var(p).cardinality for p in parents)
            want += (v.cardinality,)
            if table.shape != want:
                raise SwigIdentError(
                    f"CPT for {v.name!r} has shape {table.shape}, expected {want}"
                )
            if (table < -ZERO_EPS).any():
                raise SwigIdentError(f"CPT for {v.name!r} has negative entries")
            if not np.allclose(table.sum(axis=-1), 1.0, rtol=0, atol=1e-12):
                raise SwigIdentError(f"CPT rows for {v.name!r} do not sum to 1")


@dataclass(eq=False)
class RegimeJoint:
    """Full joint table under one regime, axes in swig variable order after
    the model's batch axis, if any."""

    regime: Regime
    order: tuple[str, ...]
    table: np.ndarray
    axis: dict[str, int]
    _conditionals: dict[tuple, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def lead(self) -> int:
        """Number of leading batch axes (0 or 1)."""
        return self.table.ndim - len(self.order)

    def marginal(self, names: Sequence[str]) -> np.ndarray:
        """Marginal table with axes in the order given, after the batch axis."""
        lead = self.lead
        keep = [lead + self.axis[n] for n in names]
        drop = tuple(i for i in range(lead, self.table.ndim) if i not in set(keep))
        t = self.table.sum(axis=drop)
        ascending = sorted(keep)
        perm = [*range(lead), *(lead + ascending.index(a) for a in keep)]
        return np.transpose(t, perm)

    def conditional(self, deps: tuple[str, ...], conds: tuple[str, ...]) -> np.ndarray:
        """P(deps | conds) with axes deps + conds after the batch axis; NaN
        where the conditioning event has zero probability."""
        key = (deps, conds)
        cached = self._conditionals.get(key)
        if cached is not None:
            return cached
        m = self.marginal(tuple(deps) + tuple(conds))
        out = self._conditionals[key] = _normalized(m, self.lead, len(deps))
        return out


def _normalized(m: np.ndarray, lead: int, n_deps: int) -> np.ndarray:
    """A new, read-only table: m divided by its sum over the n_deps axes
    after the lead batch axes, NaN where that sum is zero.  Every table is a
    sum of products of non-negative numbers, so a zero sum is exact and a
    positive one, however small, is divided by.  Read-only because the table
    is shared by every caller and term view."""
    denom = m.sum(axis=tuple(range(lead, lead + n_deps)), keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = m / denom
    np.copyto(out, np.nan, where=~(denom > 0))
    out.flags.writeable = False
    return out


def _expand(arr: np.ndarray, axes: Sequence[int], rank: int) -> np.ndarray:
    """View of arr broadcastable over a rank-dimensional table, with arr's
    dimensions placed at the given axes."""
    order = np.argsort(axes)
    arr = np.transpose(arr, order)
    shape = [1] * rank
    for ax, size in zip((axes[i] for i in order), arr.shape):
        shape[ax] = size
    return arr.reshape(shape)


def _diagonal(table: np.ndarray, labels: tuple[str, ...]) -> Operand:
    """table over each of its labels once, in order of first use, after the
    model axis: where a label repeats, the diagonal of its axes (a view)."""
    distinct = tuple(dict.fromkeys(labels))
    if len(distinct) == len(labels):
        return table, labels
    sub = {l: 1 + i for i, l in enumerate(distinct)}
    return np.einsum(table, [0, *map(sub.get, labels)], [0, *sub.values()]), distinct


def regime_factors(
    model: DiscreteModel,
    regime: Regime,
    names: Iterable[str],
    active_laws: Mapping[int, np.ndarray] | None = None,
) -> list[tuple[np.ndarray, tuple[str, ...]]]:
    """The factors of the regime-s joint that belong to the given variables,
    each with the variables of its axes after the model axis: a CPT
    (parents, then the variable), eye(k) over (target, intervention node)
    for an inactive intervention, and the uniform law of an active one (or
    active_laws[i], which must have full support).  A single model's CPTs
    are views with a model axis of one, and intervention factors are
    broadcast over the model axis, without a copy."""
    swig = model.swig
    names = set(names)
    single = model.batch is None
    model_axis = (1,) if single else (model.batch,)
    out = [
        (cpt[None] if single else cpt, (*parents, name))
        for name, (parents, cpt) in model.cpts.items()
        if name in names
    ]
    for i, (tgt, do) in enumerate(swig.pairs, start=1):
        if do not in names:
            continue
        k = swig.var(tgt).cardinality
        if i not in regime.active:
            out.append((np.broadcast_to(np.eye(k), model_axis + (k, k)), (tgt, do)))
            continue
        law = np.full(k, 1.0 / k)
        if active_laws is not None and i in active_laws:
            law = np.asarray(active_laws[i], dtype=float)
            if law.shape != (k,) or (law <= 0).any():
                raise SwigIdentError(f"active law for index {i} must be full support")
            law = law / law.sum()
        out.append((np.broadcast_to(law, model_axis + (k,)), (do,)))
    return out


def joint(
    model: DiscreteModel,
    regime: Regime,
    active_laws: Mapping[int, np.ndarray] | None = None,
) -> RegimeJoint:
    """Joint distribution under a regime by dense factor multiplication: the
    reference oracle.

    active_laws optionally overrides the uniform law of active intervention
    nodes (used to check that the choice is inert); such joints bypass the
    cache.
    """
    swig = model.swig
    swig.check_regime(regime)
    if active_laws is None and regime in model._joints:
        return model._joints[regime]

    names = swig.names
    size = joint_states(swig)
    if size > STATE_LIMIT:
        raise StateSpaceLimitError(f"joint has {size} states (limit {STATE_LIMIT})")

    # The factors carry a model axis, of one for a single model, whose joint
    # is the one table of that axis.
    axis = {n: i for i, n in enumerate(names)}
    models = 1 if model.batch is None else model.batch
    table = np.ones((models, *(swig.var(n).cardinality for n in names)))
    for factor, labels in regime_factors(model, regime, names, active_laws):
        table *= _expand(factor, [0, *(1 + axis[n] for n in labels)], table.ndim)

    totals = table.reshape(models, -1).sum(axis=-1)
    worst = totals[np.argmax(np.abs(totals - 1.0))]
    if abs(worst - 1.0) > 1e-9:
        raise SwigIdentError(f"joint does not normalize: sum = {worst!r}")
    out = RegimeJoint(regime, names, table if model.batch is not None else table[0], axis)
    if active_laws is None:
        model._joints[regime] = out
    return out


def joint_states(swig: Swig) -> int:
    """Number of entries of one model's joint table."""
    return math.prod(v.cardinality for v in swig.variables)


def _conditional_key(
    regime: Regime, deps: tuple[str, ...], conds: tuple[str, ...], ties: tuple[int, ...] | None
) -> tuple:
    """The key ancestral_conditional memoises P(deps | conds) under for the
    tie pattern ties (no two conditioners tied if None), and compare frees
    it by."""
    return regime, deps, conds, tuple(range(len(conds))) if ties is None else ties


def ancestral_conditional(
    model: DiscreteModel,
    regime: Regime,
    deps: tuple[str, ...],
    conds: tuple[str, ...],
    ties: tuple[int, ...] | None = None,
) -> np.ndarray:
    """P(deps | conds) under the regime with axes deps + conds after the
    batch axis, NaN where the conditioning event has zero probability, as
    RegimeJoint.conditional gives it.  It is computed from the factors of
    the ancestors of deps and conds in the regime graph alone, contracted
    two at a time along _plan's path (as expressions are), so no dense
    joint is built; memoised per model and tie pattern, with the model axis
    (_conditional), so a single model's table is the [0] view of its
    batch-of-one table.
    ties gives, for each conditioner, the position of the first conditioner
    that takes the same value (tie_pattern), or its own.  Tied conditioners
    share the first one's label before _run plans, so a factor holding two
    of them is cut to its diagonal (an inactive intervention's eye(k)
    becomes ones), and the table keeps only the conditioners tied to
    themselves: the diagonal of the untied table, taken as evidence before
    the contraction, not after it.  When the memo holds the table under a
    pattern that refines ties, no factor is contracted: the table is read
    as that one's diagonal (_derived), and the model's Counts count it as
    derived as well as built.
    Raises StateSpaceLimitError when a table it needs has more than
    STATE_LIMIT entries for one model or a merge more than EINSUM_LABELS
    labels."""
    table = _conditional(model, _conditional_key(regime, deps, conds, ties))
    return table if model.batch is not None else table[0]


def _conditional(model: DiscreteModel, key: tuple) -> np.ndarray:
    """ancestral_conditional's memoised table under key (_conditional_key),
    model axis first."""
    memo = model._conditionals
    cached = memo.get(key)
    if cached is not None:
        return cached
    regime, deps, conds, ties = key
    counts = model._counts
    out = _derived(memo, key)
    if out is not None:
        counts.conditionals_derived += 1
    else:
        names = deps + conds
        swig = model.swig
        factors = regime_factors(model, regime, swig.regime_graph(regime).ancestors(names))
        tied = {c: conds[j] for i, (c, j) in enumerate(zip(conds, ties)) if j != i}
        factors = [_diagonal(t, tuple(tied.get(n, n) for n in ls)) for t, ls in factors]
        kept = deps + tuple(c for c in conds if c not in tied)
        m, _ = _run(factors, kept, f"a conditional over {len(names)} variables")
        # The merges leave m's axes in whatever memory order einsum's matmul
        # path gave them; the division, and the merges that later read the
        # table, run faster over it in C order.  m may be a view of a CPT
        # (q0(L)); neither the copy nor _normalized writes into it.
        out = _normalized(np.ascontiguousarray(m), 1, len(deps))
    memo[key] = out
    counts.conditionals += 1
    counts.largest_table = max(counts.largest_table, out.size)
    return out


def _derived(memo: dict, key: tuple) -> np.ndarray | None:
    """The table under key (_conditional_key) read off one that memo holds,
    or None: memo's first table with key's regime, dependents and
    conditioners under a tie pattern that refines key's (each conditioner
    tied only to one that key's pattern ties it to), cut to its diagonal
    over the axes key's pattern ties, copied to C order and read-only.  Each
    cell is one of that table's, NaN where it is NaN; no arithmetic is
    done."""
    regime, deps, conds, ties = key
    for (r, d, c, p), table in memo.items():
        if c == conds and d == deps and r == regime and p != ties:
            if all(ties[j] == ties[i] for i, j in enumerate(p)):
                axes = deps + tuple(conds[ties[i]] for i, j in enumerate(p) if i == j)
                out = np.ascontiguousarray(_diagonal(table, axes)[0])
                out.flags.writeable = False
                return out
    return None


def _one_model(model: DiscreteModel, what: str) -> None:
    """Refuse a batch where one model's numbers are read."""
    if model.batch is not None:
        raise SwigIdentError(f"{what} takes one model, not a batch of {model.batch}")


def query(
    model: DiscreteModel,
    regime: Regime,
    dependents: Sequence[str],
    conditioners: Mapping[str, int] | Iterable[tuple[str, int]] = (),
) -> np.ndarray:
    """Exact conditional P(dependents | conditioners = values) of a single
    model; axes follow the dependents, in the order given.  It reads the
    ancestral conditional, so no dense joint is built."""
    _one_model(model, "query")
    cond_items = sorted(dict(conditioners).items())
    table = ancestral_conditional(
        model, regime, tuple(dependents), tuple(n for n, _ in cond_items)
    )
    sel = table[(slice(None),) * len(tuple(dependents)) + tuple(v for _, v in cond_items)]
    if np.isnan(sel).any():
        raise ZeroProbabilityError(
            f"conditioning event {dict(cond_items)} has zero probability"
        )
    return sel


# ---------------------------------------------------------------------------
# expression evaluation

@dataclass(frozen=True)
class LabeledTable:
    """A numeric table with one named axis per free symbol or bare variable.

    A batch table has one more, leading axis, one table per model, and
    skipped[m] is true where model m's expression conditions on a
    zero-probability event; a single table has skipped None."""

    labels: tuple[str, ...]
    values: np.ndarray
    skipped: np.ndarray | None = None

    def aligned(self, labels: tuple[str, ...]) -> np.ndarray:
        lead = self.values.ndim - len(self.labels)
        missing = [l for l in labels if l not in self.labels]
        v = self.values.reshape(self.values.shape + (1,) * len(missing))
        cur = self.labels + tuple(missing)
        return np.transpose(v, [*range(lead), *(lead + cur.index(l) for l in labels)])


# P(deps | conds) for a regime and tie pattern, with axes batch + deps + the
# conditioners tied to themselves.
TableProvider = Callable[
    [Regime, tuple[str, ...], tuple[str, ...], tuple[int, ...]], np.ndarray
]


def tie_pattern(t: Term) -> tuple[int, ...]:
    """For each conditioner of t, the position of the first conditioner
    with the same symbol, or its own: the conditioners t's table holds on
    one axis."""
    first: dict[Sym, int] = {}
    return tuple(
        first.setdefault(ref, i) if isinstance(ref, Sym) else i
        for i, (_, ref) in enumerate(t.conditioners)
    )


def _eval_term(swig: Swig, t: Term, provider: TableProvider) -> LabeledTable:
    ties = tie_pattern(t)
    sizes: dict[str, int] = {}
    idx: list = [slice(None)]
    axes: list[str] = []  # the label of each axis kept after the batch axis
    for i, (name, ref) in enumerate((*t.dependents, *t.conditioners)):
        card = swig.var(name).cardinality
        if ref is None:
            label = name
        elif isinstance(ref, Sym):
            label = ref.name
        else:
            if not 0 <= ref.value < card:
                raise ExprError(f"level {ref.value} out of range for {name!r}")
            idx.append(ref.value)
            continue
        if sizes.setdefault(label, card) != card:
            raise ExprError(f"symbol {label!r} used for variables of different cardinality")
        c = i - len(t.dependents)
        if c < 0 or ties[c] == c:  # a tied conditioner has no axis of its own
            idx.append(slice(None))
            axes.append(label)

    # Pinned levels are basic indices and a label a dependent shares takes a
    # diagonal, so the term stays a view of the provider's (cached) table.
    table = provider(t.regime, t.dep_names(), t.cond_names(), ties)[tuple(idx)]
    out, labels = _diagonal(table, tuple(axes))
    skipped = np.isnan(out).any(axis=tuple(range(1, out.ndim)))
    return LabeledTable(labels, out, skipped)


# A factor as a plan runs: its table (model axis first) and its labels.
Operand = tuple[np.ndarray, tuple[str, ...]]


# A merge as _plan compiles it: the positions it pops from the list of
# factors, each popped factor's einsum subscripts, the result's, and the
# entries of a pair's product for one model (0 for a single factor).
Merge = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...], int]


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(
    subs: tuple[tuple[int, ...], ...], sizes: tuple[int, ...], out: tuple[int, ...]
) -> tuple[tuple[Merge, ...], tuple[int, int] | None]:
    """The einsum program that contracts factors with the label numbers subs
    (label i has sizes[i] levels), after the model axis, down to the labels
    out, in out's order.  The path is greedy: while two or more factors are
    left, the pair whose product, summed over every label that neither out
    nor another factor needs, has the fewest entries less those of the pair
    is merged; while some pair shares a label, a pair that shares none is
    not weighed.  numpy's greedy einsum path (after opt_einsum) weighs
    merges the same way.  Label sets are bit masks.  A lone factor is
    summed down or reordered to out by one einsum.  Each merge pops its
    positions, in descending order, and its result is appended; its
    subscripts number the model axis 0, then its labels by first use.
    Returns the merges and None, or, if a merge's einsum would take more
    than EINSUM_LABELS labels or keep more than STATE_LIMIT entries for one
    model, no merges and the first such merge's labels kept and entries.  A
    program depends on the shape alone, not on the number of models or the
    tables, so the last PLAN_CACHE shapes' programs are memoised for every
    model and batch of the process; the cache's misses count the searches
    run."""
    out_mask = sum(1 << i for i in out)
    entries: dict[int, int] = {}

    def size(mask: int) -> int:
        n = entries.get(mask)
        if n is None:
            n = math.prod(sizes[i] for i in range(mask.bit_length()) if mask >> i & 1)
            entries[mask] = n
        return n

    live = [sum(1 << i for i in s) for s in subs]
    path = []
    while len(live) > 1:
        once = twice = thrice = 0  # labels held by at least 1, 2, 3 factors left
        for m in live:
            thrice |= twice & m
            twice |= once & m
            once |= m
        best = None
        for j in range(1, len(live)):
            b = live[j]
            for i in range(j):
                a = live[i]
                if twice and not a & b:
                    continue
                # a label the pair holds is kept if out or a factor outside
                # the pair needs it
                keep = (a | b) & out_mask | a & b & thrice | (a ^ b) & twice
                cost = size(keep) - size(a) - size(b)
                if best is None or cost < best[0]:
                    best = (cost, i, j, keep)
        _, i, j, keep = best
        live.pop(j)
        live.pop(i)
        live.append(keep)
        labels = out if len(live) == 1 else tuple(k for k in range(len(sizes)) if keep >> k & 1)
        path.append(((j, i), labels))
    if len(subs) == 1 and subs[0] != out:
        path.append(((0,), out))

    held = list(subs)
    program = []
    for positions, kept in path:
        group = [held.pop(p) for p in positions]
        held.append(kept)
        used = dict.fromkeys(label for labels in group for label in labels)
        number = {label: 1 + i for i, label in enumerate(used)}
        states = math.prod(sizes[label] for label in kept)
        if len(number) > EINSUM_LABELS or states > STATE_LIMIT:
            return (), (len(kept), states)
        operands = tuple((0, *map(number.get, labels)) for labels in group)
        pair = math.prod(sizes[label] for label in number) if len(group) == 2 else 0
        program.append((positions, operands, (0, *map(number.get, kept)), pair))
    return tuple(program), None


def _run(ops: list[Operand], out: tuple[str, ...], what: str) -> tuple[np.ndarray, int]:
    """The product of ops summed down to the labels out, with the model axis
    first and then out's labels in order, and how many merges ran.  The
    labels are numbered by first use, and _plan compiles the program for
    those numbers, out's and the label sizes (a program does not depend on
    the number of models).  Each merge pops its positions and appends
    one np.einsum of them; a pair whose product has more than MATMUL_ENTRIES
    entries over all models goes through einsum's matmul-backed path.  A
    program _plan refuses raises StateSpaceLimitError naming what is
    contracted, before any merge runs."""
    ids: dict[str, int] = {}
    subs = tuple(tuple(ids.setdefault(n, len(ids)) for n in labels) for _, labels in ops)
    sizes = {ids[n]: k for t, labels in ops for n, k in zip(labels, t.shape[1:])}
    # sizes holds label 0 first, then 1, ...: both walks take the same order
    program, refused = _plan(subs, tuple(sizes.values()), tuple(ids[n] for n in out))
    if refused is not None:
        raise StateSpaceLimitError(
            f"{what} needs a table over {refused[0]} variables ({refused[1]} states); "
            f"the limits are {EINSUM_LABELS} einsum subscripts and {STATE_LIMIT} states"
        )
    tables = [t for t, _ in ops]
    models = len(tables[0])
    for positions, operands, result, pair in program:
        group = [tables.pop(p) for p in positions]
        args = [x for table, subscripts in zip(group, operands) for x in (table, subscripts)]
        tables.append(np.einsum(*args, result, optimize=pair * models > MATMUL_ENTRIES))
    return tables[0], len(program)


def _contract(
    swig: Swig, e: Sum | Product, provider: TableProvider, memo: dict, counts: Counts
) -> LabeledTable:
    """A sum of products (or either alone) over the model axis and the
    factors' labels, with the binders summed out.  _run merges the factors
    two at a time along a path planned once per contraction shape, and
    counts counts the merges; only the factors' tables are memoised, not
    the partial products."""
    binders = e.binders if isinstance(e, Sum) else ()
    body = e.body if isinstance(e, Sum) else e
    factors = body.factors if isinstance(body, Product) else (body,)
    tables = [_eval(swig, f, provider, memo, counts) for f in factors]
    sizes: dict[str, int] = {}
    for t in tables:
        for label, n in zip(t.labels, t.values.shape[1:]):
            if sizes.setdefault(label, n) != n:
                raise ExprError(
                    f"axis {label!r} has inconsistent sizes {sizes[label]} and {n}"
                )
    for b in binders:
        if b not in sizes:
            raise ExprError(f"binder {b!r} never used in the sum body")
    kept = tuple(l for l in sizes if l not in binders)
    ops = [(t.values, t.labels) for t in tables]
    values, merges = _run(ops, kept, f"a product of {len(tables)} factors")
    counts.merges_computed += merges
    skipped = np.logical_or.reduce([t.skipped for t in tables])
    return LabeledTable(kept, values, skipped)


def _eval(
    swig: Swig, e: ProbExpr, provider: TableProvider, memo: dict, counts: Counts
) -> LabeledTable:
    """Batch table of an expression, memoised by expression in memo; its
    values are read-only, as every later caller gets the same array."""
    out = memo.get(e)
    if out is None:
        if isinstance(e, Term):
            out = _eval_term(swig, e, provider)
        else:
            out = _contract(swig, e, provider, memo, counts)
        out.values.flags.writeable = False
        memo[e] = out
    return out


def _only_model(out: LabeledTable) -> LabeledTable:
    """The single table of a batch of one."""
    if out.skipped[0]:
        raise ZeroProbabilityError("term conditions on a zero-probability event")
    return LabeledTable(out.labels, out.values[0])


def oracle_provider(model: DiscreteModel) -> TableProvider:
    return lambda regime, deps, conds, ties: _conditional(model, (regime, deps, conds, ties))


def eval_expr(model: DiscreteModel, e: ProbExpr) -> LabeledTable:
    """Evaluate an expression against the exact oracle.

    Free symbols and bare variables become named axes of the result.  A
    batch gives a batch table; a single model raises ZeroProbabilityError
    if the expression conditions on a zero-probability event.
    """
    out = _eval(model.swig, e, oracle_provider(model), model._values, model._counts)
    return _only_model(out) if model.batch is None else out


def eval_estimand(model: DiscreteModel, estimand: Term) -> LabeledTable:
    """Oracle value of an estimand, as a table over its bare/symbol axes."""
    return eval_expr(model, estimand)


# ---------------------------------------------------------------------------
# comparison of expression pairs

@dataclass(frozen=True)
class Comparison:
    """deviations[i, m]: the largest absolute difference between the sides
    of pair i in model m, over the union of their axes (NaN where a term of
    either skips m); masks[t]: the models term t skips; seconds[i]: the
    seconds spent on each side of pair i; counts: the oracle's counts over
    all the batches."""

    deviations: np.ndarray
    masks: dict[Term, np.ndarray]
    seconds: np.ndarray
    counts: Counts


def _last_uses(pairs: Sequence[tuple[ProbExpr, ProbExpr]]) -> list[list]:
    """For each pair, the subexpressions and the conditional keys that no
    later pair uses.  A term reads the conditional ancestral_conditional
    memoises under (regime, dependents, conditioners, tie pattern): one
    table per tie pattern, so q(Y | A=a, B=a) and q(Y | A=a, B=b) read
    two."""
    last: dict = {}
    for i, pair in enumerate(pairs):
        todo = list(pair)
        while todo:
            node = todo.pop()
            todo += children(node)
            last[node] = i
            if isinstance(node, Term):
                deps, conds = node.dep_names(), node.cond_names()
                last[_conditional_key(node.regime, deps, conds, tie_pattern(node))] = i
    dying: list[list] = [[] for _ in pairs]
    for item, i in last.items():
        dying[i].append(item)
    return dying


def compare(
    swig: Swig,
    cpts: Mapping[str, Cpt],
    pairs: Sequence[tuple[ProbExpr, ProbExpr]],
) -> Comparison:
    """Evaluate both sides of each pair, in order, on the models of the
    base-graph CPTs cpts, stacked on a leading model axis, batch by batch
    (model_batches).  Each subexpression's value and each conditional is
    dropped from the batch's memo after the last pair that uses it (found
    first), so a batch holds only what a later pair reads, and nothing once
    compare returns."""
    searched = _plan.cache_info().misses
    dying = _last_uses(pairs)
    n = model_count(cpts)
    deviations = np.empty((len(pairs), n))
    masks = {t: np.empty(n, dtype=bool) for pair in pairs for e in pair for _, t in terms(e)}
    seconds = np.zeros((len(pairs), 2))
    counts = Counts()
    start = 0
    for batch in model_batches(swig, cpts):
        batch._counts = counts
        values, held = batch._values, batch._conditionals
        models = slice(start, start + batch.batch)
        start += batch.batch
        skipped: dict[Term, np.ndarray] = {}
        for i, (a, b) in enumerate(pairs):
            t0 = time.perf_counter()
            ta = eval_expr(batch, a)
            t1 = time.perf_counter()
            tb = eval_expr(batch, b)
            seconds[i] += (t1 - t0, time.perf_counter() - t1)
            labels = ta.labels + tuple(l for l in tb.labels if l not in ta.labels)
            diff = np.abs(ta.aligned(labels) - tb.aligned(labels))
            deviations[i, models] = diff.reshape(len(diff), -1).max(axis=1)
            for e in (a, b):
                skipped.update((t, values[t].skipped) for _, t in terms(e))
            # a term's value is a view of its conditional and adds no bytes
            live = sum(t.nbytes for t in held.values()) + sum(
                v.values.nbytes for e, v in values.items() if not isinstance(e, Term)
            )
            counts.peak_live_bytes = max(counts.peak_live_bytes, live)
            for item in dying[i]:
                (held if isinstance(item, tuple) else values).pop(item, None)
        for t, mask in skipped.items():
            masks[t][models] = mask
    counts.path_searches = _plan.cache_info().misses - searched
    return Comparison(deviations, masks, seconds, counts)


# ---------------------------------------------------------------------------
# numeric CI check

def brute_force_ci(model: DiscreteModel, q: CiQuery) -> bool:
    """True iff x and y are independent given z in the regime-s joint, up to
    CI_TOL, skipping conditioning cells of probability below ZERO_EPS.  It
    reads the ancestral marginal over x, y and z, so no dense joint is
    built."""
    _one_model(model, "brute_force_ci")
    if not q.x or not q.y:
        return True
    x, y, z = sorted(q.x), sorted(q.y), sorted(q.z)
    m = ancestral_conditional(model, q.regime, tuple(x + y + z), ())
    nx, ny, nz = len(x), len(y), len(z)
    sx, sy, sz = m.shape[:nx], m.shape[nx : nx + ny], m.shape[nx + ny :]
    pz = m.sum(axis=tuple(range(nx + ny)))
    pxz = m.sum(axis=tuple(range(nx, nx + ny)))
    pyz = m.sum(axis=tuple(range(nx)))
    pz_e = pz.reshape((1,) * (nx + ny) + sz)
    pxz_e = pxz.reshape(sx + (1,) * ny + sz)
    pyz_e = pyz.reshape((1,) * nx + sy + sz)
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.abs(m / pz_e - (pxz_e / pz_e) * (pyz_e / pz_e))
    diff = np.where(pz_e >= ZERO_EPS, diff, 0.0)
    return float(np.max(diff)) <= CI_TOL


# ---------------------------------------------------------------------------
# model construction

def random_cpt_batch(base: BaseDag, rngs: Sequence[np.random.Generator]) -> dict[str, Cpt]:
    """One flat Dirichlet CPT (concentration 1) per base variable for each
    generator, stacked on a leading model axis; parents in sorted base-name
    order.  Model i's tables are, variable by variable in base order, what
    rngs[i].dirichlet([1.0] * k, size=shape) gives, bit for bit: dirichlet
    draws a gamma(1) variate, which is a standard exponential, per level
    and multiplies each by the reciprocal of its row's sum taken level by
    level.  So each generator fills its model's variables with one
    standard_exponential call, and each variable is normalised over all
    models at once.  A variable of one level draws nothing.

    Keyed to the pre-split graph so that two splittings of the same skeleton
    share identical mechanisms."""
    graph = Graph(base.names, base.edges)
    layout = []  # name, parents, table shape, first draw, draws
    size = 0
    for v in base.variables:
        parents = tuple(sorted(graph.parents(v.name)))
        shape = tuple(base.var(p).cardinality for p in parents) + (v.cardinality,)
        cells = math.prod(shape) if v.cardinality > 1 else 0
        layout.append((v.name, parents, shape, size, cells))
        size += cells
    n = len(rngs)
    draws = np.empty((n, size))
    for rng, row in zip(rngs, draws):
        rng.standard_exponential(out=row)
    out: dict[str, Cpt] = {}
    for name, parents, shape, at, cells in layout:
        if not cells:
            out[name] = (parents, np.ones((n, *shape)))
            continue
        e = draws[:, at : at + cells].reshape(n, *shape)
        acc = e[..., 0].copy()
        for level in range(1, shape[-1]):
            acc += e[..., level]
        out[name] = (parents, e * (1.0 / acc)[..., None])
    return out


def random_base_cpts(base: BaseDag, rng: np.random.Generator) -> dict[str, Cpt]:
    """The CPTs of random_cpt_batch's one model for rng."""
    return {name: (parents, t[0]) for name, (parents, t) in random_cpt_batch(base, [rng]).items()}


def model_from_base_cpts(
    swig: Swig, base_cpts: Mapping[str, Cpt], batch: int | None = None
) -> DiscreteModel:
    """Attach base-graph CPTs to a split graph: any parent that was split is
    read through its intervention node, same table."""
    split = dict(swig.pairs)
    cpts: dict[str, Cpt] = {}
    for name, (parents, table) in base_cpts.items():
        cpts[name] = (tuple(split.get(p, p) for p in parents), np.asarray(table, float))
    return DiscreteModel(swig, cpts, batch)


def model_count(cpts: Mapping[str, Cpt]) -> int:
    """The number of models of base-graph CPTs stacked on a leading model
    axis (0 for a graph with no variables)."""
    return next((len(table) for _, table in cpts.values()), 0)


def model_batches(swig: Swig, cpts: Mapping[str, Cpt]) -> Iterator[DiscreteModel]:
    """The models of base-graph CPTs stacked on a leading model axis, as
    random_cpt_batch draws them, in order, as batches whose joints have at
    most STATE_LIMIT entries.  A batch's tables are slices of the stacked
    ones (views, not copies)."""
    n = model_count(cpts)
    size = max(1, STATE_LIMIT // joint_states(swig))
    for start in range(0, n, size):
        chunk = {name: (parents, t[start : start + size]) for name, (parents, t) in cpts.items()}
        yield model_from_base_cpts(swig, chunk, min(size, n - start))


def _generator(seed: int) -> np.random.Generator:
    if seed < 0:
        raise SwigIdentError(f"a seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def random_model(swig: Swig, seed: int = 0) -> DiscreteModel:
    return model_from_base_cpts(swig, random_base_cpts(swig.base, _generator(seed)))


# ---------------------------------------------------------------------------
# sampling and plug-in estimation

@dataclass(eq=False)
class Dataset:
    """Integer-coded samples, one column per variable.  The levels of a
    column are the graph's: plug-in estimation counts over those."""

    columns: tuple[str, ...]
    data: np.ndarray

    def col(self, name: str) -> np.ndarray:
        try:
            return self.data[:, self.columns.index(name)]
        except ValueError:
            raise SwigIdentError(f"dataset has no column {name!r}") from None

    def __len__(self) -> int:
        return self.data.shape[0]

    def write_csv(self, fh) -> None:
        """Write the header and rows as csv.writer would, byte for byte.

        The rows are laid out as one uint8 block, column by column: a sign
        slot, one slot per decimal digit of the column's widest value and a
        ',' slot (the last column ends in '\\r\\n').  Slots left 0 (no sign,
        leading zeros) are dropped, and the rest is written as one string."""
        csv.writer(fh).writerow(self.columns)
        n, k = self.data.shape
        if k == 0:
            fh.write("\r\n" * n)  # csv.writer's empty rows
            return
        widths = [len(str(int(np.abs(self.data[:, j]).max(initial=0)))) for j in range(k)]
        block = np.zeros((n, sum(widths) + 2 * k + 1), dtype=np.uint8)
        at = 0
        for j, width in enumerate(widths):
            column = self.data[:, j]
            negative = column < 0
            if negative.any():
                block[negative, at] = ord("-")
            mag = np.abs(column)
            for p in range(width):
                digit = mag // 10**p if p else mag
                if p < width - 1:
                    digit = digit % 10
                slot = at + width - p
                np.add(digit, ord("0"), out=block[:, slot], casting="unsafe")
                if p:
                    block[mag < 10**p, slot] = 0
            at += width + 1
            block[:, at] = ord(",")
            at += 1
        block[:, at - 1 : at + 1] = np.frombuffer(b"\r\n", dtype=np.uint8)
        fh.write(block[block != 0].tobytes().decode("ascii"))

    @classmethod
    def read_csv(cls, fh) -> "Dataset":
        """Read what write_csv writes: a header of names, then rows of
        integers (none, for a header alone).  The header's read decodes the
        first buffered piece of the file, so it refuses a bad byte there."""
        try:
            header = next(csv.reader([fh.readline()]))
        except (csv.Error, ValueError) as e:
            raise SwigIdentError(f"malformed CSV: {e}") from None
        if not header:
            raise SwigIdentError("malformed CSV: no column names on the first line")
        # Told the most rows to expect, loadtxt allocates its array once;
        # otherwise it grows the array by reallocation, whose freed blocks
        # the allocator may keep resident.
        rows = None
        with warnings.catch_warnings():
            # an empty body is a valid dataset; loadtxt warns about it
            warnings.simplefilter("ignore", UserWarning)
            try:
                if fh.seekable():
                    start = fh.tell()
                    rows = 1 + sum(map(_line_ends, iter(lambda: fh.read(1 << 16), "")))
                    fh.seek(start)
                data = np.loadtxt(
                    fh, dtype=int, delimiter=",", ndmin=2, comments=None, max_rows=rows
                )
            except ValueError as e:
                raise SwigIdentError(f"malformed CSV after the header line: {e}") from None
        if data.size and data.shape[1] != len(header):
            raise SwigIdentError(
                f"malformed CSV: rows have {data.shape[1]} fields, the header {len(header)}"
            )
        return cls(tuple(header), data.reshape(-1, len(header)))


def _line_ends(text: str) -> int:
    """The line ends in text: \\n, \\r and \\r\\n, each once.  A \\r\\n split
    across two pieces of a text counts twice, so the count over the pieces
    is never less than the text's."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def sample(model: DiscreteModel, regime: Regime, n: int, seed: int = 0) -> Dataset:
    """Ancestral sampling of the regime graph; intervention nodes copy their
    target when inactive and draw uniformly when active.

    A variable's draw is the number of levels j whose cumulative CPT entry,
    in the row its parents select, lies below a uniform u (at most k - 1).
    The cumulative sums are taken once over the CPT, and each sample's row
    is found by one ravel_multi_index over its parents' columns."""
    _one_model(model, "sample")
    if n < 0:
        raise SwigIdentError(f"cannot draw a negative number of rows ({n})")
    swig = model.swig
    graph = swig.regime_graph(regime)
    rng = _generator(seed)
    try:
        data = np.empty((n, len(swig.names)), dtype=np.int64, order="F")
    except (ValueError, MemoryError):
        raise SwigIdentError(f"cannot hold {n} rows of {len(swig.names)} columns") from None
    cols = {name: data[:, i] for i, name in enumerate(swig.names)}
    for name in graph.topological_order:
        k = swig.var(name).cardinality
        col = cols[name]
        if name in swig.target_of:
            if swig.index_of[name] in regime.active:
                col[:] = rng.integers(0, k, size=n)
            else:
                col[:] = cols[swig.target_of[name]]
            continue
        parents, cpt = model.cpts[name]
        cum = np.cumsum(cpt, axis=-1).reshape(-1, k).T.copy()
        rows = np.ravel_multi_index([cols[p] for p in parents], cpt.shape[:-1]) if parents else 0
        u = rng.random(n)
        col[:] = 0
        for level in cum:
            col += u > level[rows]
        np.minimum(col, k - 1, out=col)
    return Dataset(swig.names, data)


def empirical_provider(dataset: Dataset, swig: Swig) -> TableProvider:
    """Add-one smoothed frequencies of the dataset's columns, over the levels
    the graph declares; a value outside them is refused, not counted.  Tied
    conditioners read the diagonal of the smoothed table."""

    def provider(regime: Regime, deps: tuple[str, ...], conds: tuple[str, ...], ties):
        if not regime.is_observational:
            raise SwigIdentError("plug-in estimation needs a regime-0 expression")
        names = tuple(deps) + tuple(conds)
        cols = [dataset.col(n) for n in names]
        cards = [swig.var(n).cardinality for n in names]
        try:
            flat = np.ravel_multi_index(cols, cards)
        except ValueError:  # raised for a value outside its column's levels
            for name, col, k in zip(names, cols, cards):
                outside = col[(col < 0) | (col >= k)]
                if len(outside):
                    raise SwigIdentError(
                        f"column {name!r} holds {outside[0]}, outside the graph's levels 0..{k - 1}"
                    ) from None
            raise
        size = int(np.prod(cards))
        counts = np.bincount(flat, minlength=size).reshape((1, *cards)).astype(float)
        counts += 1.0
        denom = counts.sum(axis=tuple(range(1, 1 + len(deps))), keepdims=True)
        labels = tuple(deps) + tuple(conds[j] for j in ties)
        return _diagonal(counts / denom, labels)[0]

    return provider


def plugin_estimate(swig: Swig, e: ProbExpr, dataset: Dataset) -> LabeledTable:
    """Evaluate an identified (regime-0) formula with every conditional
    replaced by its add-one smoothed empirical frequency over the levels of
    swig."""
    bad = [r for r in regimes_used(e) if not r.is_observational]
    if bad:
        raise SwigIdentError("formula still uses interventional regimes; identify first")
    provider = empirical_provider(dataset, swig)
    return _only_model(_eval(swig, e, provider, {}, Counts()))


# ---------------------------------------------------------------------------
# model files

def model_to_json(model: DiscreteModel) -> dict:
    """The graph as its graph document, and each CPT by its parents and its
    table flattened in C order (the variable's own level varies fastest)."""
    _one_model(model, "model_to_json")
    return {
        "graph": emit_graph(model.swig.base),
        "cpts": {
            name: {"parents": list(parents), "table": np.asarray(t).ravel().tolist()}
            for name, (parents, t) in sorted(model.cpts.items())
        },
    }


def model_from_json(obj: dict) -> DiscreteModel:
    with malformed("model"):
        swig = parse_field(
            lambda text: to_swig(parse_graph(text)),
            obj["graph"],
            "malformed model: graph",
            "graph document",
        )
        cpts: dict[str, Cpt] = {}
        for name, spec in obj["cpts"].items():
            parents = tuple(spec["parents"])
            shape = tuple(swig.var(p).cardinality for p in parents) + (
                swig.var(name).cardinality,
            )
            cpts[name] = (parents, np.asarray(spec["table"], float).reshape(shape))
        return DiscreteModel(swig, cpts)


def save_model(model: DiscreteModel, fh) -> None:
    """Write model_to_json's document to a path or a text file; a model it
    refuses opens no file."""
    text = json.dumps(model_to_json(model), sort_keys=True, indent=2)
    if isinstance(fh, (str, os.PathLike)):
        with open(fh, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        fh.write(text)


def load_model(fh) -> DiscreteModel:
    if isinstance(fh, (str, os.PathLike)):
        with open(fh, encoding="utf-8") as f:
            return load_model(f)
    with malformed("model"):
        obj = json.load(fh)
    return model_from_json(obj)
