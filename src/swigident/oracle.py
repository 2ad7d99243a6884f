"""Exact ground-truth semantics for discrete models on a split graph.

A DiscreteModel holds one CPT per non-intervention variable; intervention
nodes get their law from the regime: a deterministic copy of their target
when inactive, a uniform full-support law when active.  The uniform choice
only matters up to conditioning on the intervention nodes and is verified
inert by the test suite.  Joints are dense arrays built by broadcasting,
which keeps every query exact at desk scale.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ExprError,
    StateSpaceLimitError,
    SwigIdentError,
    ZeroProbabilityError,
    malformed,
)
from .expr import Estimand, ProbExpr, Product, Sum, Term, regimes_used
from .graphs import CiQuery, Graph
from .model import BaseDag, Regime, Role, Swig, Sym, Variable, to_swig

STATE_LIMIT = 2**22
ZERO_EPS = 1e-12

Cpt = tuple[tuple[str, ...], np.ndarray]


@dataclass(eq=False)
class DiscreteModel:
    """CPTs keyed by variable name; parents listed in table axis order."""

    swig: Swig
    cpts: dict[str, Cpt]
    _joints: dict[Regime, "RegimeJoint"] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        swig = self.swig
        interventions = set(swig.target_of)
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
            want = tuple(swig.var(p).cardinality for p in parents) + (v.cardinality,)
            if table.shape != want:
                raise SwigIdentError(
                    f"CPT for {v.name!r} has shape {table.shape}, expected {want}"
                )
            if (table < -ZERO_EPS).any():
                raise SwigIdentError(f"CPT for {v.name!r} has negative entries")
            if not np.allclose(table.sum(axis=-1), 1.0, atol=1e-12):
                raise SwigIdentError(f"CPT rows for {v.name!r} do not sum to 1")


@dataclass(eq=False)
class RegimeJoint:
    """Full joint table under one regime, axes in swig variable order."""

    regime: Regime
    order: tuple[str, ...]
    table: np.ndarray
    axis: dict[str, int]
    _conditionals: dict[tuple, np.ndarray] = field(default_factory=dict, repr=False)

    def marginal(self, names: Sequence[str]) -> np.ndarray:
        """Marginal table with axes in the order given."""
        keep = [self.axis[n] for n in names]
        drop = tuple(i for i in range(self.table.ndim) if i not in set(keep))
        t = self.table.sum(axis=drop)
        ascending = sorted(keep)
        perm = [ascending.index(a) for a in keep]
        return np.transpose(t, perm)

    def conditional(self, deps: tuple[str, ...], conds: tuple[str, ...]) -> np.ndarray:
        """P(deps | conds) with axes deps + conds; NaN where the conditioning
        event has (numerically) zero probability."""
        key = (deps, conds)
        cached = self._conditionals.get(key)
        if cached is not None:
            return cached
        m = self.marginal(tuple(deps) + tuple(conds))
        denom = m.sum(axis=tuple(range(len(deps))))
        with np.errstate(invalid="ignore", divide="ignore"):
            out = m / denom
        out = np.where(denom > ZERO_EPS, out, np.nan)
        self._conditionals[key] = out
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


def joint(
    model: DiscreteModel,
    regime: Regime,
    active_laws: Mapping[int, np.ndarray] | None = None,
) -> RegimeJoint:
    """Joint distribution under a regime by dense factor multiplication.

    active_laws optionally overrides the uniform law of active intervention
    nodes (used to check that the choice is inert); such joints bypass the
    cache.
    """
    swig = model.swig
    swig.check_regime(regime)
    if active_laws is None and regime in model._joints:
        return model._joints[regime]

    names = swig.names
    cards = [swig.var(n).cardinality for n in names]
    size = 1
    for c in cards:
        size *= c
    if size > STATE_LIMIT:
        raise StateSpaceLimitError(f"joint has {size} states (limit {STATE_LIMIT})")

    axis = {n: i for i, n in enumerate(names)}
    rank = len(names)
    table = np.ones(cards)
    for name, (parents, cpt) in model.cpts.items():
        table *= _expand(cpt, [axis[p] for p in parents] + [axis[name]], rank)
    for i, (tgt, do) in enumerate(swig.pairs, start=1):
        k = swig.var(tgt).cardinality
        if i in regime.active:
            law = np.full(k, 1.0 / k)
            if active_laws is not None and i in active_laws:
                law = np.asarray(active_laws[i], dtype=float)
                if law.shape != (k,) or (law <= 0).any():
                    raise SwigIdentError(f"active law for index {i} must be full support")
                law = law / law.sum()
            table *= _expand(law, [axis[do]], rank)
        else:
            table *= _expand(np.eye(k), [axis[tgt], axis[do]], rank)

    total = table.sum()
    if abs(total - 1.0) > 1e-9:
        raise SwigIdentError(f"joint does not normalize: sum = {total!r}")
    out = RegimeJoint(regime, names, table, axis)
    if active_laws is None:
        model._joints[regime] = out
    return out


def query(
    model: DiscreteModel,
    regime: Regime,
    dependents: Sequence[str],
    conditioners: Mapping[str, int] | Iterable[tuple[str, int]] = (),
) -> np.ndarray:
    """Exact conditional P(dependents | conditioners = values); axes follow
    the dependents, in the order given."""
    cond_items = sorted(dict(conditioners).items())
    j = joint(model, regime)
    table = j.conditional(tuple(dependents), tuple(n for n, _ in cond_items))
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
    """A numeric table with one named axis per free symbol or bare variable."""

    labels: tuple[str, ...]
    values: np.ndarray

    def select(self, assignment: Mapping[str, int]) -> "LabeledTable":
        labels = []
        idx: list = []
        for i, label in enumerate(self.labels):
            if label in assignment:
                idx.append(int(assignment[label]))
            else:
                idx.append(slice(None))
                labels.append(label)
        return LabeledTable(tuple(labels), self.values[tuple(idx)])

    def aligned(self, labels: tuple[str, ...]) -> np.ndarray:
        missing = [l for l in labels if l not in self.labels]
        v = self.values.reshape(self.values.shape + (1,) * len(missing))
        cur = self.labels + tuple(missing)
        return np.transpose(v, [cur.index(l) for l in labels])


TableProvider = Callable[[Regime, tuple[str, ...], tuple[str, ...]], np.ndarray]


def _eval_term(swig: Swig, t: Term, provider: TableProvider) -> LabeledTable:
    entries = (*t.dependents, *t.conditioners)
    table = provider(t.regime, t.dep_names(), t.cond_names())

    labels: list[str] = []
    sizes: dict[str, int] = {}
    per_entry: list[tuple[str | None, int]] = []
    for name, ref in entries:
        card = swig.var(name).cardinality
        if ref is None:
            label = name
        elif isinstance(ref, Sym):
            label = ref.name
        else:
            if not 0 <= ref.value < card:
                raise ExprError(f"level {ref.value} out of range for {name!r}")
            per_entry.append((None, ref.value))
            continue
        if label in sizes:
            if sizes[label] != card:
                raise ExprError(
                    f"symbol {label!r} used for variables of different cardinality"
                )
        else:
            sizes[label] = card
            labels.append(label)
        per_entry.append((label, card))

    rank = len(labels)
    pos = {label: i for i, label in enumerate(labels)}
    idx: list = []
    for label, value in per_entry:
        if label is None:
            idx.append(value)
        else:
            shape = [1] * rank
            shape[pos[label]] = -1
            idx.append(np.arange(value).reshape(shape))
    out = np.asarray(table[tuple(idx)])
    if out.size and np.isnan(out).any():
        raise ZeroProbabilityError("term conditions on a zero-probability event")
    return LabeledTable(tuple(labels), out)


def _eval(swig: Swig, e: ProbExpr, provider: TableProvider) -> LabeledTable:
    if isinstance(e, Term):
        return _eval_term(swig, e, provider)
    if isinstance(e, Sum):
        body = _eval(swig, e.body, provider)
        for b in e.binders:
            if b not in body.labels:
                raise ExprError(f"binder {b!r} never used in the sum body")
        axes = tuple(body.labels.index(b) for b in e.binders)
        kept = tuple(l for l in body.labels if l not in set(e.binders))
        return LabeledTable(kept, body.values.sum(axis=axes))
    acc = _eval(swig, e.factors[0], provider)
    for f in e.factors[1:]:
        nxt = _eval(swig, f, provider)
        for shared in set(acc.labels) & set(nxt.labels):
            a = acc.values.shape[acc.labels.index(shared)]
            b = nxt.values.shape[nxt.labels.index(shared)]
            if a != b:
                raise ExprError(f"axis {shared!r} has inconsistent sizes {a} and {b}")
        labels = acc.labels + tuple(l for l in nxt.labels if l not in acc.labels)
        acc = LabeledTable(labels, acc.aligned(labels) * nxt.aligned(labels))
    return acc


def oracle_provider(model: DiscreteModel) -> TableProvider:
    def provider(regime: Regime, deps: tuple[str, ...], conds: tuple[str, ...]):
        return joint(model, regime).conditional(deps, conds)

    return provider


def eval_expr(
    model: DiscreteModel,
    e: ProbExpr,
    params: Mapping[str, int] | None = None,
) -> LabeledTable:
    """Evaluate an expression against the exact oracle.

    Free symbols and bare variables become named axes of the result; params
    pins named axes to levels afterwards.
    """
    out = _eval(model.swig, e, oracle_provider(model))
    if params:
        out = out.select(params)
    return out


def eval_estimand(model: DiscreteModel, estimand: Estimand) -> LabeledTable:
    """Oracle value of an estimand, as a table over its bare/symbol axes."""
    return eval_expr(model, estimand)


# ---------------------------------------------------------------------------
# numeric CI check

def brute_force_ci(model: DiscreteModel, q: CiQuery, tol: float = 1e-9) -> bool:
    """True iff x and y are independent given z in the regime-s joint, up to
    tol, skipping conditioning cells of probability below 1e-12."""
    if not q.x or not q.y:
        return True
    x, y, z = sorted(q.x), sorted(q.y), sorted(q.z)
    j = joint(model, q.regime)
    m = j.marginal(tuple(x) + tuple(y) + tuple(z))
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
    return float(np.max(diff)) <= tol


# ---------------------------------------------------------------------------
# model construction

def random_base_cpts(
    base: BaseDag, rng: np.random.Generator, concentration: float = 1.0
) -> dict[str, Cpt]:
    """One Dirichlet CPT per base variable, parents in sorted base-name order.

    Keyed to the pre-split graph so that two splittings of the same skeleton
    share identical mechanisms."""
    graph = Graph(base.names, base.edges)
    out: dict[str, Cpt] = {}
    for v in base.variables:
        parents = tuple(sorted(graph.parents(v.name)))
        shape = tuple(base.var(p).cardinality for p in parents)
        k = v.cardinality
        if k == 1:
            table = np.ones(shape + (1,))
        else:
            table = rng.dirichlet([concentration] * k, size=shape)
        out[v.name] = (parents, table)
    return out


def model_from_base_cpts(swig: Swig, base_cpts: Mapping[str, Cpt]) -> DiscreteModel:
    """Attach base-graph CPTs to a split graph: any parent that was split is
    read through its intervention node, same table."""
    split = dict(swig.pairs)
    cpts: dict[str, Cpt] = {}
    for name, (parents, table) in base_cpts.items():
        cpts[name] = (tuple(split.get(p, p) for p in parents), np.asarray(table, float))
    return DiscreteModel(swig, cpts)


def random_model(swig: Swig, seed: int = 0, concentration: float = 1.0) -> DiscreteModel:
    rng = np.random.default_rng(seed)
    return model_from_base_cpts(swig, random_base_cpts(swig.base, rng, concentration))


# ---------------------------------------------------------------------------
# sampling and plug-in estimation

@dataclass(eq=False)
class Dataset:
    """Integer-coded samples, one column per variable."""

    columns: tuple[str, ...]
    data: np.ndarray
    levels: dict[str, int]

    def col(self, name: str) -> np.ndarray:
        try:
            return self.data[:, self.columns.index(name)]
        except ValueError:
            raise SwigIdentError(f"dataset has no column {name!r}") from None

    def __len__(self) -> int:
        return self.data.shape[0]

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(self.columns)
        writer.writerows(self.data.tolist())

    @classmethod
    def read_csv(cls, fh, levels: Mapping[str, int] | None = None) -> "Dataset":
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[int(x) for x in row] for row in reader if row]
        data = np.asarray(rows, dtype=int).reshape(len(rows), len(header))
        if levels is None:
            levels = {n: int(data[:, i].max()) + 1 for i, n in enumerate(header)}
        return cls(tuple(header), data, dict(levels))


def sample(model: DiscreteModel, regime: Regime, n: int, seed: int = 0) -> Dataset:
    """Ancestral sampling of the regime graph; intervention nodes copy their
    target when inactive and draw uniformly when active."""
    swig = model.swig
    graph = swig.regime_graph(regime)
    rng = np.random.default_rng(seed)
    cols: dict[str, np.ndarray] = {}
    for name in graph.topological_order:
        var = swig.var(name)
        k = var.cardinality
        if name in swig.target_of:
            idx = swig.index_of[name]
            if idx in regime.active:
                cols[name] = rng.integers(0, k, size=n)
            else:
                cols[name] = cols[swig.target_of[name]].copy()
            continue
        parents, cpt = model.cpts[name]
        rows = cpt[tuple(cols[p] for p in parents)] if parents else np.broadcast_to(cpt, (n, k))
        u = rng.random(n)
        draws = (u[:, None] > np.cumsum(rows, axis=-1)).sum(axis=-1)
        cols[name] = np.minimum(draws, k - 1)
    data = np.column_stack([cols[name] for name in swig.names])
    return Dataset(swig.names, data, {v.name: v.cardinality for v in swig.variables})


def empirical_provider(dataset: Dataset, smoothing: float = 1.0) -> TableProvider:
    def provider(regime: Regime, deps: tuple[str, ...], conds: tuple[str, ...]):
        if not regime.is_observational:
            raise SwigIdentError("plug-in estimation needs a regime-0 expression")
        names = tuple(deps) + tuple(conds)
        cards = [dataset.levels[n] for n in names]
        flat = np.ravel_multi_index([dataset.col(n) for n in names], cards)
        size = int(np.prod(cards))
        counts = np.bincount(flat, minlength=size).reshape(cards).astype(float)
        counts += smoothing
        denom = counts.sum(axis=tuple(range(len(deps))))
        return counts / denom

    return provider


def plugin_estimate(
    swig: Swig,
    e: ProbExpr,
    dataset: Dataset,
    params: Mapping[str, int] | None = None,
    smoothing: float = 1.0,
) -> LabeledTable:
    """Evaluate an identified (regime-0) formula with every conditional
    replaced by its smoothed empirical frequency."""
    bad = [r for r in regimes_used(e) if not r.is_observational]
    if bad:
        raise SwigIdentError("formula still uses interventional regimes; identify first")
    out = _eval(swig, e, empirical_provider(dataset, smoothing))
    if params:
        out = out.select(params)
    return out


# ---------------------------------------------------------------------------
# model files

def model_to_json(model: DiscreteModel) -> dict:
    base = model.swig.base
    return {
        "graph": {
            "name": base.name,
            "variables": [
                {
                    "name": v.name,
                    "time": v.time,
                    "role": v.role.value,
                    "observed": v.observed,
                    "levels": v.cardinality,
                }
                for v in base.variables
            ],
            "edges": sorted([a, b] for a, b in base.edges),
            "targets": list(base.targets),
        },
        "cpts": {
            name: {"parents": list(parents), "table": np.asarray(t).ravel().tolist()}
            for name, (parents, t) in sorted(model.cpts.items())
        },
    }


def model_from_json(obj: dict) -> DiscreteModel:
    with malformed("model"):
        g = obj["graph"]
        variables = tuple(
            Variable(
                name=v["name"],
                time=int(v.get("time", 0)),
                role=Role(v.get("role", "other")),
                observed=bool(v.get("observed", True)),
                cardinality=int(v.get("levels", 2)),
            )
            for v in g["variables"]
        )
        base = BaseDag(
            variables=variables,
            edges=frozenset((a, b) for a, b in g["edges"]),
            targets=tuple(g.get("targets", ())),
            name=g.get("name", "graph"),
        )
        swig = to_swig(base)
        cpts: dict[str, Cpt] = {}
        for name, spec in obj["cpts"].items():
            parents = tuple(spec["parents"])
            shape = tuple(swig.var(p).cardinality for p in parents) + (
                swig.var(name).cardinality,
            )
            cpts[name] = (parents, np.asarray(spec["table"], float).reshape(shape))
        return DiscreteModel(swig, cpts)


def save_model(model: DiscreteModel, fh) -> None:
    if isinstance(fh, (str, os.PathLike)):
        with open(fh, "w", encoding="utf-8") as f:
            return save_model(model, f)
    json.dump(model_to_json(model), fh, sort_keys=True, indent=2)


def load_model(fh) -> DiscreteModel:
    if isinstance(fh, (str, os.PathLike)):
        with open(fh, encoding="utf-8") as f:
            return load_model(f)
    with malformed("model"):
        obj = json.load(fh)
    return model_from_json(obj)
