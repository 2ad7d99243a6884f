"""Directed-graph queries used by the rewrite rules.

Holds the generic graph container, Pearl d-separation via the reachable-sets
procedure, and the droppability check for interventions later than a given
time.  Conditional independence "in q_s" means d-separation in the regime-s
graph; that single bridge is what every rule's side condition rests on.
A CiQuery's dict form is the derivation module's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import TYPE_CHECKING, Iterable

from .errors import SwigIdentError

if TYPE_CHECKING:
    from .model import Regime, Swig


@dataclass(frozen=True)
class Graph:
    """Immutable directed graph over string-named nodes."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))
        if len(set(self.nodes)) != len(self.nodes):
            raise SwigIdentError("duplicate node names in graph")
        known = set(self.nodes)
        for a, b in self.edges:
            if a not in known or b not in known:
                raise SwigIdentError(f"edge ({a}, {b}) references an undeclared node")

    @cached_property
    def _node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        acc: dict[str, list[str]] = {v: [] for v in self.nodes}
        for a, b in self.edges:
            acc[b].append(a)
        return {v: tuple(sorted(ps)) for v, ps in acc.items()}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        acc: dict[str, list[str]] = {v: [] for v in self.nodes}
        for a, b in self.edges:
            acc[a].append(b)
        return {v: tuple(sorted(cs)) for v, cs in acc.items()}

    def _require(self, v: str) -> None:
        if v not in self._node_set:
            raise SwigIdentError(f"unknown variable {v!r}")

    def parents(self, v: str) -> tuple[str, ...]:
        self._require(v)
        return self._parents[v]

    def children(self, v: str) -> tuple[str, ...]:
        self._require(v)
        return self._children[v]

    def ancestors(self, seeds: Iterable[str]) -> frozenset[str]:
        """Seeds plus every node with a directed path into a seed."""
        return self._closure(seeds, self._parents)

    def descendants(self, seeds: Iterable[str]) -> frozenset[str]:
        """Seeds plus every node reachable from a seed."""
        return self._closure(seeds, self._children)

    def _closure(self, seeds: Iterable[str], step: dict[str, tuple[str, ...]]) -> frozenset[str]:
        out = set()
        queue = deque()
        for v in seeds:
            self._require(v)
            if v not in out:
                out.add(v)
                queue.append(v)
        while queue:
            v = queue.popleft()
            for w in step[v]:
                if w not in out:
                    out.add(w)
                    queue.append(w)
        return frozenset(out)

    @cached_property
    def topological_order(self) -> tuple[str, ...]:
        ts = TopologicalSorter({v: self._parents[v] for v in self.nodes})
        try:
            return tuple(ts.static_order())
        except CycleError as exc:
            raise SwigIdentError("graph contains a cycle") from exc


@dataclass(frozen=True)
class CiQuery:
    """The statement ``x independent of y given z`` under the regime-s law."""

    regime: Regime
    x: frozenset[str]
    y: frozenset[str]
    z: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "y", frozenset(self.y))
        object.__setattr__(self, "z", frozenset(self.z))
        if self.x & self.y or self.x & self.z or self.y & self.z:
            raise SwigIdentError("CI query sets must be pairwise disjoint")

    def __str__(self) -> str:
        lhs = ", ".join(sorted(self.x))
        rhs = ", ".join(sorted(self.y))
        given = ", ".join(sorted(self.z))
        text = f"{self.regime}: {lhs} _||_ {rhs}"
        return f"{text} | {given}" if given else text


def d_separated_nodes(
    graph: Graph,
    x: Iterable[str],
    y: Iterable[str],
    z: Iterable[str] = (),
) -> bool:
    """Pearl d-separation of node sets in a plain directed graph.

    Reachable-sets formulation: walk (node, direction) states from x, where
    direction records whether the node was entered from a child (against the
    edge) or from a parent (along the edge); colliders pass only when the
    node or one of its descendants is conditioned on.
    """
    xs, ys, zs = frozenset(x), frozenset(y), frozenset(z)
    for v in xs | ys | zs:
        if v not in graph._node_set:
            raise SwigIdentError(f"unknown variable {v!r}")
    if xs & ys or xs & zs or ys & zs:
        raise SwigIdentError("CI query sets must be pairwise disjoint")
    if not xs or not ys:
        return True

    anz = graph.ancestors(zs) if zs else frozenset()
    queue: deque[tuple[str, bool]] = deque((v, True) for v in xs)
    seen: set[tuple[str, bool]] = set(queue)
    while queue:
        v, from_child = queue.popleft()
        if v in ys:
            return False
        moves: list[tuple[str, bool]] = []
        if from_child:
            if v not in zs:
                moves.extend((p, True) for p in graph.parents(v))
                moves.extend((c, False) for c in graph.children(v))
        else:
            if v not in zs:
                moves.extend((c, False) for c in graph.children(v))
            if v in anz:
                moves.extend((p, True) for p in graph.parents(v))
        for state in moves:
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return True


@dataclass
class GraphCache:
    """What a Swig has worked out about itself: its regime graphs, the
    answers of d_separated (with a count of the calls they answered) and
    the results of drop_later_obstruction, which depend on a term only
    through its regime and its dependent and conditioner names.  Each value
    is a function of its key and the Swig alone, and each key ranges over a
    finite set for a given graph."""

    regime_graphs: dict[Regime, Graph] = field(default_factory=dict)
    d_separated: dict[CiQuery, bool] = field(default_factory=dict)
    d_separated_hits: int = 0
    # (regime, dependent names, conditioner names, t) -> (obstruction, checks)
    drop_later: dict[tuple, tuple] = field(default_factory=dict)


def d_separated(swig: Swig, query: CiQuery) -> bool:
    """d-separation of query.x and query.y given query.z in the regime graph."""
    cache = swig.cache
    answer = cache.d_separated.get(query)
    if answer is None:
        graph = swig.regime_graph(query.regime)
        answer = cache.d_separated[query] = d_separated_nodes(graph, query.x, query.y, query.z)
    else:
        cache.d_separated_hits += 1
    return answer


def drop_later_obstruction(swig: Swig, estimand, t: int):
    """First obstacle to truncating the regime after time t, and the
    d-separation checks made on the way.

    Walking active indices j > t from the latest down, intervention j may be
    deactivated when (a) if its node sits in the conditioning set, the
    dependents are d-separated from it given the rest, and (b) no remaining
    variable of the term is a descendant of the node while j is active.
    Condition (b) is what keeps colliders and pure intervention children from
    smuggling dependence past check (a): non-descendants of the node keep
    their joint law when the copy edge is restored.

    Returns (obstruction, checks).  obstruction is None if every later
    intervention can be dropped, otherwise a (reason, CiQuery) pair
    describing the first failure; the query is None when the node is a
    dependent of the term, which no d-separation decides.  checks are the
    passed d-separations of (a), latest intervention first, which justify
    the drop.
    """
    deps = frozenset(name for name, _ in estimand.dependents)
    conds = frozenset(name for name, _ in estimand.conditioners)
    key = (estimand.regime, deps, conds, t)
    cache = swig.cache.drop_later
    if key not in cache:
        cache[key] = _drop_later_obstruction(swig, estimand.regime, deps, conds, t)
    return cache[key]


def _drop_later_obstruction(
    swig: Swig, regime: Regime, deps: frozenset[str], conds: frozenset[str], t: int
):
    checks: list[CiQuery] = []
    cur = regime
    for j in sorted((i for i in regime.active if i > t), reverse=True):
        do = swig.intervention(j)
        rest = frozenset(conds - {do})
        if do in deps:
            return (f"{do} is a dependent of the term", None), tuple(checks)
        if do in conds:
            query = CiQuery(cur, x=deps, y=frozenset({do}), z=rest)
            if not d_separated(swig, query):
                return (f"dependents not d-separated from {do}", query), tuple(checks)
            checks.append(query)
        graph = swig.regime_graph(cur)
        offenders = ((deps | rest) & graph.descendants({do})) - {do}
        if offenders:
            query = CiQuery(cur, x=frozenset(offenders), y=frozenset({do}), z=rest - offenders)
            return (f"{', '.join(sorted(offenders))} descend from {do}", query), tuple(checks)
        cur = cur.without(j)
        conds = rest
    return None, tuple(checks)
