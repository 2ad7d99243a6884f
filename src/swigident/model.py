"""Base DAGs, node splitting, and regimes.

Splitting a target X_t yields the pair (X_t, Xo_t): X_t keeps its incoming
edges and stands for the natural value, Xo_t takes over the outgoing edges
and stands for the value fed to downstream variables.  Under the
observational regime the pair is tied by a deterministic copy edge
X_t -> Xo_t; activating intervention t severs that edge and makes Xo_t an
exogenous root.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import Union

from .errors import GraphValidationError, SwigIdentError
from .graphs import Graph, GraphCache

# The variable names that graph files, estimands and expressions can spell;
# a symbol may add trailing quotes (d1').
NAME = r"[A-Za-z_][A-Za-z0-9_]*"
SYMBOL = re.compile(NAME + "'*")
# The largest prefix regime Regime.prefix builds: a safety limit for text
# that names a regime with no graph at hand, such as an expression's qN.
PREFIX_LIMIT = 10_000


class Role(str, Enum):
    COVARIATE = "covariate"
    TARGET = "target"
    INTERVENTION = "intervention"
    MEDIATOR = "mediator"
    OUTCOME = "outcome"
    OTHER = "other"


@dataclass(frozen=True)
class Lit:
    """A literal level index of a discrete variable."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Sym:
    """A named value placeholder; free (a parameter) or bound by a Sum."""

    name: str

    def __str__(self) -> str:
        return self.name


ValueRef = Union[Lit, Sym]


@dataclass(frozen=True)
class Variable:
    name: str
    time: int = 0
    role: Role = Role.OTHER
    observed: bool = True
    cardinality: int = 2


@dataclass(frozen=True)
class Regime:
    """The set of active interventions; indexes the distribution q_s.

    The empty set is the observed-data law q_0.  Prefix regimes {1..t} are
    written q1, q2, ...; arbitrary subsets print as q{i,j}.
    """

    active: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "active", frozenset(self.active))
        if any(not isinstance(i, int) or i < 1 for i in self.active):
            raise SwigIdentError("intervention indices must be integers >= 1")

    @classmethod
    def prefix(cls, t: int) -> Regime:
        if t < 0:
            raise SwigIdentError("prefix length must be >= 0")
        if t > PREFIX_LIMIT:
            raise SwigIdentError(f"regime index {t} exceeds the limit of {PREFIX_LIMIT}")
        return cls(frozenset(range(1, t + 1)))

    @classmethod
    def observational(cls) -> Regime:
        return cls(frozenset())

    @property
    def is_observational(self) -> bool:
        return not self.active

    @property
    def is_prefix(self) -> bool:
        return self.active == frozenset(range(1, len(self.active) + 1))

    def without(self, t: int) -> Regime:
        return Regime(self.active - {t})

    def truncated(self, t: int) -> Regime:
        return Regime(frozenset(i for i in self.active if i <= t))

    def __str__(self) -> str:
        if self.is_prefix:
            return f"q{len(self.active)}"
        return "q{" + ",".join(str(i) for i in sorted(self.active)) + "}"


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.message}"


class _Variables:
    """Name lookup over a graph's variables field."""

    variables: tuple[Variable, ...]

    @cached_property
    def by_name(self) -> dict[str, Variable]:
        return {v.name: v for v in self.variables}

    def var(self, name: str) -> Variable:
        try:
            return self.by_name[name]
        except KeyError:
            raise SwigIdentError(f"unknown variable {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)


@dataclass(frozen=True)
class BaseDag(_Variables):
    """Pre-split causal DAG: variables in declaration order, edges, and the
    ordered list of intervention targets (order gives indices 1..n)."""

    variables: tuple[Variable, ...]
    edges: frozenset[tuple[str, str]]
    targets: tuple[str, ...] = ()
    name: str = "graph"

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        object.__setattr__(self, "targets", tuple(self.targets))


def validate(base: BaseDag) -> list[Violation]:
    """Structural diagnostics; empty list iff the DAG is well formed."""
    out: list[Violation] = []
    if not re.fullmatch(NAME, base.name):
        out.append(Violation("name", f"graph name {base.name!r} is not a name ({NAME})"))
    names = [v.name for v in base.variables]
    seen: set[str] = set()
    for n in names:
        if n in seen:
            out.append(Violation("duplicate-name", f"variable {n!r} declared twice"))
        seen.add(n)

    for v in base.variables:
        if not re.fullmatch(NAME, v.name):
            out.append(Violation("name", f"{v.name!r} is not a name ({NAME})"))
        if v.cardinality < 1:
            out.append(Violation("cardinality", f"{v.name!r} must have >= 1 level"))
        if v.time < 0:
            out.append(Violation("time", f"{v.name!r} has negative time index"))
        if v.role is Role.INTERVENTION:
            out.append(
                Violation("role", f"{v.name!r}: intervention nodes only arise by splitting")
            )

    endpoints_ok = True
    for a, b in sorted(base.edges):
        for end in (a, b):
            if end not in seen:
                out.append(Violation("edge-endpoint", f"edge ({a}, {b}): {end!r} undeclared"))
                endpoints_ok = False

    tseen: set[str] = set()
    targets_ok = True
    for t in base.targets:
        if t not in seen:
            out.append(Violation("target", f"target {t!r} undeclared"))
            targets_ok = False
        if t in tseen:
            out.append(Violation("target", f"target {t!r} listed twice"))
            targets_ok = False
        tseen.add(t)

    if len(set(names)) != len(names) or not endpoints_ok:
        return out

    ts = TopologicalSorter({n: [a for a, b in base.edges if b == n] for n in names})
    try:
        ts.prepare()
    except CycleError as exc:
        cycle = " -> ".join(exc.args[1]) if len(exc.args) > 1 else ""
        out.append(Violation("cycle", f"graph contains a cycle {cycle}".strip()))
        return out

    for a, b in sorted(base.edges):
        if base.var(a).time > base.var(b).time:
            out.append(Violation("edge-time", f"edge ({a}, {b}) goes backwards in time"))

    if targets_ok and len(base.targets) > 1:
        graph = Graph(tuple(names), base.edges)
        for i, earlier in enumerate(base.targets):
            for later in base.targets[i + 1 :]:
                if earlier in graph.descendants({later}):
                    out.append(
                        Violation(
                            "target-order",
                            f"target {later!r} precedes {earlier!r} in the DAG "
                            "but follows it in the intervention order",
                        )
                    )
    return out


def intervention_name(name: str) -> str:
    """Derived name of the split partner: trailing digits keep their place
    (D1 -> Do1, M2 -> Mo2, X -> Xo)."""
    stem, digits = re.fullmatch(r"(.*?)(\d*)", name).groups()
    return f"{stem}o{digits}"


@dataclass(frozen=True)
class Swig(_Variables):
    """Node-split graph with its regime-0 edge set.

    pairs holds (target, intervention) names in intervention order 1..n.
    edges is the regime-0 set: base edges with every child of a target
    rewired to read the intervention node, plus the copy edges.
    """

    base: BaseDag
    variables: tuple[Variable, ...]
    pairs: tuple[tuple[str, str], ...]
    edges: frozenset[tuple[str, str]]

    @cached_property
    def intervention_of(self) -> dict[str, str]:
        return {t: o for t, o in self.pairs}

    @cached_property
    def target_of(self) -> dict[str, str]:
        return {o: t for t, o in self.pairs}

    @cached_property
    def index_of(self) -> dict[str, int]:
        """1-based intervention index of both members of each pair."""
        out: dict[str, int] = {}
        for i, (t, o) in enumerate(self.pairs, start=1):
            out[t] = i
            out[o] = i
        return out

    @property
    def n_interventions(self) -> int:
        return len(self.pairs)

    @property
    def full_regime(self) -> Regime:
        return Regime.prefix(self.n_interventions)

    def target(self, t: int) -> str:
        self._require_index(t)
        return self.pairs[t - 1][0]

    def intervention(self, t: int) -> str:
        self._require_index(t)
        return self.pairs[t - 1][1]

    def _require_index(self, t: int) -> None:
        if not 1 <= t <= self.n_interventions:
            raise SwigIdentError(f"no intervention with index {t}")

    def check_regime(self, regime: Regime) -> None:
        """Refuse a regime whose largest index exceeds the declared targets."""
        self._check_top(max(regime.active, default=0))

    def prefix_regime(self, t: int) -> Regime:
        """Regime.prefix(t), with t checked before the regime is built."""
        self._check_top(t)
        return Regime.prefix(t)

    def _check_top(self, t: int) -> None:
        if t > self.n_interventions:
            raise SwigIdentError(
                f"regime index {t} exceeds the {self.n_interventions} declared targets"
            )

    @cached_property
    def graph(self) -> Graph:
        """Regime-0 graph (all copy edges present)."""
        return Graph(self.names, self.edges)

    @cached_property
    def cache(self) -> GraphCache:
        """Regime graphs and graph queries worked out so far; they live as
        long as this Swig."""
        return GraphCache()

    def regime_graph(self, regime: Regime) -> Graph:
        """Edges of the SWIG with copy edges of active interventions severed."""
        graph = self.cache.regime_graphs.get(regime)
        if graph is None:
            self.check_regime(regime)
            if regime.is_observational:
                graph = self.graph
            else:
                severed = {
                    (t, o) for i, (t, o) in enumerate(self.pairs, start=1) if i in regime.active
                }
                graph = Graph(self.names, self.edges - severed)
            self.cache.regime_graphs[regime] = graph
        return graph

    @property
    def observed(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.observed)


def to_swig(base: BaseDag) -> Swig:
    """Split every declared target, rewiring children onto the new node."""
    problems = validate(base)
    if problems:
        raise GraphValidationError(problems)

    split: dict[str, str] = {}
    taken = set(base.names)
    for tgt in base.targets:
        iname = intervention_name(tgt)
        if iname in taken:
            raise SwigIdentError(
                f"cannot split {tgt!r}: the name {iname!r} is already in use"
            )
        split[tgt] = iname
        taken.add(iname)

    variables: list[Variable] = []
    for v in base.variables:
        variables.append(v)
        if v.name in split:
            variables.append(
                Variable(
                    name=split[v.name],
                    time=v.time,
                    role=Role.INTERVENTION,
                    observed=v.observed,
                    cardinality=v.cardinality,
                )
            )

    edges: set[tuple[str, str]] = set()
    for a, b in base.edges:
        edges.add((split.get(a, a), b))
    for tgt, iname in split.items():
        edges.add((tgt, iname))

    return Swig(
        base=base,
        variables=tuple(variables),
        pairs=tuple((t, split[t]) for t in base.targets),
        edges=frozenset(edges),
    )
