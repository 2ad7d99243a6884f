"""Probability-expression AST: regime-tagged terms, sums, products.

Expressions are immutable trees of Term / Sum / Product.  A Term's entries
pair a variable name with a value reference: a literal level, a symbol, or
None for a distribution-valued (bare) entry whose levels form an output
axis.  Canonical form puts every binder at the top (sums lifted out of
products), sorts entries and factors, and alpha-renames bound symbols, so
structural equality is equality of canonical forms.  It takes one round:
factors are ordered by keys built from per-factor texts, each made once,
with only the entries holding a binder re-rendered as binder colors refine.
An estimand is a Term: the query q_s(dependents | conditioners) a
derivation starts from.  Each node computes its structural hash once, so
the search's dict and set lookups do not re-hash whole trees.

An expression has one serial form, the text of to_text, which
dsl.parse_expr reads back to an equal tree; derivation files store every
expression that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import ExprError
from .model import SYMBOL, Regime, Swig, Sym, ValueRef

Entry = tuple[str, Union[ValueRef, None]]


@dataclass(frozen=True)
class Term:
    """A conditional probability q_s(dependents | conditioners)."""

    regime: Regime
    dependents: tuple[Entry, ...]
    conditioners: tuple[Entry, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dependents", tuple(tuple(d) for d in self.dependents))
        object.__setattr__(self, "conditioners", tuple(tuple(c) for c in self.conditioners))
        names = [n for n, _ in self.dependents] + [n for n, _ in self.conditioners]
        if len(set(names)) != len(names):
            raise ExprError(f"variable mentioned twice in term: {names}")
        if not self.dependents:
            raise ExprError("term needs at least one dependent")

    def __hash__(self) -> int:
        return _hash_once(self, (self.regime, self.dependents, self.conditioners))

    def dep_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.dependents)

    def cond_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.conditioners)

    @classmethod
    def of(
        cls,
        regime: Regime,
        dependents: Iterable[str | Entry],
        conditioners: Iterable[Entry] = (),
    ) -> Term:
        """Build a term; a bare name among the dependents is a
        distribution-valued entry."""
        deps = tuple((d, None) if isinstance(d, str) else (d[0], d[1]) for d in dependents)
        return cls(regime, deps, tuple(conditioners))


@dataclass(frozen=True)
class Sum:
    """Sum of the body over all levels of each bound symbol."""

    binders: tuple[str, ...]
    body: ProbExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "binders", tuple(self.binders))
        if len(set(self.binders)) != len(self.binders):
            raise ExprError(f"duplicate binder in sum: {self.binders}")

    def __hash__(self) -> int:
        return _hash_once(self, (self.binders, self.body))


@dataclass(frozen=True)
class Product:
    factors: tuple[ProbExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 1:
            raise ExprError("empty product")

    def __hash__(self) -> int:
        return _hash_once(self, self.factors)


def _hash_once(node, fields: tuple) -> int:
    """The dataclass hash of a node's fields, stored on the node the first
    time it is asked for (nodes are immutable)."""
    h = node.__dict__.get("_hash")
    if h is None:
        h = node.__dict__["_hash"] = hash(fields)
    return h


ProbExpr = Union[Term, Sum, Product]


def term_of(estimand: Term) -> Term:
    """The estimand's term, which is the estimand itself."""
    return estimand


def validate_estimand(swig: Swig, estimand: Term) -> None:
    """Require the estimand's regime and variables to exist in the graph,
    and its symbols to be names the text form can spell."""
    swig.check_regime(estimand.regime)
    for name, ref in (*estimand.dependents, *estimand.conditioners):
        swig.var(name)
        if isinstance(ref, Sym) and not SYMBOL.fullmatch(ref.name):
            raise ExprError(f"symbol {ref.name!r} is not a name with optional trailing quotes")


# ---------------------------------------------------------------------------
# traversal

def children(e: ProbExpr) -> tuple[ProbExpr, ...]:
    if isinstance(e, Sum):
        return (e.body,)
    if isinstance(e, Product):
        return e.factors
    return ()


def subexpr_at(e: ProbExpr, path: tuple[int, ...]) -> ProbExpr:
    for i in path:
        kids = children(e)
        if not 0 <= i < len(kids):
            raise ExprError(f"path {path} does not exist")
        e = kids[i]
    return e


def replace_at(e: ProbExpr, path: tuple[int, ...], new: ProbExpr) -> ProbExpr:
    if not path:
        return new
    i, rest = path[0], path[1:]
    kids = children(e)
    if not 0 <= i < len(kids):
        raise ExprError(f"path {path} does not exist")
    replaced = replace_at(kids[i], rest, new)
    if isinstance(e, Sum):
        return Sum(e.binders, replaced)
    assert isinstance(e, Product)
    factors = list(e.factors)
    factors[i] = replaced
    return Product(tuple(factors))


def site(a: ProbExpr, b: ProbExpr) -> tuple[int, ...]:
    """The path of the smallest subtree of a and b that holds every
    difference between them: descend while the two nodes have the same
    type, the same binders (sums) or arity (products), and exactly one
    differing child.  A rule's output is replace_at(e, p, new), so the site
    of e and its output extends p, and the two subtrees there are the
    rewritten ones."""
    path: list[int] = []
    while type(a) is type(b) and not isinstance(a, Term):
        if isinstance(a, Sum) and a.binders != b.binders:
            break
        kids_a, kids_b = children(a), children(b)
        if len(kids_a) != len(kids_b):
            break
        differ = [i for i, (x, y) in enumerate(zip(kids_a, kids_b)) if x is not y and x != y]
        if len(differ) != 1:
            break
        path.append(differ[0])
        a, b = kids_a[differ[0]], kids_b[differ[0]]
    return tuple(path)


def terms(e: ProbExpr) -> Iterator[tuple[tuple[int, ...], Term]]:
    """All terms with their tree paths, left to right."""
    if isinstance(e, Term):
        yield (), e
        return
    for i, kid in enumerate(children(e)):
        for path, t in terms(kid):
            yield (i, *path), t


def free_variables(e: ProbExpr) -> frozenset[str]:
    out: set[str] = set()
    for _, t in terms(e):
        out.update(t.dep_names())
        out.update(t.cond_names())
    return frozenset(out)


def regimes_used(e: ProbExpr) -> frozenset[Regime]:
    return frozenset(t.regime for _, t in terms(e))


def _term_syms(t: Term) -> list[str]:
    """Symbol names in entry order, dependents first (with repeats)."""
    out = []
    for _, ref in (*t.dependents, *t.conditioners):
        if isinstance(ref, Sym):
            out.append(ref.name)
    return out


def free_symbols(e: ProbExpr) -> frozenset[str]:
    """Symbols not bound by an enclosing sum (the expression's parameters)."""
    if isinstance(e, Term):
        return frozenset(_term_syms(e))
    if isinstance(e, Sum):
        return free_symbols(e.body) - frozenset(e.binders)
    return frozenset().union(*(free_symbols(f) for f in e.factors))


def all_symbols(e: ProbExpr) -> frozenset[str]:
    if isinstance(e, Term):
        return frozenset(_term_syms(e))
    if isinstance(e, Sum):
        return all_symbols(e.body) | frozenset(e.binders)
    return frozenset().union(*(all_symbols(f) for f in e.factors))


def rename_symbols(e: ProbExpr, mapping: dict[str, str]) -> ProbExpr:
    """Rename free symbol occurrences; binders shadow as usual."""
    if not mapping:
        return e
    if isinstance(e, Term):
        def fix(entries: tuple[Entry, ...]) -> tuple[Entry, ...]:
            return tuple(
                (n, Sym(mapping.get(ref.name, ref.name)) if isinstance(ref, Sym) else ref)
                for n, ref in entries
            )

        return Term(e.regime, fix(e.dependents), fix(e.conditioners))
    if isinstance(e, Sum):
        inner = {k: v for k, v in mapping.items() if k not in e.binders}
        return Sum(e.binders, rename_symbols(e.body, inner))
    return Product(tuple(rename_symbols(f, mapping) for f in e.factors))


def fresh_symbol(stem: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    name = stem
    while name in taken:
        name += "'"
    return name


# ---------------------------------------------------------------------------
# canonical form

def _sorted_term(t: Term) -> Term:
    """The term with its entries sorted by variable name; the term itself
    when they already are."""
    deps, conds = t.dependents, t.conditioners
    if all(a[0] < b[0] for a, b in zip(deps, deps[1:])) and all(
        a[0] < b[0] for a, b in zip(conds, conds[1:])
    ):
        return t
    return Term(
        t.regime,
        tuple(sorted(deps, key=lambda d: d[0])),
        tuple(sorted(conds, key=lambda c: c[0])),
    )


def _prenex(e: ProbExpr) -> tuple[list[str], list[Term], frozenset[str]]:
    """Prenex walk, left to right: every sum's binders, the terms with their
    entries sorted, and the symbols free in e.  No tree is built.  A binder
    keeps its name unless it equals a symbol free in e or a binder already
    given; then fresh_symbol renames it away from every symbol of e and
    every name given so far, so no occurrence is captured."""
    binders: list[str] = []
    out: list[Term] = []
    free = free_symbols(e)
    taken: set[str] = set()  # all_symbols(e) and the names given, once a binder is renamed

    def walk(node: ProbExpr, ren: dict[str, str]) -> None:
        if isinstance(node, Term):
            if ren and not ren.keys().isdisjoint(_term_syms(node)):
                node = rename_symbols(node, ren)
            out.append(_sorted_term(node))
        elif isinstance(node, Product):
            for f in node.factors:
                walk(f, ren)
        else:
            inner, first, start = dict(ren), len(binders), len(out)
            for b in node.binders:
                nb = b
                if b in free or b in binders:
                    if not taken:
                        taken.update(all_symbols(e))
                    nb = inner[b] = fresh_symbol(b, taken)
                    taken.add(nb)
                binders.append(nb)
            walk(node.body, inner)
            used = {s for t in out[start:] for s in _term_syms(t)}
            missing = [b for b, nb in zip(node.binders, binders[first:]) if nb not in used]
            if missing:
                raise ExprError(f"binder(s) never used: {missing}")

    walk(e, {})
    return binders, out, free


def _entry_text(name: str, ref: ValueRef | None) -> str:
    return name if ref is None else f"{name}={ref}"


def _term_text(t: Term) -> str:
    deps = ", ".join([_entry_text(n, r) for n, r in t.dependents])
    conds = ", ".join([_entry_text(n, r) for n, r in t.conditioners])
    inner = f"{deps} | {conds}" if conds else deps
    return f"{t.regime}({inner})"


class _Factor:
    """A term of the ordering pass, its text built once: the regime and
    every entry without a binder print as in to_text, and an entry holding
    binder b prints as ``name=?`` plus b's color."""

    __slots__ = ("term", "head", "texts", "n_deps", "slots")

    def __init__(self, t: Term, bound: frozenset[str]):
        self.term = t
        self.head = f"{t.regime}("
        self.n_deps = len(t.dependents)
        self.texts: list[str] = []
        self.slots: list[tuple[int, str, str, str]] = []  # (position, prefix, binder, tag)
        for side, entries in (("d", t.dependents), ("c", t.conditioners)):
            for name, ref in entries:
                if isinstance(ref, Sym) and ref.name in bound:
                    tag = f"#{side}#{name}"
                    self.slots.append((len(self.texts), f"{name}=?", ref.name, tag))
                self.texts.append(_entry_text(name, ref))

    def key(self, color: dict[str, str]) -> str:
        texts = self.texts
        for pos, prefix, b, _ in self.slots:
            texts[pos] = prefix + color[b]
        deps = ", ".join(texts[: self.n_deps])
        if len(texts) > self.n_deps:
            return f"{self.head}{deps} | {', '.join(texts[self.n_deps:])})"
        return f"{self.head}{deps})"


def _order(binders: list[str], terms_: list[Term], free: frozenset[str]) -> ProbExpr:
    """Ordering pass on a prenex walk's output: sort the factors and rename
    the binders to _1.._k, skipping the free symbols.  Binder identity is
    resolved by color refinement so the result is invariant under factor
    permutation and alpha renaming, even among structurally similar
    factors.  A factor's key is its text with each binder printed as its
    color; a refinement pass re-renders only the entries that hold a
    binder.  A lone term with no binders is returned unchanged."""
    if not binders and len(terms_) == 1:
        return terms_[0]
    bound = frozenset(binders)
    factors = [_Factor(t, bound) for t in terms_]
    color = dict.fromkeys(binders, "")
    keys = [f.key(color) for f in factors]
    for _ in range(len(binders) + len(factors) + 2 if binders else 0):
        occurrences: dict[str, list[str]] = {b: [] for b in binders}
        for key, f in zip(keys, factors):
            for _, _, b, tag in f.slots:
                occurrences[b].append(key + tag)
        raw = {b: "|".join(sorted(occurrences[b])) for b in binders}
        ranks = {c: str(i) for i, c in enumerate(sorted(set(raw.values())))}
        new_color = {b: ranks[raw[b]] for b in binders}
        if new_color == color:
            break
        color = new_color
        keys = [f.key(color) if f.slots else key for key, f in zip(keys, factors)]

    ordered = [factors[i] for i in sorted(range(len(factors)), key=lambda i: (keys[i], i))]
    ren: dict[str, str] = {}
    counter = 1
    for f in ordered:
        for _, _, b, _ in f.slots:
            if b not in ren:
                candidate = f"_{counter}"
                while candidate in free:
                    counter += 1
                    candidate = f"_{counter}"
                ren[b] = candidate
                counter += 1
    out = [rename_symbols(f.term, ren) if f.slots else f.term for f in ordered]

    new_body: ProbExpr = out[0] if len(out) == 1 else Product(tuple(out))
    return Sum(tuple(ren.values()), new_body) if binders else new_body


def canonicalize(e: ProbExpr) -> ProbExpr:
    """Canonical form; struct_eq compares these for equality.

    One round of _order(*_prenex(e)) is a fixpoint, so the form is
    idempotent without a second round to confirm it:
    - _prenex of an _order output gives back its binders and its factors
      as they are: the output is a sum over a flat product of terms with
      sorted entries, and its binders _i are distinct and none is free, so
      none is renamed.
    - The colors come from texts that print bound symbols only as ``=?``
      plus a color, so renaming binders or permuting factors leaves them,
      and the keys, as they were.
    - Sorting by (key, index) is then the identity.
    - Renaming walks the same factors with the same free set, so it maps
      each _i to itself.
    """
    return _order(*_prenex(e))


def struct_eq(a: ProbExpr, b: ProbExpr) -> bool:
    return canonicalize(a) == canonicalize(b)


# ---------------------------------------------------------------------------
# text form

def to_text(e: ProbExpr) -> str:
    if isinstance(e, Term):
        return _term_text(e)
    if isinstance(e, Sum):
        return f"sum{{{', '.join(e.binders)}}} {to_text(e.body)}"
    parts = []
    for f in e.factors:
        text = to_text(f)
        parts.append(f"({text})" if not isinstance(f, Term) else text)
    return " * ".join(parts)


@dataclass(frozen=True)
class DerivationStep:
    """One rewrite: rule name, expression before/after, and the side
    condition instance that licensed it."""

    rule: str
    input: ProbExpr
    output: ProbExpr
    justification: object | None = None

    def __post_init__(self) -> None:
        if self.input == self.output:
            raise ExprError(f"step {self.rule!r} does not change the expression")
