"""Shared fixtures: the example graphs, canonical estimands, a
step-corruption helper used by the soundness suites, and character
mutations of text for the reader fuzz tests."""

import functools

import numpy as np
import pytest
from hypothesis import strategies as st

from swigident import (
    Derivation,
    DerivationStep,
    ExprError,
    Lit,
    Regime,
    Sym,
    Term,
    ZeroProbabilityError,
    ablated_figure1,
    eval_expr,
    figure1,
    figure2,
    figure3,
    identify,
    regimes_used,
    to_swig,
)
from swigident.expr import free_symbols, replace_at, terms
from swigident.oracle import model_from_base_cpts, random_base_cpts, random_cpt_batch


@pytest.fixture(scope="session")
def fig1():
    return to_swig(figure1())


@pytest.fixture(scope="session")
def fig1_hidden():
    return to_swig(figure1(l_observed=False))


@pytest.fixture(scope="session")
def fig1_ablated():
    return to_swig(ablated_figure1())


@pytest.fixture(scope="session")
def fig2_n2():
    return to_swig(figure2(2))


@pytest.fixture(scope="session")
def fig3_n2():
    return to_swig(figure3(2))


def dose_estimand(swig, dependents):
    """q_n(dependents | Do_1=d_1, ..., Do_n=d_n) with one symbol per dose."""
    n = swig.n_interventions
    conds = [(swig.intervention(t), Sym(f"d{t}")) for t in range(1, n + 1)]
    return Term.of(Regime.prefix(n), dependents, conds)


@pytest.fixture(scope="session")
def fig1_estimand(fig1):
    return dose_estimand(fig1, ("Y1",))


@pytest.fixture(scope="session")
def bundled_derivations(fig1, fig1_hidden, fig2_n2):
    """The derivations the package produces for its shipped fixtures."""
    est1 = dose_estimand(fig1, ("Y1",))
    est2_m = dose_estimand(fig2_n2, ("M1", "M2"))
    est2_y = dose_estimand(fig2_n2, ("Y",))
    out = [
        ("backdoor_fig1", fig1, identify(fig1, est1, "backdoor:L")),
        ("frontdoor_fig1", fig1_hidden, identify(fig1_hidden, est1, "frontdoor:M1")),
        ("seqbd_fig2_n2", fig2_n2, identify(fig2_n2, est2_m, "sequential_backdoor")),
        ("seqfd_fig2_n2", fig2_n2, identify(fig2_n2, est2_y, "sequential_frontdoor")),
        ("compose_fig2_n2", fig2_n2, identify(fig2_n2, est2_y, "mediator_intervention")),
    ]
    for name, _, d in out:
        assert d.identified, name
    return out


def _revalue(term: Term, name, new_ref) -> Term:
    deps = tuple((n, new_ref if n == name else r) for n, r in term.dependents)
    conds = tuple((n, new_ref if n == name else r) for n, r in term.conditioners)
    return Term(term.regime, deps, conds)


def _probe_model(swig, seed: int = 0):
    """Same construction as verify's first model, so a probed deviation is
    guaranteed to reappear there."""
    cpts = random_base_cpts(swig.base, np.random.default_rng((seed, 0)))
    return model_from_base_cpts(swig, cpts)


def seeded_cpts(swig, n: int, seed: int = 0):
    """The base CPTs of verify's n models for seed (model i from
    default_rng((seed, i))), stacked on a leading model axis."""
    return random_cpt_batch(swig.base, [np.random.default_rng((seed, i)) for i in range(n)])


def model_cpts(cpts, m: int):
    """Model m's base CPTs of a stacked set."""
    return {name: (parents, table[m]) for name, (parents, table) in cpts.items()}


def with_row(cpts, m: int, name: str, row: tuple, law):
    """A copy of the stacked cpts whose table for name, in model m, has
    law in the given row of its parents' levels."""
    parents, table = cpts[name]
    table = table.copy()
    table[(m, *row)] = law
    return {**cpts, name: (parents, table)}


def _dev_tables(a, b) -> float:
    labels = tuple(dict.fromkeys(a.labels + b.labels))
    return float(np.max(np.abs(a.aligned(labels) - b.aligned(labels))))


def _tamper_candidates(out, swig):
    """Single-edit corruptions of an expression: revalue one pinned entry, or
    drop one conditioner without justification."""
    free = free_symbols(out)
    for path, term in terms(out):
        for name, ref in (*term.dependents, *term.conditioners):
            if ref is None:
                continue
            card = swig.var(name).cardinality
            if isinstance(ref, Lit):
                new_ref = Lit((ref.value + 1) % card)
            elif isinstance(ref, Sym) and ref.name in free:
                new_ref = Lit(0)
            else:
                continue
            yield replace_at(out, path, _revalue(term, name, new_ref))
    for path, term in terms(out):
        for name, _ in term.conditioners:
            conds = tuple(c for c in term.conditioners if c[0] != name)
            yield replace_at(out, path, Term(term.regime, term.dependents, conds))


def corrupt_step(derivation: Derivation, swig, k: int) -> Derivation:
    """Tamper step k's output by one small edit, then truncate after it.

    Some edits are numerically inert: the CI that licensed the step makes the
    flipped value irrelevant, so the tampered expression is still equal to the
    original. Candidates are probed on a model and only a value-changing edit
    is kept. The result still chains (validate_derivation passes); only
    numeric verification can tell it is wrong.
    """
    step = derivation.steps[k]
    out = step.output
    probe = _probe_model(swig)
    chosen = fallback = None
    for tampered in _tamper_candidates(out, swig):
        if tampered == step.input or tampered == out:
            continue
        try:
            dev = _dev_tables(eval_expr(probe, step.input), eval_expr(probe, tampered))
        except ZeroProbabilityError:
            # Conditions on an impossible event (the observed-data coupling):
            # every model skips, which verify also counts as a failure.
            fallback = fallback or tampered
            continue
        except ExprError:
            continue
        if dev > 1e-6:
            chosen = tampered
            break
    chosen = chosen or fallback
    if chosen is None:
        raise AssertionError(f"step {k} has no detectable edit to corrupt")
    bad_step = DerivationStep(
        rule=step.rule,
        input=step.input,
        output=chosen,
        justification=step.justification,
    )
    status = (
        "identified"
        if all(r.is_observational for r in regimes_used(chosen))
        else "not_identified"
    )
    return Derivation(
        estimand=derivation.estimand,
        steps=(*derivation.steps[:k], bad_step),
        final=chosen,
        status=status,
    )


# What a character mutation puts in: the grammars' own characters, a few
# that no reader expects (a NUL, a non-ASCII letter and digit, quotes), and
# whole words and numbers of the text formats.
_MUTATION_CHARS = "qdoLYMD120 _-|,;:=@>()[]{}'\"#.\\\t\r\n\x00é٣"
_MUTATION_WORDS = [
    "graph", "var", "edge", "target", "order=", "role=", "unobserved", "do", "sum", "q",
    "-1", "1e3", "nan", "99999999999999999999", "Do1", "_||_",
]


def mutated_text(text: str):
    """Strategy: text with one to three edits, each deleting up to three
    characters at a drawn position and putting up to three drawn characters
    or one drawn word in their place."""
    put = st.text(_MUTATION_CHARS, max_size=3) | st.sampled_from(_MUTATION_WORDS)
    edit = st.tuples(st.integers(0, len(text)), st.integers(0, 3), put)

    def apply(text, edit):
        at, cut, new = edit
        at = min(at, len(text))
        return text[:at] + new + text[at + cut :]

    edits = st.lists(edit, min_size=1, max_size=3)
    return edits.map(lambda chosen: functools.reduce(apply, chosen, text))
