"""The local step audit against the whole-expression audit it replaced.

verify compares each step's rewritten site in its input and its output, and
the final formula with the estimand once.  The reference below is the
earlier loop, kept as an independent check: each batch evaluates the
estimand and every step's output whole and compares neighbours (and the
last with the estimand) over the models neither skips.  Both must agree on
every verdict and model count, and on valid derivations both deviate by at
most 1e-9.
"""

import numpy as np
import pytest

from swigident import (
    Derivation,
    DerivationStep,
    SwigIdentError,
    ablated_figure1,
    figure2,
    identify,
    to_swig,
)
from swigident import oracle
from swigident.derivation import NOT_IDENTIFIED, _mediators_swig
from swigident.engine import TOL, _verify_models

from conftest import corrupt_step, dose_estimand, seeded_cpts
from test_engine import _cpts_with_a_deterministic_row


def reference_verify(d, swig, cpts) -> dict:
    """The whole-expression audit of d: per step its deviation, models used,
    verdict and nested audits, then the final check's, as dicts."""
    nested = {}
    for k, step in enumerate(d.steps):
        if step.rule == "mediator_composition":
            just = step.justification
            nested[k] = [
                reference_verify(just.mediator_law, swig, cpts),
                reference_verify(
                    just.outcome, _mediators_swig(swig, just.mediator_targets), cpts
                ),
            ]
    exprs = [d.estimand, *(s.output for s in d.steps)]
    pairs = list(zip(range(len(exprs) - 1), range(1, len(exprs))))
    if d.identified:
        pairs.append((len(exprs) - 1, 0))
    dev = [0.0] * len(pairs)
    used = [0] * len(pairs)
    for batch in oracle.model_batches(swig, cpts):
        tables = [oracle.eval_expr(batch, e) for e in exprs]
        for k, (i, j) in enumerate(pairs):
            a, b = tables[i], tables[j]
            labels = a.labels + tuple(l for l in b.labels if l not in a.labels)
            diff = np.abs(a.aligned(labels) - b.aligned(labels))
            diff = diff.reshape(len(diff), -1).max(axis=1)
            ok = ~(a.skipped | b.skipped)
            dev[k] = max(dev[k], float(np.max(diff[ok], initial=0.0)))
            used[k] += int(ok.sum())
    steps = []
    for k in range(len(d.steps)):
        inner = nested.get(k, [])
        passed = dev[k] <= TOL and used[k] > 0 and all(r["passed"] for r in inner)
        steps.append({"dev": dev[k], "used": used[k], "passed": passed, "nested": inner})
    out = {"steps": steps, "final": None, "final_used": 0}
    passed = all(s["passed"] for s in steps)
    if d.identified:
        out["final"], out["final_used"] = dev[-1], used[-1]
        passed &= dev[-1] <= TOL and used[-1] > 0
    out["passed"] = passed
    return out


def assert_matches_reference(report, ref, valid: bool) -> None:
    """Same verdicts and model counts as the reference; on a valid
    derivation, every deviation of both at most 1e-9."""
    assert report.passed == ref["passed"]
    assert report.final_models == ref["final_used"]
    assert (report.final_deviation is None) == (ref["final"] is None)
    assert len(report.steps) == len(ref["steps"])
    for step, want in zip(report.steps, ref["steps"]):
        assert step.passed == want["passed"]
        assert step.models_used == want["used"]
        assert step.models_skipped == report.n_models - want["used"]
        assert len(step.nested) == len(want["nested"])
        for got, inner in zip(step.nested, want["nested"]):
            assert_matches_reference(got, inner, valid)
        if valid:
            assert step.max_deviation <= 1e-9 and want["dev"] <= 1e-9
    if valid and ref["final"] is not None:
        assert report.final_deviation <= 1e-9 and ref["final"] <= 1e-9


def _check(d, swig, cpts, valid=True):
    report = _verify_models(d, swig, cpts, 0)
    assert_matches_reference(report, reference_verify(d, swig, cpts), valid)
    return report


def test_bundled_derivations_match_the_reference(bundled_derivations):
    for name, swig, d in bundled_derivations:
        assert _check(d, swig, seeded_cpts(swig, 10)).passed, name


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sequential_frontdoor_matches_the_reference(n):
    swig = to_swig(figure2(n))
    d = identify(swig, dose_estimand(swig, ("Y",)), "sequential_frontdoor")
    assert _check(d, swig, seeded_cpts(swig, 5, seed=n)).passed


@pytest.mark.parametrize("strategy", ["sequential_frontdoor", "mediator_intervention"])
def test_skipped_models_match_the_reference(strategy, fig2_n2):
    # Model 3 conditions on an event of probability zero in some steps; the
    # local audit must skip it exactly where a whole expression does.
    d = identify(fig2_n2, dose_estimand(fig2_n2, ("Y",)), strategy)
    report = _check(d, fig2_n2, _cpts_with_a_deterministic_row(fig2_n2))
    skipped = [s.models_skipped for s in report.steps] + [report.n_models - report.final_models]
    assert report.passed and max(skipped) == 1


def test_skips_that_end_match_the_reference(fig2_n2):
    # The chain read backwards, from the final formula to the estimand:
    # model 3 is skipped by the expressions up to the first step, and a step
    # skips it when either its input or its output does.
    d = identify(fig2_n2, dose_estimand(fig2_n2, ("Y",)), "sequential_frontdoor")
    back = tuple(
        DerivationStep(s.rule, s.output, s.input, s.justification) for s in reversed(d.steps)
    )
    reverse = Derivation(d.final, back, d.estimand, NOT_IDENTIFIED)
    report = _check(reverse, fig2_n2, _cpts_with_a_deterministic_row(fig2_n2))
    assert [s.models_skipped for s in report.steps][-2:] == [1, 0]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_corrupted_steps_fail_as_in_the_reference(k, fig1, fig1_estimand):
    d = identify(fig1, fig1_estimand, "backdoor:L")
    report = _check(corrupt_step(d, fig1, k), fig1, seeded_cpts(fig1, 10), valid=False)
    assert not report.passed and not report.steps[k].passed


def test_a_refusal_with_no_steps_matches_the_reference():
    # The reference compares nothing here and so reads as a pass; verify
    # refuses the derivation instead, as a check of nothing shows nothing.
    swig = to_swig(ablated_figure1())
    d = identify(swig, dose_estimand(swig, ("Y1",)), "top_down")
    assert not d.identified and not d.steps
    cpts = seeded_cpts(swig, 3)
    ref = reference_verify(d, swig, cpts)
    assert ref["steps"] == [] and ref["final"] is None
    with pytest.raises(SwigIdentError, match="nothing to verify"):
        _verify_models(d, swig, cpts, 0)
