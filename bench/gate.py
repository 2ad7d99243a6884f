"""Correctness gate for the benchmark: checks the output of one request.

Every check runs outside the timed region.  An identified answer must be a
well-formed derivation (its steps chain, and its final formula uses only the
observational regime and observed variables) whose formula equals the
estimand on seeded random models; a not_identified verdict must name a
blocking query that really fails d-separation; a verify request must pass;
a plug-in estimate must land near the oracle truth.  Justification labels
are not checked: a step whose label is forged but whose two sides agree
numerically passes this gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from swigident import (
    Derivation,
    SwigIdentError,
    d_separated,
    eval_estimand,
    eval_expr,
    free_variables,
    validate_derivation,
)

# Agreement required between an identified formula and the oracle estimand;
# the same tolerance verify uses for every step.
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    """Verdict on one request.  work counts what the request did in the
    workload's unit (queries, model steps or rows); solvable and solved feed
    solved_share."""

    ok: bool
    work: float = 0.0
    solvable: int = 0
    solved: int = 0
    reason: str = ""


def failed(reason: str) -> Outcome:
    return Outcome(False, reason=reason)


def max_dev(a, b) -> float:
    """Largest absolute difference of two LabeledTables over the union of
    their axes."""
    labels = tuple(dict.fromkeys(a.labels + b.labels))
    return float(np.max(np.abs(a.aligned(labels) - b.aligned(labels))))


def check_identify(
    exit_code: int,
    derivation_path,
    swig,
    estimand,
    identifiable: bool,
    models,
) -> Outcome:
    """Check one `swigident identify --json` answer."""
    if exit_code not in (0, 2):
        return failed(f"identify exited with {exit_code}")
    with open(derivation_path, encoding="utf-8") as fh:
        derivation = Derivation.from_json(json.load(fh))
    if derivation.estimand != estimand:
        return failed("derivation answers another estimand")
    if derivation.identified != (exit_code == 0):
        return failed(f"exit code {exit_code} disagrees with status {derivation.status}")
    if derivation.identified:
        if not identifiable:
            return failed("identified an estimand that is not identifiable")
        try:
            validate_derivation(derivation)
        except SwigIdentError as exc:
            return failed(f"malformed identified derivation: {exc}")
        hidden = free_variables(derivation.final) - set(swig.observed)
        if hidden:
            return failed(f"identified formula uses unobserved variables {sorted(hidden)}")
        for model in models:
            dev = max_dev(eval_expr(model, derivation.final), eval_estimand(model, estimand))
            if not dev <= EXACT_TOL:
                return failed(f"identified formula deviates from the oracle by {dev:.3e}")
        return Outcome(True, work=1, solvable=1, solved=1)
    if derivation.blocking is None:
        return failed("not_identified without a blocking query")
    if d_separated(swig, derivation.blocking):
        return failed(f"blocking query {derivation.blocking} is d-separated")
    return Outcome(True, work=1, solvable=int(identifiable), solved=0)


def model_steps(report: dict) -> int:
    """Models times checked expression pairs in a verify report, nested
    reports included."""
    total = report["final_models"]
    for step in report["steps"]:
        total += step["models_used"]
        total += sum(model_steps(r) for r in step.get("nested", ()))
    return total


def check_verify(exit_code: int, report_path) -> Outcome:
    """Check one `swigident verify --json` answer: exit 0 and a passing
    verdict."""
    if exit_code != 0:
        return failed(f"verify exited with {exit_code}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("passed") is not True:
        return failed("verify verdict is not pass")
    steps = model_steps(report)
    if steps < 1:
        return failed("verify checked no model")
    return Outcome(True, work=steps, solvable=1, solved=1)


def check_estimate(exit_code: int, estimate, truth, tol: float, rows: int) -> Outcome:
    """Check a simulate + plug-in estimate request against the oracle truth."""
    if exit_code != 0:
        return failed(f"simulate exited with {exit_code}")
    dev = max_dev(estimate, truth)
    if not dev <= tol:
        return failed(f"plug-in estimate deviates from the truth by {dev:.4f} (tolerance {tol})")
    return Outcome(True, work=rows, solvable=1, solved=1)
