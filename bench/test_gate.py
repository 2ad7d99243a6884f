"""Self-tests of the benchmark: the gate catches wrong answers, the tracer
reaches names bound at import, the reported metrics match BENCHMARK.json,
and times in reference seconds scale with the calibration.

    python3 -m pytest -q bench/test_gate.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from swigident import (  # noqa: E402
    Derivation,
    DerivationStep,
    Product,
    Regime,
    Term,
    engine,
    oracle,
    rules,
    term_of,
)
from swigident.expr import regimes_used  # noqa: E402

import calibrate  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class SmallVerify(workloads.VerifyMany):
    MODELS = 5
    DERIVATIONS = ((2, "sequential_frontdoor"),)


def _squared(derivation: Derivation, k: int) -> Derivation:
    """Replace step k's output by its square and stop there: the chain still
    holds, but both sides of step k now differ on every model with interior
    probabilities."""
    step = derivation.steps[k]
    bad = Product((step.output, step.output))
    status = "identified" if all(r.is_observational for r in regimes_used(bad)) else "not_identified"
    return Derivation(
        estimand=derivation.estimand,
        steps=(*derivation.steps[:k], DerivationStep(step.rule, step.input, bad, step.justification)),
        final=bad,
        status=status,
    )


def test_verify_gate_counts_corrupted_step_as_failed(tmp_path):
    w = SmallVerify(tmp_path, seed=3)
    w.setup()
    name, graph, path = w.jobs[0]
    good = w._request(name, graph, path, seed=11)
    assert good.check(good.run()).ok

    derivation = Derivation.from_json(json.loads(path.read_text()))
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(_squared(derivation, len(derivation.steps) // 2).to_json()))
    bad = w._request(name, graph, corrupted, seed=11)
    outcome = bad.check(bad.run())
    assert not outcome.ok
    assert "verify exited with 2" in outcome.reason


@pytest.fixture(scope="module")
def identify_workload(tmp_path_factory):
    w = workloads.IdentifySearch(tmp_path_factory.mktemp("identify"), seed=5)
    w.setup()
    w.prepare()
    return w


def _case_index(graph: str, strategy: str, hidden=()) -> int:
    for i, case in enumerate(workloads.IDENTIFY_CASES):
        if (case.graph, case.strategy, case.hidden) == (graph, strategy, hidden):
            return i
    raise LookupError((graph, strategy, hidden))


def _forge(w, i: int, derivation: Derivation) -> None:
    """Overwrite case i's answer file with the given derivation."""
    assert derivation.estimand == w.estimands[i]
    (w.dir / f"identify-{i}.json").write_text(json.dumps(derivation.to_json()))


def _forge_naive(w, i: int) -> None:
    """Answer case i with a well-formed `identified` derivation whose one
    step turns the estimand into q0(Y | D=d): conditioning in place of
    intervening."""
    case = workloads.IDENTIFY_CASES[i]
    swig, estimand = w.swigs[(case.graph, case.hidden)], w.estimands[i]
    conds = tuple((swig.target_of.get(n, n), ref) for n, ref in estimand.conditioners)
    naive = Term(Regime.observational(), estimand.dependents, conds)
    step = DerivationStep("ci_modify", term_of(estimand), naive)
    _forge(w, i, Derivation(estimand, (step,), naive, "identified"))


@pytest.mark.parametrize("strategy", ["top_down", "bottom_up"])
def test_identify_gate_accepts_real_answers(identify_workload, strategy):
    for graph in ("fig1", "fig1_ablated"):
        request = identify_workload._request(_case_index(graph, strategy))
        assert request.check(request.run()).ok


def test_identify_gate_counts_forged_identified_on_ablated_graph_as_failed(identify_workload):
    w = identify_workload
    i = _case_index("fig1_ablated", "top_down")
    _forge_naive(w, i)
    outcome = w._request(i).check(0)
    assert not outcome.ok
    assert "not identifiable" in outcome.reason


def test_identify_gate_counts_wrong_formula_as_failed(identify_workload):
    w = identify_workload
    i = _case_index("fig1", "backdoor:L")
    _forge_naive(w, i)
    outcome = w._request(i).check(0)
    assert not outcome.ok
    assert "deviates from the oracle" in outcome.reason


def test_identify_gate_counts_untouched_estimand_as_failed(identify_workload):
    # The estimand itself equals the oracle exactly, but it is no
    # observed-data formula.  Case: the depth-4 search that is unsolved today.
    w = identify_workload
    i = next(i for i, case in enumerate(workloads.IDENTIFY_CASES) if case.depth == 4)
    estimand = w.estimands[i]
    _forge(w, i, Derivation(estimand, (), term_of(estimand), "identified"))
    outcome = w._request(i).check(0)
    assert not outcome.ok
    assert "still uses regimes" in outcome.reason


def test_identify_gate_counts_formula_over_hidden_variable_as_failed(identify_workload):
    # The backdoor formula adjusts for L; with L hidden it matches the oracle
    # (which knows L) but cannot be computed from the observed data.
    w = identify_workload
    i = _case_index("fig1", "top_down", hidden=("L",))
    backdoor = engine.identify(
        w.swigs[("fig1", ())], w.estimands[_case_index("fig1", "backdoor:L")], "backdoor:L"
    )
    _forge(w, i, backdoor)
    outcome = w._request(i).check(0)
    assert not outcome.ok
    assert "unobserved variables ['L']" in outcome.reason


def test_estimate_gate_counts_shuffled_outcome_as_failed(tmp_path):
    w = workloads.SimulateEstimate(tmp_path, seed=4)
    w.setup()
    w.prepare()
    request = w.requests(0)[0]
    assert request.check(request.run()).ok
    with open(w.dir / "data.csv", encoding="utf-8", newline="") as fh:
        dataset = oracle.Dataset.read_csv(fh)
    # Shuffling Y cuts it loose from the doses and mediators.
    data = dataset.data.copy()
    y = dataset.columns.index("Y")
    data[:, y] = np.random.default_rng(0).permutation(data[:, y])
    estimate = oracle.plugin_estimate(w.swig, w.formula, dataclasses.replace(dataset, data=data))
    outcome = gate.check_estimate(0, estimate, w.truth, w.TOL, w.ROWS)
    assert not outcome.ok
    assert "deviates from the truth" in outcome.reason


def test_identify_gate_counts_d_separated_blocking_query_as_failed(identify_workload):
    w = identify_workload
    i = _case_index("fig1_ablated", "top_down")
    request = w._request(i)
    assert request.run() == 2
    path = w.dir / f"identify-{i}.json"
    obj = json.loads(path.read_text())
    assert obj["status"] == "not_identified"
    # With its copy edge cut, Do1 has no parents, and its one path to L
    # meets the collider Y1: true under regime 1, so it blocks nothing.
    obj["blocking"] = {"regime": [1], "x": ["L"], "y": ["Do1"], "z": []}
    path.write_text(json.dumps(obj))
    outcome = request.check(2)
    assert not outcome.ok
    assert "is d-separated" in outcome.reason


def test_tracer_replaces_names_bound_at_import():
    original_rule, original_dsep = engine.rule_ci_modify, rules.d_separated
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert engine.rule_ci_modify is not original_rule
        assert engine.rule_ci_modify.__wrapped__ is original_rule
        assert rules.d_separated.__wrapped__ is original_dsep
    finally:
        uninstall()
    assert engine.rule_ci_modify is original_rule
    assert rules.d_separated is original_dsep


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_reported_metrics_match_benchmark_json(capsys, trace):
    spec = _benchmark_json()
    section = spec["per_layer"] if trace else spec["end_to_end"]
    assert run.main(
        ["--workload", "simulate-estimate", "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    ) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [m["name"] for m in section] == list(result["metrics"])
    if trace:
        assert result["metrics"]["trace.counts_repeat"]["value"] == 1.0
        assert result["metrics"]["oracle.sample.rows"]["value"] == workloads.SimulateEstimate.ROWS


def test_reference_seconds_divide_by_calibration(capsys, monkeypatch):
    # A host at half the reference speed: each unit takes twice its reference time.
    monkeypatch.setattr(calibrate, "measure", lambda units: 2 * calibrate.UNIT_REF_S)
    assert run.main(
        ["--workload", "simulate-estimate", "--seed", "2", "--seconds", "0", "--trace", "0"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    wall, ref = report["metrics"], result["metrics"]
    assert ref["throughput_per_ref_s"]["value"] == pytest.approx(2 * wall["estimate.rows_per_s"]["value"])
    assert ref["setup_s"]["value"] == pytest.approx(wall["setup_s.wall"]["value"] / 2)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(workloads.WORKLOADS)
