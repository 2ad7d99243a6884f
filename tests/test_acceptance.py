"""End-to-end acceptance checks.

Each test covers one shipped guarantee at its stated tolerance and prints a
single pass line; run with ``pytest -v tests/test_acceptance.py`` to see one
line per criterion.
"""

import time

import numpy as np

from swigident import (
    CiQuery,
    Regime,
    Sym,
    brute_force_ci,
    d_separated,
    emit_graph,
    eval_estimand,
    eval_expr,
    figure2,
    identify,
    parse_expr,
    plugin_estimate,
    query,
    random_model,
    sample,
    struct_eq,
    to_swig,
    to_text,
    verify,
)
from swigident.cli import main as cli_main

from conftest import corrupt_step, dose_estimand

FIG2_SEQ_BACKDOOR = {
    1: "q0(M1 | D1=d1)",
    2: "q0(M2 | M1, D1=d1, D2=d2) * q0(M1 | D1=d1)",
    3: (
        "q0(M3 | M2, M1, D1=d1, D2=d2, D3=d3)"
        " * q0(M2 | M1, D1=d1, D2=d2) * q0(M1 | D1=d1)"
    ),
}

FIG2_SEQ_FRONTDOOR = {
    1: "sum{d1', m1} q0(Y | M1=m1, D1=d1') * q0(M1=m1 | D1=d1) * q0(D1=d1')",
    2: (
        "sum{d1', m1, d2', m2} q0(Y | M2=m2, D2=d2', M1=m1, D1=d1')"
        " * q0(M2=m2 | D2=d2, M1=m1, D1=d1) * q0(D2=d2' | M1=m1, D1=d1')"
        " * q0(M1=m1 | D1=d1) * q0(D1=d1')"
    ),
    3: (
        "sum{d1', m1, d2', m2, d3', m3}"
        " q0(Y | M3=m3, D3=d3', M2=m2, D2=d2', M1=m1, D1=d1')"
        " * q0(M3=m3 | D3=d3, M2=m2, D2=d2, M1=m1, D1=d1)"
        " * q0(D3=d3' | M2=m2, D2=d2', M1=m1, D1=d1')"
        " * q0(M2=m2 | D2=d2, M1=m1, D1=d1)"
        " * q0(D2=d2' | M1=m1, D1=d1')"
        " * q0(M1=m1 | D1=d1) * q0(D1=d1')"
    ),
}


def _dev(a, b) -> float:
    labels = tuple(dict.fromkeys(a.labels + b.labels))
    return float(np.max(np.abs(a.aligned(labels) - b.aligned(labels))))


def _oracle_dev(swig, derivation, n_models: int) -> float:
    worst = 0.0
    for i in range(n_models):
        model = random_model(swig, seed=i)
        got = eval_expr(model, derivation.final)
        want = eval_estimand(model, derivation.estimand)
        worst = max(worst, _dev(got, want))
    return worst


def _line(n: int, text: str) -> None:
    print(f"criterion {n:02d}: PASS - {text}")


def test_criterion_01_backdoor_adjustment(fig1, fig1_estimand):
    start = time.perf_counter()
    d = identify(fig1, fig1_estimand, "backdoor:L")
    assert d.identified
    expected = parse_expr("sum{l} q0(Y1 | D1=d1, L=l) * q0(L=l)")
    assert struct_eq(d.final, expected), to_text(d.final)
    worst = _oracle_dev(fig1, d, 100)
    assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _line(1, f"back-door formula, max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_frontdoor_adjustment(fig1_hidden):
    est = dose_estimand(fig1_hidden, ("Y1",))
    d = identify(fig1_hidden, est, "frontdoor:M1")
    assert d.identified
    expected = parse_expr(
        "sum{d1', m1} q0(Y1 | D1=d1', M1=m1) * q0(D1=d1') * q0(M1=m1 | D1=d1)"
    )
    assert struct_eq(d.final, expected), to_text(d.final)
    worst = _oracle_dev(fig1_hidden, d, 100)
    assert worst <= 1e-9
    _line(2, f"front-door formula, max dev {worst:.2e}")


def test_criterion_03_sequential_backdoor():
    worst = 0.0
    elapsed_n3 = None
    for n in (1, 2, 3):
        start = time.perf_counter()
        swig = to_swig(figure2(n))
        est = dose_estimand(swig, tuple(f"M{t}" for t in range(1, n + 1)))
        d = identify(swig, est, "sequential_backdoor")
        assert d.identified
        assert struct_eq(d.final, parse_expr(FIG2_SEQ_BACKDOOR[n])), to_text(d.final)
        worst = max(worst, _oracle_dev(swig, d, 50))
        if n == 3:
            elapsed_n3 = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed_n3 < 60.0
    _line(3, f"sequential product n=1..3, max dev {worst:.2e}, n=3 in {elapsed_n3:.2f}s")


def test_criterion_04_sequential_frontdoor():
    worst = 0.0
    for n in (1, 2, 3):
        swig = to_swig(figure2(n))
        est = dose_estimand(swig, ("Y",))
        d = identify(swig, est, "sequential_frontdoor")
        assert d.identified
        assert struct_eq(d.final, parse_expr(FIG2_SEQ_FRONTDOOR[n])), to_text(d.final)
        worst = max(worst, _oracle_dev(swig, d, 50))
    assert worst <= 1e-9

    swig1 = to_swig(figure2(1))
    est1 = dose_estimand(swig1, ("Y",))
    seq = identify(swig1, est1, "sequential_frontdoor")
    plain = identify(swig1, est1, "frontdoor:M1")
    assert plain.identified
    assert struct_eq(seq.final, plain.final)
    _line(4, f"three-factor product n=1..3, n=1 matches front-door, max dev {worst:.2e}")


def test_criterion_05_mediator_intervention_equivalence():
    for n in (1, 2, 3):
        swig = to_swig(figure2(n))
        est = dose_estimand(swig, ("Y",))
        composed = identify(swig, est, "mediator_intervention")
        direct = identify(swig, est, "sequential_frontdoor")
        assert composed.identified and direct.identified
        assert struct_eq(composed.final, direct.final), to_text(composed.final)
    _line(5, "composition through mediator interventions matches n=1..3")


def test_criterion_06_step_soundness_and_mutation(bundled_derivations):
    for name, swig, d in bundled_derivations:
        report = verify(d, swig, n_models=100, seed=0)
        assert report.passed, f"{name}: {report.summary()}"
    caught = 0
    for name, swig, d in bundled_derivations:
        for k in range(len(d.steps)):
            bad = corrupt_step(d, swig, k)
            report = verify(bad, swig, n_models=20, seed=0)
            assert not report.passed, f"{name} step {k} corruption went unnoticed"
            caught += 1
    _line(6, f"all bundled steps replay at 1e-9; {caught} corruptions detected")


def _random_queries(swig, rng, count: int):
    names = list(swig.names)
    n = swig.n_interventions
    out = []
    while len(out) < count:
        mask = rng.random(n) < 0.5
        regime = Regime(frozenset(t for t in range(1, n + 1) if mask[t - 1]))
        picked = list(rng.permutation(names))
        nx = int(rng.integers(1, 3))
        ny = int(rng.integers(1, 3))
        nz = int(rng.integers(0, 4))
        if nx + ny + nz > len(picked):
            continue
        x = picked[:nx]
        y = picked[nx : nx + ny]
        z = picked[nx + ny : nx + ny + nz]
        out.append(CiQuery(regime, frozenset(x), frozenset(y), frozenset(z)))
    return out


def test_criterion_07_dsep_soundness(fig1, fig1_ablated, fig2_n2, fig3_n2):
    rng = np.random.default_rng(7)
    checked = 0
    for swig in (fig1, fig1_ablated, fig2_n2, fig3_n2):
        queries = _random_queries(swig, rng, 200)
        separated = [q for q in queries if d_separated(swig, q)]
        assert separated
        models = [random_model(swig, seed=i) for i in range(50)]
        for q in separated:
            for model in models:
                assert brute_force_ci(model, q), f"{swig.base.name}: {q}"
            checked += 1

    quoted = [
        (fig1, 1, {"D1"}, {"Do1"}, set()),
        (fig1, 1, {"Y1"}, {"D1"}, {"L", "Do1"}),
        (fig1, 1, {"Y1"}, {"Do1"}, {"M1", "D1"}),
        (fig2_n2, 2, {"M2"}, {"D1", "D2"}, {"M1", "Do1", "Do2"}),
        (fig2_n2, 2, {"Y"}, {"Do1", "Do2"}, {"D1", "D2", "M1", "M2"}),
        (fig3_n2, 2, {"Y"}, {"M1", "M2"}, {"Mo1", "Mo2", "D1", "D2"}),
        (fig3_n2, 1, {"D2"}, {"M1"}, {"Mo1", "D1"}),
    ]
    for swig, s, x, y, z in quoted:
        q = CiQuery(Regime.prefix(s), frozenset(x), frozenset(y), frozenset(z))
        assert d_separated(swig, q), str(q)
        for i in range(10):
            assert brute_force_ci(random_model(swig, seed=i), q), str(q)
    _line(7, f"{checked} separated queries independent on 50 models; 7 quoted CIs hold")


def test_criterion_08_consistency_invariant(fig1, fig2_n2):
    worst = 0.0
    for i in range(100):
        m1 = random_model(fig1, seed=i)
        for v in range(2):
            a = query(m1, Regime.prefix(1), ("Y1",), {"D1": v, "Do1": v})
            b = query(m1, Regime.observational(), ("Y1",), {"D1": v, "Do1": v})
            worst = max(worst, float(np.max(np.abs(a - b))))
        m2 = random_model(fig2_n2, seed=i)
        for v in range(2):
            a = query(m2, Regime.prefix(2), ("Y", "M2"), {"D2": v, "Do2": v})
            b = query(m2, Regime.prefix(1), ("Y", "M2"), {"D2": v, "Do2": v})
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-10
    _line(8, f"q_t = q_(t-1) under equal-value conditioning, max dev {worst:.2e}")


def test_criterion_09_negative_control(fig1_ablated, tmp_path):
    est = dose_estimand(fig1_ablated, ("Y1",))
    strategies = (
        "backdoor",
        "frontdoor",
        "sequential_backdoor",
        "sequential_frontdoor",
        "mediator_intervention",
        "top_down",
        "bottom_up",
    )
    for strat in strategies:
        d = identify(fig1_ablated, est, strat)
        assert not d.identified, strat
        assert d.status == "not_identified"
        assert isinstance(d.blocking, CiQuery), strat

    path = tmp_path / "ablated.swig"
    path.write_text(emit_graph(fig1_ablated.base))
    code = cli_main(["identify", str(path), "q[1](Y1 | do D1=d1)"])
    assert code == 2
    _line(9, "all 7 strategies blocked with a CI witness; exit code 2")


def test_criterion_10_plugin_estimation(fig1, fig1_estimand):
    d = identify(fig1, fig1_estimand, "backdoor:L")
    assert d.identified
    model = random_model(fig1, seed=2026)
    data = sample(model, Regime.observational(), 200_000, seed=1)
    got = plugin_estimate(fig1, d.final, data)
    want = eval_estimand(model, fig1_estimand)
    worst = _dev(got, want)
    assert worst <= 0.02
    _line(10, f"plug-in within {worst:.4f} of oracle at 200k samples")
