"""The benchmark's four workloads.

Each workload builds its inputs from swigident.figures during set-up (graph
files through emit_graph, derivation JSON through the recipes, a model JSON
through save_model) and then sends requests through the public entry
points in this process: one client, a closed loop, no worker threads.  Calls
go through module attributes (cli.main, oracle.plugin_estimate,
Dataset.read_csv) so that the traced run sees its wrappers.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from swigident import cli, dsl, engine, figures, model, oracle

import gate


@dataclass(frozen=True)
class Request:
    """One timed call (run) and the untimed check of what it returned."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], gate.Outcome]


def fig1_query() -> str:
    return "q[1](Y1 | do D1=d1)"


def fig2_query(n: int) -> str:
    doses = ", ".join(f"do D{t}=d{t}" for t in range(1, n + 1))
    return f"q[{n}](Y | {doses})"


def request_seed(seed: int, pass_index: int, i: int) -> int:
    """Seed of request i in a pass; the same workload seed gives the same
    requests."""
    return seed * 100_000 + pass_index * 100 + i


def check_models(swig, seed: int, k: int = 3):
    """k seeded random models for checking identified formulas."""
    return [
        oracle.model_from_base_cpts(
            swig, oracle.random_base_cpts(swig.base, np.random.default_rng((seed, j)))
        )
        for j in range(k)
    ]


class Workload:
    name = ""
    prefix = ""  # metric prefix in the report: identify, verify or estimate
    unit = ""  # what Outcome.work counts
    # Calibration units timed before each request and before each pass's
    # set-ups (calibrate.py); each workload's count makes them about 8% of a
    # run.
    CAL_UNITS = 1

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed

    def setup(self) -> None:
        """Build every input file; timed as setup_s."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Reference values the checks need; untimed."""

    def requests(self, pass_index: int) -> list[Request]:
        raise NotImplementedError

    def write_graph(self, name: str, base) -> Path:
        path = self.dir / f"{name}.swig"
        path.write_text(dsl.emit_graph(base), encoding="utf-8")
        return path

    @staticmethod
    def read_swig(path: Path, hidden: tuple[str, ...] = ()):
        """Parse a graph file back, hiding the given variables the way
        `--unobserved` does."""
        base = dsl.parse_graph(path.read_text(encoding="utf-8"))
        if hidden:
            base = dataclasses.replace(
                base,
                variables=tuple(
                    dataclasses.replace(v, observed=False) if v.name in hidden else v
                    for v in base.variables
                ),
            )
        return model.to_swig(base)

    def write_derivation(self, swig, query: str, strategy: str, name: str) -> Path:
        estimand = dsl.parse_estimand(query, swig)
        derivation = engine.identify(swig, estimand, strategy)
        if not derivation.identified:
            raise RuntimeError(f"recipe {strategy} did not identify {query}")
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(derivation.to_json()), encoding="utf-8")
        return path


@dataclass(frozen=True)
class IdentifyCase:
    graph: str
    query: str
    strategy: str
    hidden: tuple[str, ...] = ()
    depth: int | None = None
    identifiable: bool = True

    @property
    def label(self) -> str:
        hidden = f" --unobserved {','.join(self.hidden)}" if self.hidden else ""
        depth = "" if self.depth is None else f" --depth {self.depth}"
        return f"identify {self.graph} {self.strategy}{hidden}{depth}"

    def argv(self, graph_path: Path, out: Path) -> list[str]:
        argv = ["identify", str(graph_path), self.query, "--strategy", self.strategy]
        for name in self.hidden:
            argv += ["--unobserved", name]
        if self.depth is not None:
            argv += ["--depth", str(self.depth)]
        return argv + ["--json", "--out", str(out)]


def _identify_cases() -> tuple[IdentifyCase, ...]:
    q1 = fig1_query()
    searched = [
        ("fig1", q1, (), True),
        ("fig1", q1, ("L",), True),
        ("fig2_n1", fig2_query(1), (), True),
        ("fig1_ablated", q1, (), False),
    ]
    cases = [
        IdentifyCase(graph, query, mode, hidden, identifiable=ident)
        for mode in ("top_down", "bottom_up")
        for graph, query, hidden, ident in searched
    ]
    # Identifiable, but the depth-4 search stops short of the answer; the
    # default depth gives no answer in minutes, so it is left out.
    cases.append(IdentifyCase("fig2_n2", fig2_query(2), "top_down", depth=4))
    cases += [
        IdentifyCase("fig1", q1, "backdoor:L"),
        IdentifyCase("fig1", q1, "frontdoor", hidden=("L",)),
        IdentifyCase("fig2_n2", fig2_query(2), "sequential_frontdoor"),
        IdentifyCase("fig2_n3", fig2_query(3), "sequential_frontdoor"),
        IdentifyCase("fig2_n2", fig2_query(2), "mediator_intervention"),
    ]
    return tuple(cases)


IDENTIFY_CASES = _identify_cases()


class IdentifySearch(Workload):
    """`swigident identify` over a fixed, heterogeneous query set: searches
    and recipes.  rules, graphs, expr, model.regime_graph and the engine's
    search do the work; the oracle does none."""

    name = "identify-search"
    prefix = "identify"
    unit = "queries"
    CAL_UNITS = 3

    GRAPHS = {
        "fig1": figures.figure1,
        "fig1_ablated": figures.ablated_figure1,
        "fig2_n1": lambda: figures.figure2(1),
        "fig2_n2": lambda: figures.figure2(2),
        "fig2_n3": lambda: figures.figure2(3),
    }

    def setup(self) -> None:
        self.paths = {name: self.write_graph(name, make()) for name, make in self.GRAPHS.items()}
        self.swigs = {}
        self.estimands = []
        for case in IDENTIFY_CASES:
            key = (case.graph, case.hidden)
            if key not in self.swigs:
                self.swigs[key] = self.read_swig(self.paths[case.graph], case.hidden)
            self.estimands.append(dsl.parse_estimand(case.query, self.swigs[key]))

    def prepare(self) -> None:
        self.models = {key: check_models(swig, self.seed) for key, swig in self.swigs.items()}

    def requests(self, pass_index: int) -> list[Request]:
        order = np.random.default_rng((self.seed, pass_index)).permutation(len(IDENTIFY_CASES))
        return [self._request(int(i)) for i in order]

    def _request(self, i: int) -> Request:
        case = IDENTIFY_CASES[i]
        out = self.dir / f"identify-{i}.json"
        key = (case.graph, case.hidden)
        argv = case.argv(self.paths[case.graph], out)
        return Request(
            label=case.label,
            run=lambda: cli.main(argv),
            check=lambda code: gate.check_identify(
                code, out, self.swigs[key], self.estimands[i], case.identifiable, self.models[key]
            ),
        )


class VerifyWorkload(Workload):
    """`swigident verify --models N` on sequential_frontdoor (and composed)
    derivations for figure2."""

    prefix = "verify"
    unit = "model_steps"
    DERIVATIONS: tuple[tuple[int, str], ...] = ()
    MODELS = 0

    def setup(self) -> None:
        self.jobs = []
        for n, strategy in self.DERIVATIONS:
            graph = self.write_graph(f"fig2_n{n}", figures.figure2(n))
            swig = self.read_swig(graph)
            name = f"{strategy}_fig2_n{n}"
            self.jobs.append((name, graph, self.write_derivation(swig, fig2_query(n), strategy, name)))

    def requests(self, pass_index: int) -> list[Request]:
        return [
            self._request(name, graph, derivation, request_seed(self.seed, pass_index, i))
            for i, (name, graph, derivation) in enumerate(self.jobs)
        ]

    def _request(self, name: str, graph: Path, derivation: Path, seed: int) -> Request:
        out = self.dir / f"verify-{name}.json"
        argv = [
            "verify", str(graph), str(derivation), "--models", str(self.MODELS),
            "--seed", str(seed), "--json", "--out", str(out),
        ]
        return Request(
            label=f"verify {name}",
            run=lambda: cli.main(argv),
            check=lambda code: gate.check_verify(code, out),
        )


class VerifyMany(VerifyWorkload):
    """Many models over small state spaces: Python cost per term in oracle
    term evaluation dominates."""

    name = "verify-many"
    CAL_UNITS = 30
    MODELS = 100
    DERIVATIONS = (
        (1, "sequential_frontdoor"),
        (2, "sequential_frontdoor"),
        (3, "sequential_frontdoor"),
        (2, "mediator_intervention"),
    )


class VerifyWide(VerifyWorkload):
    """Few models over wide tables (17 variables, 81 steps): products of
    large tables and the dense joint dominate.  Five models per request:
    a few models in a hundred are skipped on some step (ZeroProbabilityError),
    and a step with no usable model fails, so fewer models would fail a
    request now and then.  n=6 takes about a minute per request and n=7
    exceeds the oracle's state limit, so both are left out."""

    name = "verify-wide"
    CAL_UNITS = 120
    MODELS = 5
    DERIVATIONS = ((5, "sequential_frontdoor"),)


class SimulateEstimate(Workload):
    """`swigident simulate` of 200k rows under regime 0, then
    Dataset.read_csv and plugin_estimate of the identified formula: the data
    path of the oracle (sampler, CSV codec, empirical provider)."""

    name = "simulate-estimate"
    prefix = "estimate"
    unit = "rows"
    CAL_UNITS = 30
    N = 3
    ROWS = 200_000
    # The model's CPTs are flat Dirichlet draws mixed with this share of the
    # uniform law, so every entry of a binary CPT lies in [0.1, 0.9].  Unmixed,
    # a few seeds leave cells so rare that the estimate's error has a long
    # tail (seed 53: 0.126 at most over 100 draws), and no fixed tolerance
    # both passes every correct run and catches a bias of a few hundredths.
    UNIFORM_SHARE = 0.2
    # Largest allowed deviation of the plug-in estimate from the truth.  Over
    # 2,000 draws (1,000 workload seeds, two each) the deviation had median
    # 0.003 and maximum 0.013; the worst seed found (8) reached 0.019 in 200
    # draws.  Shuffling Y, or conditioning on the doses instead of
    # intervening, moves the estimate by 0.06-0.07 at the median seed.
    TOL = 0.04

    def setup(self) -> None:
        self.graph = self.write_graph(f"fig2_n{self.N}", figures.figure2(self.N))
        self.swig = self.read_swig(self.graph)
        path = self.write_derivation(
            self.swig, fig2_query(self.N), "sequential_frontdoor", "formula"
        )
        with open(path, encoding="utf-8") as fh:
            derivation = engine.Derivation.from_json(json.load(fh))
        self.formula = derivation.final
        self.estimand = derivation.estimand
        self.model_path = self.dir / "model.json"
        cpts = oracle.random_base_cpts(self.swig.base, np.random.default_rng(self.seed))
        mix = self.UNIFORM_SHARE
        cpts = {
            name: (parents, (1 - mix) * table + mix / table.shape[-1])
            for name, (parents, table) in cpts.items()
        }
        oracle.save_model(oracle.model_from_base_cpts(self.swig, cpts), self.model_path)

    def prepare(self) -> None:
        self.truth = oracle.eval_estimand(oracle.load_model(self.model_path), self.estimand)

    def requests(self, pass_index: int) -> list[Request]:
        seed = request_seed(self.seed, pass_index, 0)
        out = self.dir / "data.csv"
        argv = [
            "simulate", str(self.graph), "--model", str(self.model_path), "--n", str(self.ROWS),
            "--regime", "0", "--seed", str(seed), "--out", str(out),
        ]

        def run():
            code = cli.main(argv)
            if code != 0:
                return code, None
            with open(out, encoding="utf-8", newline="") as fh:
                dataset = oracle.Dataset.read_csv(fh)
            return code, oracle.plugin_estimate(self.swig, self.formula, dataset)

        return [
            Request(
                label="simulate+estimate fig2_n3",
                run=run,
                check=lambda raw: gate.check_estimate(raw[0], raw[1], self.truth, self.TOL, self.ROWS),
            )
        ]


WORKLOADS = {w.name: w for w in (IdentifySearch, VerifyMany, VerifyWide, SimulateEstimate)}
