"""Byte-for-byte snapshots of the command line's output.

Each case runs ``swigident`` through cli.main and compares stdout with a
file under tests/golden/.  The cases cover the identify queries of the
benchmark (every strategy, text and JSON), the sequential back-door recipe,
verify reports of two derivations, the bundled fixtures and simulate's CSV
under regime 0 and the largest regime, so a refactor that changes a
derivation, a trace line, a JSON key or a sampled row shows up here.  The
verify reports are compared byte for byte except their deviation values,
which need only stay within the tolerance.

Regenerate the files (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from swigident import emit_graph, figure2
from swigident.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

FIG1 = "q[1](Y1 | do D1=d1)"


def fig2_query(n: int, dependents: str = "Y") -> str:
    doses = ", ".join(f"do D{t}=d{t}" for t in range(1, n + 1))
    return f"q[{n}]({dependents} | {doses})"


# name -> (graph, query, strategy, extra flags, exit code)
IDENTIFY = {
    f"{mode}_{name}": (graph, query, mode, flags, code)
    for mode in ("top_down", "bottom_up")
    for name, graph, query, flags, code in (
        ("fig1", "fig1", FIG1, (), 0),
        ("fig1_hidden", "fig1", FIG1, ("--unobserved", "L"), 0),
        ("fig2_n1", "fig2_n1", fig2_query(1), (), 0),
        ("fig1_ablated", "fig1_ablated", FIG1, (), 2),
    )
}
# Identifiable, but the depth-4 search stops short; pins refusals[0].
IDENTIFY["top_down_fig2_n2_depth4"] = ("fig2_n2", fig2_query(2), "top_down", ("--depth", "4"), 2)
IDENTIFY.update(
    {
        "backdoor_fig1": ("fig1", FIG1, "backdoor:L", (), 0),
        "frontdoor_fig1_hidden": ("fig1", FIG1, "frontdoor", ("--unobserved", "L"), 0),
        "seqfd_fig2_n2": ("fig2_n2", fig2_query(2), "sequential_frontdoor", (), 0),
        "seqfd_fig2_n3": ("fig2_n3", fig2_query(3), "sequential_frontdoor", (), 0),
        "compose_fig2_n2": ("fig2_n2", fig2_query(2), "mediator_intervention", (), 0),
        "seqbd_fig2_n2": ("fig2_n2", fig2_query(2, "M1, M2"), "sequential_backdoor", (), 0),
        "seqbd_fig2_n2_outcome": ("fig2_n2", fig2_query(2), "sequential_backdoor", (), 2),
    }
)

# name -> identify case whose JSON derivation is verified
VERIFY = {"verify_seqfd_fig2_n2": "seqfd_fig2_n2", "verify_compose_fig2_n2": "compose_fig2_n2"}

FIXTURES = ("fig1", "fig1_ablated", "fig2_n2", "fig3_n2")

# name -> (graph, regime) sampled by `simulate --n 200 --seed 3`
SIMULATE = {
    f"simulate_{graph}_r{regime}": (graph, regime)
    for graph, regimes in (("fig1", (0, 1)), ("fig2_n2", (0, 2)))
    for regime in regimes
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _graph(workdir: Path, name: str) -> str:
    path = workdir / f"{name}.swig"
    if not path.exists():
        if name.startswith("fig2_n"):
            path.write_text(emit_graph(figure2(int(name[len("fig2_n"):]))), encoding="utf-8")
        else:
            assert main(["fixture", name, "--out", str(path)]) == 0
    return str(path)


def _identify_argv(workdir: Path, name: str, as_json: bool) -> tuple[list[str], int]:
    graph, query, strategy, flags, code = IDENTIFY[name]
    argv = ["identify", _graph(workdir, graph), query, "--strategy", strategy, *flags]
    return argv + (["--json"] if as_json else []), code


def render(workdir: Path, kind: str, name: str) -> tuple[int, int, str]:
    """(exit code, expected exit code, stdout) of one golden case."""
    if kind == "fixture":
        code, out = _run(["fixture", name])
        return code, 0, out
    if kind == "simulate":
        graph, regime = SIMULATE[name]
        argv = ["simulate", _graph(workdir, graph), "--n", "200", "--seed", "3"]
        code, out = _run(argv + ["--regime", str(regime)])
        return code, 0, out
    if kind == "verify":
        source = VERIFY[name]
        derivation = workdir / f"{source}.json"
        argv, _ = _identify_argv(workdir, source, True)
        assert main(argv + ["--out", str(derivation)]) == 0
        graph = _graph(workdir, IDENTIFY[source][0])
        argv = ["verify", graph, str(derivation), "--json", "--models", "5", "--seed", "0"]
        code, out = _run(argv)
        return code, 0, out
    argv, want = _identify_argv(workdir, name, kind == "json")
    code, out = _run(argv)
    return code, want, out


# golden file name -> (kind, case name)
CASES = {
    **{f"{n}.txt": ("text", n) for n in IDENTIFY},
    **{f"{n}.json": ("json", n) for n in IDENTIFY},
    **{f"{n}.json": ("verify", n) for n in VERIFY},
    **{f"fixture_{n}.swig": ("fixture", n) for n in FIXTURES},
    **{f"{n}.csv": ("simulate", n) for n in SIMULATE},
}


DEVIATION = re.compile(r'("(?:max|final)_deviation": )([^,\n]+)')
TOL = 1e-9  # verify's tolerance


def _deviations_within_tol(text: str) -> str:
    """Replace each deviation of a verify report by a check that it is at
    most TOL: its last bits are rounding noise of the random models and
    of numpy's summation order, not behaviour."""

    def check(match: re.Match) -> str:
        assert abs(float(match.group(2))) <= TOL, match.group(0)
        return match.group(1) + "<= tol"

    return DEVIATION.sub(check, text)


@pytest.mark.parametrize("filename", CASES)
def test_output_matches_golden(filename, tmp_path):
    kind = CASES[filename][0]
    code, want, out = render(tmp_path, *CASES[filename])
    with open(GOLDEN / filename, encoding="utf-8", newline="") as fh:
        golden = fh.read()
    assert code == want
    if kind == "verify":
        out, golden = _deviations_within_tol(out), _deviations_within_tol(golden)
    assert out == golden


BLOCKING = {
    f"{name}.txt": line[len("blocking: "):]
    for name in IDENTIFY
    for line in (GOLDEN / f"{name}.txt").read_text(encoding="utf-8").splitlines()
    if line.startswith("blocking: ")
}


@pytest.mark.parametrize("filename", BLOCKING)
def test_a_printed_blocking_query_reads_back_into_dsep(filename, tmp_path):
    """The blocking line of a refusal is a query dsep reads and answers false."""
    graph = _graph(tmp_path, IDENTIFY[filename[: -len(".txt")]][0])
    code, out = _run(["dsep", graph, BLOCKING[filename]])
    assert (code, out) == (0, "false\n")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for filename in CASES:
            code, want, out = render(Path(tmp), *CASES[filename])
            if code != want:
                sys.exit(f"{filename}: exit code {code}, expected {want}")
            with open(GOLDEN / filename, "w", encoding="utf-8", newline="") as fh:
                fh.write(out)
            print(f"wrote {filename}")
