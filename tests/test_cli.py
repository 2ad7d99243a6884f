"""End-to-end runs of the command line, exercising exit codes and files."""

import contextlib
import copy
import csv
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swigident import Derivation, save_model, random_model, figure1, figure2, to_swig
from swigident import engine, oracle
from swigident.cli import build_parser, main
from swigident.oracle import _plan, model_to_json

from conftest import corrupt_step, mutated_text


@pytest.fixture()
def fig1_path(tmp_path):
    path = tmp_path / "fig1.swig"
    assert main(["fixture", "fig1", "--out", str(path)]) == 0
    return str(path)


def test_fixture_prints_graph(capsys):
    assert main(["fixture", "fig1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph fig1 {")
    assert "target D1 order=1;" in out

    assert main(["fixture", "nonesuch"]) == 1
    assert "error:" in capsys.readouterr().err


def test_identify_prints_trace_and_formula(fig1_path, capsys):
    code = main(
        ["identify", fig1_path, "q[1](Y1 | do D1=d1)", "--strategy", "backdoor:L"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "status: identified" in out
    assert out.rstrip().endswith("sum{l} q0(Y1 | L=l, D1=d1) * q0(L=l)")


def test_identify_verify_round_trip(fig1_path, tmp_path, capsys):
    deriv_path = tmp_path / "derivation.json"
    code = main(
        [
            "identify",
            fig1_path,
            "q[1](Y1 | do D1=d1)",
            "--json",
            "--out",
            str(deriv_path),
        ]
    )
    assert code == 0

    blob = deriv_path.read_text()
    payload = json.loads(blob)
    derivation = Derivation.from_json(payload)
    assert derivation.identified
    assert blob == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    assert main(["verify", fig1_path, str(deriv_path), "--models", "5"]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out

    assert main(["verify", fig1_path, str(deriv_path), "--models", "5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert len(report["steps"]) == len(payload["steps"])


def test_verify_flags_corrupted_derivation(fig1, fig1_path, tmp_path, capsys):
    deriv_path = tmp_path / "derivation.json"
    main(["identify", fig1_path, "q[1](Y1 | do D1=d1)", "--json", "--out", str(deriv_path)])
    derivation = Derivation.from_json(json.loads(deriv_path.read_text()))
    bad = corrupt_step(derivation, fig1, len(derivation.steps) - 1)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad.to_json()))

    assert main(["verify", fig1_path, str(bad_path), "--models", "5"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_identify_not_identified_exits_2(tmp_path, capsys):
    path = tmp_path / "ablated.swig"
    main(["fixture", "fig1_ablated", "--out", str(path)])
    code = main(["identify", str(path), "q[1](Y1 | do D1=d1)"])
    out = capsys.readouterr().out
    assert code == 2
    assert "status: not_identified" in out
    assert "blocking:" in out


def test_identify_unobserved_flag_switches_formula(fig1_path, capsys):
    code = main(["identify", fig1_path, "q[1](Y1 | do D1=d1)", "--unobserved", "L"])
    out = capsys.readouterr().out
    assert code == 0
    final = out.rstrip().splitlines()[-1]
    assert "L" not in final  # front-door style formula avoids the hidden variable

    assert main(["identify", fig1_path, "q[1](Y1 | do D1=d1)", "--unobserved", "Zed"]) == 1
    assert "not in graph" in capsys.readouterr().err


def test_dsep_answers_both_ways(fig1_path, capsys):
    assert main(["dsep", fig1_path, "q[1]: Y1 _||_ Do1 | M1, D1"]) == 0
    assert capsys.readouterr().out == "true\n"

    assert main(["dsep", fig1_path, "q[1]: Y1 _||_ Do1"]) == 0
    assert capsys.readouterr().out == "false\n"

    assert main(["dsep", fig1_path, "q[1]: Y1 _||_ Do1 | M1, D1", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["d_separated"] is True
    assert blob["query"]["regime"] == [1]


def test_simulate_couples_interventions_observationally(fig1_path, tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["simulate", fig1_path, "--n", "200", "--seed", "3", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 200
    assert set(rows[0]) == {"L", "D1", "Do1", "M1", "Y1"}
    assert all(r["D1"] == r["Do1"] for r in rows)

    again = tmp_path / "again.csv"
    main(["simulate", fig1_path, "--n", "200", "--seed", "3", "--out", str(again)])
    assert again.read_text() == out.read_text()

    dosed = tmp_path / "dosed.csv"
    main(
        ["simulate", fig1_path, "--n", "200", "--seed", "3", "--regime", "1", "--out", str(dosed)]
    )
    with open(dosed, newline="") as fh:
        rows1 = list(csv.DictReader(fh))
    assert any(r["D1"] != r["Do1"] for r in rows1)


def test_simulate_model_file(fig1, fig1_path, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    save_model(random_model(fig1, seed=5), str(model_path))
    out = tmp_path / "rows.csv"
    assert main(
        ["simulate", fig1_path, "--model", str(model_path), "--n", "20", "--out", str(out)]
    ) == 0

    other = tmp_path / "other.json"
    save_model(random_model(to_swig(figure2(2)), seed=5), str(other))
    assert main(["simulate", fig1_path, "--model", str(other), "--n", "20"]) == 1
    assert "does not match" in capsys.readouterr().err


def test_dot_regimes(fig1_path, capsys):
    assert main(["dot", fig1_path]) == 0
    assert '"D1" -> "Do1";' in capsys.readouterr().out
    assert main(["dot", fig1_path, "--regime", "1"]) == 0
    assert '"D1" -> "Do1";' not in capsys.readouterr().out
    assert main(["dot", fig1_path, "--regime", "4"]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_1(fig1_path, tmp_path, capsys):
    assert main(["identify", str(tmp_path / "missing.swig"), "q[1](Y1 | do D1=d1)"]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["identify", fig1_path, "q[9](Y1 | do D1=d1)"]) == 1
    assert "exceeds" in capsys.readouterr().err

    assert main(["identify", fig1_path, "q[1](Y1 | do D1=d1)", "--strategy", "magic"]) == 1
    assert "unknown strategy" in capsys.readouterr().err

    assert main(["identify", fig1_path, "q[1](Y1 | do D1=d1)", "--strategy", "top_down:L"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: strategy 'top_down' takes no variables\n"


def test_mediator_intervention_refuses_a_dose_that_bypasses_the_mediators(
    fig1_path, tmp_path, capsys
):
    # mediator L on fig1 (Do1 -> M1 -> Y1 misses it), and the default
    # mediator M1 on fig1 with L hidden and an edge D1 -> Y1
    direct = tmp_path / "fig1_direct.swig"
    direct.write_text(open(fig1_path).read().replace("  edge M1 -> Y1;", "  edge M1 -> Y1;\n  edge D1 -> Y1;"))
    for argv in (
        [fig1_path, "--strategy", "mediator_intervention:L"],
        [str(direct), "--strategy", "mediator_intervention", "--unobserved", "L"],
    ):
        assert main(["identify", argv[0], "q[1](Y1 | do D1=d1)", *argv[1:]]) == 2
        out = capsys.readouterr().out
        assert "status: not_identified" in out and "blocking: q1: Y1 _||_ Do1 | D1" in out


@pytest.mark.parametrize(
    "fixture, query, argv",
    [
        ("fig2_n2", "q[2](L, M2 | do D1=d1, do D2=d2)", ["--strategy", "mediator_intervention"]),
        ("fig1", "q[1](L | do D1=d1)", ["--strategy", "sequential_backdoor", "--unobserved", "L"]),
    ],
)
def test_a_recipe_whose_formula_names_a_hidden_variable_refuses(
    fixture, query, argv, tmp_path, capsys
):
    # Both used to exit 1 with "recipe finished but ['L'] are unobserved".
    path = str(tmp_path / f"{fixture}.swig")
    assert main(["fixture", fixture, "--out", path]) == 0
    assert main(["identify", path, query, *argv]) == 2
    out = capsys.readouterr().out
    assert "status: not_identified" in out
    for line in out.splitlines():
        if line.startswith("blocking: "):
            hidden = argv[argv.index("--unobserved"):] if "--unobserved" in argv else []
            assert main(["dsep", path, line.removeprefix("blocking: "), *hidden]) == 0
            assert capsys.readouterr().out == "false\n"


GOLDEN = Path(__file__).resolve().parent / "golden"


def _backdoor_with_status(status) -> str:
    """The back-door derivation of q[1](Y1 | do D1=d1) on fig1 with its
    status replaced; once such a file skipped the final check and passed."""
    payload = json.loads((GOLDEN / "backdoor_fig1.json").read_text())
    return json.dumps({**payload, "status": status})


def _backdoor_with_consistency(key: str, value) -> str:
    """The back-door derivation of q[1](Y1 | do D1=d1) on fig1 with one
    field of its consistency step's justification replaced; once such a
    file loaded and passed verify."""
    payload = json.loads((GOLDEN / "backdoor_fig1.json").read_text())
    [step] = [s for s in payload["steps"] if s["rule"] == "consistency"]
    step["justification"][key] = value
    return json.dumps(payload)


# Field values that are not strings, by a name for the test id.
NOT_STRINGS = {"int": 7, "null": None, "float": 1.5, "list": ["Y1"], "dict": {"kind": "ci"}}

MALFORMED_DERIVATIONS = {
    "step_without_ast": '{"steps": [{"rule": "x"}]}',
    "not_json": "not json",
    "bad_dependent": (
        '{"steps": [], "estimand": {"regime": [1], "dependents": [5], "conditioners": []}}'
    ),
    "list": "[]",
    "old_format": (
        '{"estimand": {"regime": [1], "dependents": [["Y1", null]], "conditioners": []},'
        ' "status": "not_identified", "blocking": null, "final": "q1(Y1)", "steps": []}'
    ),
    "bad_output_text": (
        '{"estimand": "q1(Y1 | Do1=d1)", "status": "not_identified", "blocking": null,'
        ' "final": "q0(Y1 | Do1=d1)",'
        ' "steps": [{"rule": "ci_modify", "output": "q0(Y1 | Do1=d1", "justification": null}]}'
    ),
    "unchanged_step": (
        '{"estimand": "q1(Y1 | Do1=d1)", "status": "not_identified", "blocking": null,'
        ' "final": "q1(Y1 | Do1=d1)",'
        ' "steps": [{"rule": "ci_modify", "output": "q1(Y1 | Do1=d1)", "justification": null}]}'
    ),
    "product_estimand": (
        '{"estimand": "q0(Y1) * q0(L)", "status": "identified", "blocking": null,'
        ' "final": "q0(Y1) * q0(L)", "steps": []}'
    ),
    "huge_regime_index": (
        '{"estimand": "q1000000(Y1 | Do1=d1)", "status": "not_identified",'
        ' "blocking": null, "final": "q1000000(Y1 | Do1=d1)", "steps": []}'
    ),
    "status_misspelt": _backdoor_with_status("identifed"),
    "status_number": _backdoor_with_status(7),
    "status_null": _backdoor_with_status(None),
    "status_list": _backdoor_with_status(["identified"]),
    **{
        f"consistency_{key}_{name}": _backdoor_with_consistency(key, value)
        for key in ("target", "intervention", "value")
        for name, value in NOT_STRINGS.items()
    },
}
# The field an error line must name, where the file gets that far.
MALFORMED_FIELDS = {
    "old_format": "estimand: expected expression text, found dict",
    "bad_output_text": "step 1 output: expected ')', found 'end of input' at line 1, column 15",
    "unchanged_step": "step 'ci_modify' does not change the expression",
    "product_estimand": "estimand: 'q0(Y1) * q0(L)' is not a single term",
    "huge_regime_index": "estimand: regime index 1000000 exceeds the limit of 10000",
    "status_misspelt": "status: expected 'identified' or 'not_identified', found 'identifed'",
    "status_number": "status: expected 'identified' or 'not_identified', found 7",
    "status_null": "status: expected 'identified' or 'not_identified', found None",
    "status_list": "status: expected 'identified' or 'not_identified', found ['identified']",
    **{
        f"consistency_{key}_{name}": (
            f"step 4 justification: {key}: expected a string, found {type(value).__name__}"
        )
        for key in ("target", "intervention", "value")
        for name, value in NOT_STRINGS.items()
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DERIVATIONS))
def test_verify_malformed_derivation_exits_1(name, fig1_path, tmp_path, capsys):
    path = tmp_path / "derivation.json"
    path.write_text(MALFORMED_DERIVATIONS[name])
    assert main(["verify", fig1_path, str(path), "--models", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed derivation:")
    assert "Traceback" not in err
    assert MALFORMED_FIELDS.get(name, "") in err and len(err.splitlines()) == 1
    assert len(err) < 200, err[:200]


@pytest.mark.parametrize("rule", [7, 1.5, True, None, ["ci_modify"], {"name": "ci_modify"}])
def test_verify_refuses_a_step_rule_that_is_not_a_string(rule, fig1_path, tmp_path, capsys):
    # A number once reached VerifyReport.summary and raised ValueError
    # there; a list, dict or null raised TypeError.
    derivation = _backdoor_derivation(fig1_path, tmp_path)
    with open(derivation) as fh:
        payload = json.load(fh)
    payload["steps"][1]["rule"] = rule
    with open(derivation, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert main(["verify", fig1_path, derivation, "--models", "2"]) == 1
    out, err = capsys.readouterr()
    kind = type(rule).__name__ if rule is not None else "NoneType"
    assert out == ""
    assert err == f"error: malformed derivation: step 2 rule: expected a rule name, found {kind}\n"


@pytest.mark.parametrize(
    "change, found",
    [
        (lambda step: step.update(justification=None), "expected a composition, found null"),
        (lambda step: step.pop("justification"), "expected a composition, found null"),
        (
            lambda step: step.update(justification={"kind": "redundancy", "pairs": []}),
            "expected a composition, found redundancy",
        ),
        (
            lambda step: step["justification"].update(mediator_targets=[["M1"], "M2"]),
            "mediator_targets: expected a list of names",
        ),
    ],
)
def test_verify_refuses_a_composition_step_without_a_composition(
    change, found, tmp_path, capsys
):
    # The mediator_intervention derivation of q[2](Y | do D1=d1, do D2=d2)
    # on fig2 n=2 with step 1 changed.  Each change reached verify and
    # raised there: AttributeError for a step with no composition, TypeError
    # (unhashable type) for a nested list.
    payload = json.loads((GOLDEN / "compose_fig2_n2.json").read_text())
    change(payload["steps"][0])
    path = tmp_path / "composed.json"
    path.write_text(json.dumps(payload))
    graph = str(GOLDEN / "fixture_fig2_n2.swig")
    assert main(["verify", graph, str(path), "--models", "2"]) == 1
    _one_error_line(capsys, f"malformed derivation: step 1 justification: {found}")


NAMES = "expected a list of names"
INTEGER = "expected an integer, found"


def _field(step, *keys):
    """The path of a field of a step's justification in the back-door golden."""
    return ("backdoor_fig1", "steps", step, "justification", *keys)


# A JSON value of each type.
JSON_VALUES = (7, 1.5, True, None, "Y1", ["Y1"], {"kind": "ci"})


def _fields_of_another_type():
    """Each justification field of each step of the back-door and the
    composition goldens, set to each JSON value of another type than the
    stored one, with the field the error must name."""
    for golden in ("backdoor_fig1", "compose_fig2_n2"):
        payload = json.loads((GOLDEN / f"{golden}.json").read_text())
        for k, step in enumerate(payload["steps"]):
            for key, stored in step["justification"].items():
                for value in JSON_VALUES:
                    if key != "kind" and type(value) is not type(stored):
                        path = (golden, "steps", k, "justification", key)
                        yield path, value, f"step {k + 1} justification: {key}: "


@pytest.mark.parametrize(
    "path, value, found",
    [
        (_field(0, "introduced"), ["Ll"], f"step 1 justification: introduced: {NAMES}"),
        (_field(1, "split"), ["Y1", "L"], f"step 2 justification: split: {NAMES}"),
        (_field(2, "query", "x"), "Y1", f"step 3 justification: query: x: {NAMES}"),
        (_field(2, "query", "regime"), [True], f"query: regime: {INTEGER} bool"),
        (_field(2, "query", "regime"), [1.0], f"query: regime: {INTEGER} float"),
        (_field(3, "t"), 1.9, f"step 4 justification: t: {INTEGER} float"),
        (_field(3, "t"), True, f"step 4 justification: t: {INTEGER} bool"),
        (_field(4, "pairs"), ["D1"], f"step 5 justification: pairs: {NAMES}"),
        (_field(5, "t"), 0.0, f"step 6 justification: t: {INTEGER} float"),
        (_field(5, "checks", 0, "y"), "Do1", f"checks: y: {NAMES}"),
        (
            ("backdoor_fig1", "blocking"),
            {"regime": [1], "x": "L", "y": ["Do1"], "z": []},
            f"blocking: x: {NAMES}",
        ),
        (_field(4, "pairs"), [["D1", "Do1", "L"]], "step 5 justification: pairs: expected a pair"),
        (_field(0, "introduced"), [["L"]], "step 1 justification: introduced: expected a pair"),
        *_fields_of_another_type(),
    ],
)
def test_verify_reads_each_justification_field_with_its_type(path, value, found, tmp_path, capsys):
    # Each was read: a string as the list of its characters (split
    # ["Y1", "L"] as "chain rule over Y, 1 ; L"), a float truncated (t 1.9
    # as 1), a bool as 0 or 1.  A field that holds a JSON value of another
    # type than its own, a nested derivation's included, or a pair of one or
    # three names, is refused by name.
    golden, *parents, last = path
    payload = json.loads((GOLDEN / f"{golden}.json").read_text())
    functools.reduce(lambda blob, key: blob[key], parents, payload)[last] = value
    mutant = tmp_path / "mutant.json"
    mutant.write_text(json.dumps(payload))
    graph = {"backdoor_fig1": "fixture_fig1.swig", "compose_fig2_n2": "fixture_fig2_n2.swig"}
    assert main(["verify", str(GOLDEN / graph[golden]), str(mutant), "--models", "2"]) == 1
    _one_error_line(capsys, "error: malformed derivation: ", found)


def _deleted_fields():
    """Each key of each step's justification in the back-door golden, its
    kind included, with the field the error must name."""
    payload = json.loads((GOLDEN / "backdoor_fig1.json").read_text())
    for k, step in enumerate(payload["steps"]):
        for key in step["justification"]:
            yield _field(k, key), f"step {k + 1} justification: {key}: missing"


@pytest.mark.parametrize(
    "path, line",
    [
        *_deleted_fields(),
        *(
            (_field(2, "query", key), f"step 3 justification: query: {key}: missing")
            for key in ("regime", "x", "y", "z")
        ),
        (_field(5, "checks", 0, "z"), "step 6 justification: checks: z: missing"),
        *((("backdoor_fig1", key), f"{key}: missing") for key in ("estimand", "final", "status")),
    ],
)
def test_verify_names_a_deleted_derivation_field(path, line, tmp_path, capsys):
    # Each printed an unlocated KeyError line (KeyError: 'query'), and a
    # deleted kind "ExprError: unknown justification kind None".
    golden, *parents, last = path
    payload = json.loads((GOLDEN / f"{golden}.json").read_text())
    del functools.reduce(lambda blob, key: blob[key], parents, payload)[last]
    mutant = tmp_path / "mutant.json"
    mutant.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(GOLDEN / "fixture_fig1.swig"), str(mutant), "--models", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: malformed derivation: {line}\n"


@pytest.mark.parametrize("kind", [7, "no_such_kind", ["ci"]])
def test_verify_names_an_unknown_justification_kind(kind, tmp_path, capsys):
    payload = json.loads((GOLDEN / "backdoor_fig1.json").read_text())
    payload["steps"][2]["justification"]["kind"] = kind
    mutant = tmp_path / "mutant.json"
    mutant.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(GOLDEN / "fixture_fig1.swig"), str(mutant), "--models", "2"]) == 1
    out, err = capsys.readouterr()
    line = f"step 3 justification: kind: expected a justification kind, found {kind!r}"
    assert out == "" and err == f"error: malformed derivation: {line}\n"


def test_verify_refuses_a_refusal_with_no_steps(tmp_path, capsys):
    # A not_identified file with no steps has nothing to check; it once
    # printed "verdict: pass" and exited 0.
    graph, path = str(GOLDEN / "fixture_fig1_ablated.swig"), str(tmp_path / "refusal.json")
    argv = ["identify", graph, "q[1](Y1 | do D1=d1)", "--json", "--out", path]
    assert main(argv) == 2
    assert json.loads(Path(path).read_text())["steps"] == []
    capsys.readouterr()
    assert main(["verify", graph, path, "--models", "3"]) == 1
    _one_error_line(capsys, "nothing to verify")


# One-field mutations of derivation files: a back-door derivation, the
# mediator composition (two nested derivations) and the sequential front
# door (three drop_later steps), each with the graph it verifies on.
FUZZED = {
    name: (str(GOLDEN / graph), json.loads((GOLDEN / name).read_text()))
    for name, graph in [
        ("backdoor_fig1.json", "fixture_fig1.swig"),
        ("compose_fig2_n2.json", "fixture_fig2_n2.swig"),
        ("seqfd_fig2_n2.json", "fixture_fig2_n2.swig"),
    ]
}


def _fields(blob, path=()):
    """The path of every key of every dict and every item of every list in
    a JSON document, nested ones included."""
    if isinstance(blob, dict):
        items = blob.items()
    else:
        items = enumerate(blob) if isinstance(blob, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


FUZZ_FIELDS = [(name, path) for name, (_, blob) in FUZZED.items() for path in _fields(blob)]
DELETE = object()
_WORDS = st.sampled_from([
    "", "M1", "L", "d1", "q0(Y1)", "ci", "composition", "drop_later", "ci_modify",
    "mediator_composition", "identified", "not_identified", "q[1]: Y1 _||_ Do1",
])
_NUMBERS = st.integers() | st.floats()  # json reads NaN and Infinity too
_SCALARS = st.none() | _NUMBERS | _WORDS
_KEYS = st.sampled_from(["kind", "query", "t", "regime", "x"]) | _WORDS
MUTATIONS = st.one_of(
    st.just(DELETE),
    st.none(),
    _NUMBERS,
    st.lists(_SCALARS | st.lists(_WORDS, max_size=2), max_size=3),
    st.dictionaries(_KEYS, _SCALARS, max_size=3),
    _WORDS | st.text(max_size=8),
)


@given(field=st.sampled_from(FUZZ_FIELDS), value=MUTATIONS)
@example(field=("compose_fig2_n2.json", ("steps", 0, "justification")), value=None)
@example(field=("compose_fig2_n2.json", ("steps", 0, "justification")), value=DELETE)
@example(
    field=("compose_fig2_n2.json", ("steps", 0, "justification", "mediator_targets")),
    value=[["M1"], "M2"],
)
@example(field=("seqfd_fig2_n2.json", ("steps", 4, "justification", "t")), value=math.inf)
@settings(max_examples=400, deadline=None)
def test_verify_answers_every_mutated_derivation_file_without_a_traceback(field, value):
    # A field deleted or replaced by null, a number, a list, a dict or a
    # string: verify answers (exit 0 or 2) or refuses with exit 1, no
    # stdout and one error line; no exception escapes.
    name, path = field
    graph, original = FUZZED[name]
    code = _run_mutant(original, path, value, ["verify", graph, "{}", "--models", "2"])
    assert code in (0, 1, 2)


def _run_mutant(original, path, value, argv):
    """main(argv) with "{}" naming a file that holds original with the field
    at path deleted (value DELETE) or replaced by value; its exit code,
    once an exit code 1 is checked to print nothing to stdout and one error
    line."""
    payload = copy.deepcopy(original)
    *parents, last = path
    owner = functools.reduce(lambda blob, key: blob[key], parents, payload)
    if value is DELETE:
        del owner[last]
    else:
        owner[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        mutant = Path(tmp) / "mutant.json"
        mutant.write_text(json.dumps(payload))
        return _answer([a.format(mutant) for a in argv])


def _answer(argv):
    """main(argv)'s exit code, once an exit code 1 is checked to print
    nothing to stdout and one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 1:
        assert out.getvalue() == "", out.getvalue()
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    return code


# Character mutations of the text readers' inputs: a graph document, an
# estimand and a CI query, each read through the command that takes it.
FIG2_N2 = str(GOLDEN / "fixture_fig2_n2.swig")
SEQFD = ["--strategy", "sequential_frontdoor"]


@given(text=mutated_text((GOLDEN / "fixture_fig2_n2.swig").read_text()))
@settings(max_examples=150, deadline=None)
def test_identify_answers_every_mutated_graph_document_without_a_traceback(text):
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "mutant.swig"
        graph.write_text(text, encoding="utf-8")
        argv = ["identify", str(graph), "q[2](Y | do D1=d1, do D2=d2)", *SEQFD]
        assert _answer(argv) in (0, 1, 2)


@given(
    text=mutated_text("q[2](Y | do D1=d1, do D2=d2)")
    | mutated_text("q[1](Y, M2=m | do D1=d1, M1=0, L)")
)
@settings(max_examples=150, deadline=None)
def test_identify_answers_every_mutated_estimand_without_a_traceback(text):
    assert _answer(["identify", FIG2_N2, text, *SEQFD]) in (0, 1, 2)


@given(
    text=mutated_text("q[1]: Y _||_ Do1 | M1, D1")
    | mutated_text("q{1,2}: Y, M2 _||_ Do2 | M1, D2, L")
)
@settings(max_examples=200, deadline=None)
def test_dsep_answers_every_mutated_query_without_a_traceback(text):
    assert _answer(["dsep", FIG2_N2, text]) in (0, 1)


@pytest.mark.parametrize(
    "change, message",
    [
        (
            lambda p: p["steps"][0].update(output="sum{l} q1(Y1, L=5 | Do1=d1)"),
            "error: level 5 out of range for 'L'",
        ),
        (
            lambda p: p["steps"][0].update(output="sum{l, z} q1(Y1, L=l | Do1=d1)"),
            "error: binder 'z' never used in the sum body",
        ),
        (
            lambda p: p.update(estimand="q5000(Y1 | Do1=d1)"),
            "error: regime index 5000 exceeds the 1 declared targets",
        ),
    ],
    ids=["pin_out_of_range", "unused_binder", "regime_past_the_targets"],
)
def test_verify_refuses_a_derivation_the_graph_cannot_evaluate(
    change, message, fig1_path, tmp_path, capsys
):
    derivation = _backdoor_derivation(fig1_path, tmp_path)
    payload = json.loads(Path(derivation).read_text())
    change(payload)
    Path(derivation).write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", fig1_path, derivation, "--models", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n", err[:200]


@pytest.mark.parametrize(
    "steps, line",
    [
        ("", "steps: expected a list, found str"),
        ({}, "steps: expected a list, found dict"),
        (7, "steps: expected a list, found int"),
        (["x"], "step 1: expected an object, found str"),
        ([[1]], "step 1: expected an object, found list"),
        ([{}], "step 1 rule: expected a rule name, found NoneType"),
    ],
)
def test_verify_reads_the_steps_list_and_each_step_with_their_types(steps, line, tmp_path, capsys):
    # An empty string or object was read as no steps (then refused as "final
    # expression is not the last step output"); the rest printed unlocated
    # TypeError and KeyError lines.
    payload = json.loads((GOLDEN / "backdoor_fig1.json").read_text())
    payload["steps"] = steps
    mutant = tmp_path / "mutant.json"
    mutant.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(GOLDEN / "fixture_fig1.swig"), str(mutant), "--models", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: malformed derivation: {line}\n"


def test_verify_refuses_a_derivation_file_that_holds_no_object(tmp_path, capsys):
    mutant = tmp_path / "mutant.json"
    mutant.write_text("[]")
    assert main(["verify", str(GOLDEN / "fixture_fig1.swig"), str(mutant)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: malformed derivation: file: expected an object, found list\n"


def test_verify_rejects_a_final_that_is_not_the_last_output(fig1_path, tmp_path, capsys):
    derivation = _backdoor_derivation(fig1_path, tmp_path)
    with open(derivation) as fh:
        payload = json.load(fh)
    payload["final"] = "sum{l} q0(Y1 | L=l, D1=d1) * q0(L=0)"
    with open(derivation, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert main(["verify", fig1_path, derivation, "--models", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: final expression is not the last step output\n"


@pytest.mark.parametrize("text", ['{"graph": {}}', "not json", "[]"])
def test_simulate_malformed_model_exits_1(text, fig1_path, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["simulate", fig1_path, "--model", str(path), "--n", "5"]) == 1
    assert capsys.readouterr().err.startswith("error: malformed model:")


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda c: c["L"].update(table=[1.5, -0.5]), "CPT for 'L' has negative entries"),
        (lambda c: c.pop("M1"), "missing CPT for 'M1'"),
        (
            lambda c: c.update(Do1={"parents": [], "table": [0.5, 0.5]}),
            "'Do1' is an intervention node and takes no CPT",
        ),
        (
            lambda c: c["M1"].update(parents=["L"]),
            "CPT parents for 'M1' do not match the graph",
        ),
    ],
    ids=["negative_entry", "missing_cpt", "cpt_for_an_intervention_node", "other_parents"],
)
def test_simulate_refuses_a_model_whose_cpts_do_not_fit_the_graph(
    change, message, fig1, fig1_path, tmp_path, capsys
):
    path = tmp_path / "model.json"
    save_model(random_model(fig1, seed=5), str(path))
    obj = json.loads(path.read_text())
    change(obj["cpts"])
    path.write_text(json.dumps(obj))
    assert main(["simulate", fig1_path, "--model", str(path), "--n", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


MODEL = model_to_json(random_model(to_swig(figure1()), seed=5))
MODEL_GRAPH = str(GOLDEN / "fixture_fig1.swig")


@given(field=st.sampled_from(list(_fields(MODEL))), value=MUTATIONS)
@example(field=("cpts", "L", "table", 0), value=math.nan)
@example(field=("cpts", "Y1", "parents"), value="LM1")
@settings(max_examples=300, deadline=None)
def test_simulate_answers_every_mutated_model_file_without_a_traceback(field, value):
    # A field deleted or replaced by null, a number, a list, a dict or a
    # string: simulate draws its rows (exit 0) or refuses with exit 1, no
    # stdout and one error line; no exception escapes.
    argv = ["simulate", MODEL_GRAPH, "--model", "{}", "--n", "5"]
    assert _run_mutant(MODEL, field, value, argv) in (0, 1)


def test_simulate_refuses_a_model_file_with_a_graph_dict(fig1, fig1_path, tmp_path, capsys):
    # Model files once held the graph as a dict; the graph document is now
    # its one serial form.
    path = tmp_path / "model.json"
    save_model(random_model(fig1, seed=5), str(path))
    obj = json.loads(path.read_text())
    base = fig1.base
    obj["graph"] = {
        "name": base.name,
        "variables": [
            {"name": v.name, "time": v.time, "role": v.role.value, "observed": v.observed,
             "levels": v.cardinality}
            for v in base.variables
        ],
        "edges": sorted([a, b] for a, b in base.edges),
        "targets": list(base.targets),
    }
    path.write_text(json.dumps(obj))
    assert main(["simulate", fig1_path, "--model", str(path), "--n", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: malformed model: graph: expected graph document text, found dict\n"


def test_identify_stats_flag_writes_one_json_line(fig1_path, capsys):
    argv = ["identify", str(fig1_path), "q[1](Y1 | do D1=d1)", "--strategy", "top_down"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--stats"]) == 0
    out, err = capsys.readouterr()
    assert out == plain.out and plain.err == ""
    (line,) = err.splitlines()
    assert set(json.loads(line)) >= {"expanded", "dsep_hits", "refusals", "seconds"}
    assert main(argv[:-1] + ["backdoor:L", "--stats"]) == 0
    assert capsys.readouterr().err == ""


def _backdoor_derivation(fig1_path, tmp_path):
    path = tmp_path / "derivation.json"
    argv = ["identify", fig1_path, "q[1](Y1 | do D1=d1)", "--strategy", "backdoor:L"]
    assert main(argv + ["--json", "--out", str(path)]) == 0
    return str(path)


PAST_THE_TARGETS = "error: regime index 1000000 exceeds the 1 declared targets"
DIGITS = "9" * 5000  # more digits than int() converts
NEGATIVE_SEED = "a seed must be a non-negative integer, got -1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "{graph}", "--n", "-5"], "cannot draw a negative number of rows"),
        (["verify", "{graph}", "{derivation}", "--models", "0"], "at least one model"),
        (["verify", "{graph}", "{derivation}", "--models", "-3"], "at least one model"),
        (["simulate", "{graph}", "--regime", "1000000", "--n", "1"], PAST_THE_TARGETS),
        (["dot", "{graph}", "--regime", "1000000"], PAST_THE_TARGETS),
        (["dsep", "{graph}", "q1000000: Y1 _||_ Do1"], PAST_THE_TARGETS),
        (["dsep", "{graph}", "q{{1,1000000}}: Y1 _||_ Do1"], PAST_THE_TARGETS),
        (["dsep", "{graph}", f"q{DIGITS}: Y1 _||_ Do1"], "5000 digits is too long"),
        (["identify", "{graph}", f"q[{DIGITS}](Y1)"], "5000 digits is too long"),
        (["verify", "{graph}", "{derivation}", "--seed", "-1"], NEGATIVE_SEED),
        (["simulate", "{graph}", "--seed", "-1"], NEGATIVE_SEED),
        (["simulate", "{graph}", "--model", "{model}", "--seed", "-1"], NEGATIVE_SEED),
        (["simulate", "{graph}", "--n", str(10**20)], f"cannot hold {10**20} rows"),
    ],
    ids=[
        "simulate_negative_rows",
        "verify_zero_models",
        "verify_negative_models",
        "simulate_regime_past_the_targets",
        "dot_regime_past_the_targets",
        "dsep_prefix_regime_past_the_targets",
        "dsep_regime_set_past_the_targets",
        "dsep_regime_of_5000_digits",
        "identify_regime_of_5000_digits",
        "verify_negative_seed",
        "simulate_negative_seed",
        "simulate_model_file_negative_seed",
        "simulate_rows_past_numpy_dimensions",
    ],
)
def test_bad_numbers_exit_1(argv, message, fig1_path, tmp_path, capsys):
    # A regime index is checked before its regime is built, and the error
    # names the largest index alone: an index of 10^6 once built a million
    # ints and listed each one that did not fit.
    derivation = _backdoor_derivation(fig1_path, tmp_path)
    model = tmp_path / "model.json"
    save_model(random_model(to_swig(figure1()), seed=5), model)
    capsys.readouterr()
    argv = [a.format(graph=fig1_path, derivation=derivation, model=model) for a in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
    assert message in err and len(err) < 200, err[:200]


def test_verify_refuses_more_models_than_its_limit_before_drawing_any(
    fig1_path, tmp_path, capsys, monkeypatch
):
    # Every model's CPTs are drawn before the first batch, so --models 10**20
    # grew memory until the process was killed.  Drawing a CPT, by the
    # stacked draw or one model at a time, fails the test here, so a tree
    # without the limit fails it at once.  The CLI prints verify's
    # SwigIdentError.
    derivation = _backdoor_derivation(fig1_path, tmp_path)
    capsys.readouterr()

    def drawn(*args):
        raise AssertionError("a CPT was drawn")

    monkeypatch.setattr(engine, "random_cpt_batch", drawn)
    monkeypatch.setattr(oracle, "random_cpt_batch", drawn)
    monkeypatch.setattr(oracle, "random_base_cpts", drawn)
    for n in (engine.MODEL_LIMIT + 1, 10**20):
        assert main(["verify", fig1_path, derivation, "--models", str(n)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: verify takes at most {engine.MODEL_LIMIT} models, got {n}\n"


def _verify_on_fig1_with_three_levels_of_l(tmp_path, capsys, derivation: dict) -> str:
    """verify's stderr for the derivation on fig1 with L at 3 levels, D1 at
    2; it must exit 1 with no stdout."""
    graph = tmp_path / "fig1_l3.swig"
    main(["fixture", "fig1", "--out", str(graph)])
    graph.write_text(graph.read_text().replace("role=covariate;", "role=covariate levels=3;"))
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(derivation))
    capsys.readouterr()
    assert main(["verify", str(graph), str(path), "--models", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    return err


def test_verify_of_a_term_tying_symbols_of_different_cardinality_exits_1(tmp_path, capsys):
    # L has 3 levels and D1 2, so q0(Y1 | L=a, D1=a) cannot be evaluated.
    tied = "q0(Y1 | L=a, D1=a)"
    derivation = {
        "blocking": None, "estimand": tied, "final": tied, "status": "identified", "steps": [],
    }
    err = _verify_on_fig1_with_three_levels_of_l(tmp_path, capsys, derivation)
    assert err == "error: symbol 'a' used for variables of different cardinality\n"


def test_verify_of_a_product_tying_symbols_of_different_cardinality_exits_1(tmp_path, capsys):
    # Each factor alone is sound; the product ties L's 3 levels to D1's 2.
    tied = "q0(L=a) * q0(D1=a)"
    derivation = {
        "blocking": None, "estimand": "q0(L, D1)", "final": tied, "status": "not_identified",
        "steps": [{"rule": "product", "output": tied, "justification": None}],
    }
    err = _verify_on_fig1_with_three_levels_of_l(tmp_path, capsys, derivation)
    assert err == "error: axis 'a' has inconsistent sizes 3 and 2\n"


def test_verify_stats_flag_writes_one_json_line(fig1_path, tmp_path, capsys):
    argv = ["verify", fig1_path, _backdoor_derivation(fig1_path, tmp_path), "--models", "4"]
    capsys.readouterr()
    assert main(argv) == 0
    plain = capsys.readouterr()
    # path_searches counts the contraction shapes the process had not met:
    # every one on a first run, none on a repeat
    _plan.cache_clear()
    assert main(argv + ["--stats"]) == 0
    out, err = capsys.readouterr()
    assert out == plain.out and plain.err == ""
    (line,) = err.splitlines()
    stats = json.loads(line)
    assert set(stats) == {
        "steps", "estimand_seconds", "conditionals", "largest_table", "seconds",
        "draw_seconds", "merges_computed", "path_searches", "peak_live_bytes",
        "conditionals_derived",
    }
    assert isinstance(stats["draw_seconds"], float) and stats["draw_seconds"] > 0
    assert stats["conditionals"] > 0 and stats["largest_table"] > 0
    assert 0 <= stats["conditionals_derived"] < stats["conditionals"]
    assert stats["merges_computed"] > 0
    assert stats["path_searches"] == _plan.cache_info().misses > 0
    assert main(argv + ["--stats"]) == 0
    again = json.loads(capsys.readouterr().err)
    assert again["path_searches"] == 0
    assert again["merges_computed"] == stats["merges_computed"]
    assert stats["peak_live_bytes"] > 0
    assert len(stats["steps"]) == out.count("\nstep ") + out.startswith("step ")
    for step in stats["steps"]:
        assert set(step) == {"index", "rule", "seconds", "skipped"}
        assert step["seconds"] >= 0 and step["skipped"] == 0


def test_verify_refuses_a_product_past_the_einsum_subscripts(tmp_path, capsys):
    # 53 one-level variables; the step's product of their 53 terms needs a
    # table over more labels than one einsum takes.
    graph = tmp_path / "wide.swig"
    graph.write_text(
        "graph wide {\n" + "".join(f"  var V{i} @{i} levels=1;\n" for i in range(53)) + "}\n"
    )
    product = " * ".join(f"q0(V{i}=a{i})" for i in range(53))
    derivation = tmp_path / "derivation.json"
    derivation.write_text(json.dumps({
        "estimand": "q0(V0=a0)", "status": "not_identified", "blocking": None, "final": product,
        "steps": [{"rule": "ci_modify", "output": product, "justification": None}],
    }))
    assert main(["verify", str(graph), str(derivation), "--models", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: a product of 53 factors needs a table over")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def _one_error_line(capsys, *wanted):
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
    for text in wanted:
        assert text in err, err


def test_mediator_intervention_refuses_an_estimand_with_no_active_intervention(
    fig1_path, capsys
):
    # The recipe needs a dose to intervene around, as sequential_frontdoor does.
    argv = ["identify", fig1_path, "q[0](Y1)", "--strategy", "mediator_intervention"]
    assert main(argv) == 1
    _one_error_line(capsys, "estimand has no active interventions")


@pytest.mark.parametrize("query", ["q[1](Do1, L)", "q[1](Do1)"])
def test_a_search_refusal_names_a_query_dsep_reads_and_answers_false(
    fig1_path, query, capsys
):
    # An intervention node among the dependents stops drop_later without a
    # d-separation to name, so the line names another query met.
    assert main(["identify", fig1_path, query, "--depth", "4"]) == 2
    out = capsys.readouterr().out
    (line,) = [l for l in out.splitlines() if l.startswith("blocking: ")]
    assert main(["dsep", fig1_path, line.removeprefix("blocking: ")]) == 0
    assert capsys.readouterr().out == "false\n"


def test_verify_refuses_an_identified_formula_over_a_hidden_variable(
    fig1_path, tmp_path, capsys
):
    # The back-door formula sums over L, which --unobserved hides.
    bd = str(tmp_path / "bd.json")
    argv = ["identify", fig1_path, "q[1](Y1 | do D1=d1)", "--strategy", "backdoor:L"]
    assert main([*argv, "--json", "--out", bd]) == 0
    assert main(["verify", fig1_path, bd, "--models", "5"]) == 0
    capsys.readouterr()
    assert main(["verify", fig1_path, bd, "--unobserved", "L"]) == 1
    _one_error_line(capsys, "unobserved variables ['L']")


def test_one_parser_serves_every_call_and_no_hidden_list_leaks(fig1_path, tmp_path, capsys):
    # main reuses one parser for the process, so --unobserved of one call
    # must not reach the next, either way round.
    assert build_parser() is build_parser()
    bd = _backdoor_derivation(fig1_path, tmp_path)
    capsys.readouterr()
    for hidden in (True, False, True, False):
        flags = ["--unobserved", "L"] if hidden else []
        assert main(["verify", fig1_path, bd, "--models", "2", *flags]) == (1 if hidden else 0)
        out, err = capsys.readouterr()
        assert ("unobserved variables ['L']" in err) == hidden
        assert build_parser().parse_args(["dot", fig1_path]).unobserved == []


def test_verify_refuses_a_nested_identified_formula_over_a_hidden_variable(tmp_path, capsys):
    # A composition whose nested mediator law is replaced by q0(L), which
    # chains and replays, but names the hidden L.
    path = str(tmp_path / "fig2_n2.swig")
    assert main(["fixture", "fig2_n2", "--out", path]) == 0
    out = tmp_path / "composed.json"
    argv = ["identify", path, "q[2](Y | do D1=d1, do D2=d2)", "--strategy", "mediator_intervention"]
    assert main([*argv, "--json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["steps"][0]["justification"]["mediator_law"] = {
        "estimand": "q0(L)", "status": "identified", "blocking": None, "final": "q0(L)", "steps": [],
    }
    out.write_text(json.dumps(payload))
    assert main(["verify", path, str(out), "--models", "5"]) == 1
    _one_error_line(capsys, "unobserved variables ['L']")


@pytest.mark.parametrize(
    "fixture, query, strategy",
    [
        ("fig1", "q[1](Y1 | do D1=d1)", "backdoor:Y1"),
        ("fig1", "q[1](Y1 | do D1=d1)", "backdoor:D1"),
        ("fig1", "q[1](Y1 | do D1=d1)", "backdoor:L,L"),
        ("fig2_n2", "q[2](Y | do D1=d1, do D2=d2)", "mediator_intervention:M1,M1"),
    ],
)
def test_a_named_variable_that_cannot_be_adjusted_for_is_a_usage_error(
    fixture, query, strategy, tmp_path, capsys
):
    # a dependent, the dose's target, a repeat, and a repeated mediator
    path = str(tmp_path / f"{fixture}.swig")
    assert main(["fixture", fixture, "--out", path]) == 0
    assert main(["identify", path, query, "--strategy", strategy]) == 1
    _one_error_line(capsys, "cannot be adjusted for")


@pytest.mark.parametrize(
    "query, strategy, message",
    [
        ("q[1](Y1 | Do1)", "backdoor", "'Do1' must be pinned to a value or symbol"),
        ("p[1](Y1)", "top_down", "expected regime marker 'q[n]' at line 1, column 1"),
    ],
    ids=["unpinned_intervention_node", "no_regime_marker"],
)
def test_identify_refuses_an_estimand_it_cannot_take(query, strategy, message, fig1_path, capsys):
    assert main(["identify", fig1_path, query, "--strategy", strategy]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_sequential_backdoor_of_a_hidden_dependent_refuses_with_no_query(fig1_path, capsys):
    # q0(L) has no active intervention, so the doses' query would have an
    # empty side and hold: the refusal names no query.
    argv = ["identify", fig1_path, "q[0](L)", "--strategy", "sequential_backdoor"]
    assert main([*argv, "--unobserved", "L"]) == 2
    out = capsys.readouterr().out
    assert "status: not_identified" in out and "blocking:" not in out


GRAPH = "graph g {{\n  var X @0{levels};\n  var Y @1 role=target;\n  edge X -> Y;\n{targets}}}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "graph g {\n  node X;\n}\n",
            "expected var, edge, or target, found 'node' at line 2, column 3",
        ),
        (
            GRAPH.format(levels=" levels=0", targets="  target Y order=1;\n"),
            "invalid graph: cardinality: 'X' must have >= 1 level",
        ),
        (
            GRAPH.format(levels="", targets="  target Y order=1;\n  target Y order=2;\n"),
            "invalid graph: target: target 'Y' listed twice",
        ),
    ],
    ids=["node_statement", "no_levels", "target_listed_twice"],
)
def test_identify_refuses_a_malformed_graph_file(text, message, tmp_path, capsys):
    path = tmp_path / "g.swig"
    path.write_text(text)
    assert main(["identify", str(path), "q[1](X | do Y=y)"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_a_graph_file_that_is_not_utf8_is_refused(tmp_path, capsys):
    # Once a UnicodeDecodeError traceback: the bytes were read outside the
    # malformed-document guard.
    path = tmp_path / "g.swig"
    path.write_bytes(b"graph g {\xff\n}\n")
    assert main(["dot", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: malformed graph file: UnicodeDecodeError")
    assert len(err.splitlines()) == 1
