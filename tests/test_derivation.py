"""The derivation module's import boundary and its justification codec.

The module holds the derivation contract, so it must not lean on the search,
the verifier or the numeric oracle.  Importing swigident.derivation runs the
package's __init__, which loads every module, so the boundary is read from
the source: the imports of each module the kernel reaches, followed
transitively, function-level and TYPE_CHECKING imports included.
"""

import ast
import dataclasses
import json
from pathlib import Path
from typing import get_type_hints

from hypothesis import given, settings
from hypothesis import strategies as st

from swigident import CiQuery, Derivation, Regime
from swigident.derivation import _CODECS, _KINDS, _justification_from_json, _justification_to_json

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swigident"
GOLDEN = Path(__file__).resolve().parent / "golden"
FORBIDDEN = {"swigident.engine", "swigident.oracle", "swigident.cli", "numpy"}


def _imports(module: str) -> set[str]:
    """What the source of a swigident module imports: a package module as
    swigident.<name>, anything else by its top-level name."""
    tree = ast.parse((PACKAGE / f"{module.removeprefix('swigident.')}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"swigident.{node.module}"]
        elif isinstance(node, ast.ImportFrom):  # from . import name
            names = [f"swigident.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            out.add(".".join(parts[:2]) if parts[0] == "swigident" else parts[0])
    return out


def _reached(module: str) -> set[str]:
    """module and every module its imports reach, through the package."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            if name.startswith("swigident."):
                todo.extend(_imports(name))
    return seen


def test_the_derivation_kernel_reaches_neither_engine_oracle_cli_nor_numpy():
    reached = _reached("swigident.derivation")
    assert not reached & FORBIDDEN, sorted(reached & FORBIDDEN)
    assert {"swigident.rules", "swigident.dsl", "swigident.model"} <= reached


def test_the_import_walk_finds_what_the_engine_reaches():
    # The walk's own check: the engine imports the oracle, which imports
    # numpy, and the kernel.
    reached = _reached("swigident.engine")
    assert {"swigident.oracle", "numpy", "swigident.derivation"} <= reached


def _declared_types():
    """(class, field name, declared type) of every justification field."""
    for cls in _KINDS:
        hints = get_type_hints(cls)
        for f in dataclasses.fields(cls):
            yield cls, f.name, hints[f.name]


def test_every_justification_field_has_a_declared_type_the_codec_knows():
    unknown = [(cls.__name__, name, t) for cls, name, t in _declared_types() if t not in _CODECS]
    assert not unknown


# A value of each type a justification field is declared with.  The nested
# derivations are the composition golden's.
NAMES = st.text(max_size=3)
QUERIES = st.builds(
    lambda active, sides: CiQuery(
        Regime(frozenset(active)), *({n for n, s in sides if s == k} for k in "xyz")
    ),
    st.sets(st.integers(1, 10_000), max_size=3),
    st.lists(st.tuples(NAMES, st.sampled_from("xyz")), max_size=4, unique_by=lambda p: p[0]),
)
_COMPOSITION = Derivation.from_json(
    json.loads((GOLDEN / "compose_fig2_n2.json").read_text())
).steps[0].justification
VALUES = {
    int: st.integers(),
    str: NAMES,
    tuple[str, ...]: st.lists(NAMES, max_size=3).map(tuple),
    tuple[tuple[str, str], ...]: st.lists(st.tuples(NAMES, NAMES), max_size=3).map(tuple),
    tuple[tuple[str, ...], ...]: st.lists(
        st.lists(NAMES, max_size=3).map(tuple), max_size=3
    ).map(tuple),
    CiQuery: QUERIES,
    tuple[CiQuery, ...]: st.lists(QUERIES, max_size=3).map(tuple),
    Derivation: st.sampled_from([_COMPOSITION.mediator_law, _COMPOSITION.outcome]),
}


def test_the_property_draws_every_type_the_codec_knows():
    assert set(VALUES) == set(_CODECS)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_justification_reads_back_as_it_was_written(data):
    # Each field is drawn from its declared type, empty tuples included; the
    # JSON text holds lists, and equality needs tuples read back (a tuple
    # never equals a list).
    cls = data.draw(st.sampled_from(list(_KINDS)))
    hints = get_type_hints(cls)
    justification = cls(
        **{f.name: data.draw(VALUES[hints[f.name]]) for f in dataclasses.fields(cls)}
    )
    text = json.dumps(_justification_to_json(justification))
    assert _justification_from_json(json.loads(text), "", {}) == justification
