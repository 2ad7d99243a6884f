"""The derivation module's import boundary.

The module holds the derivation contract, so it must not lean on the search,
the verifier or the numeric oracle.  Importing swigident.derivation runs the
package's __init__, which loads every module, so the boundary is read from
the source: the imports of each module the kernel reaches, followed
transitively, function-level and TYPE_CHECKING imports included.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swigident"
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
