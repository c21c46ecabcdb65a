"""The package is what its callers use.

A public top-level function or class of ``src/bdie`` that no code of the
package or of its demos names (a ``Name`` or an ``Attribute``; strings and
docstrings do not count) has to be on UNCALLED with its reason.  A new
function with no caller fails here until it gains one or a reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "bdie").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Public names no package or demo code calls, each kept for the reason given.
UNCALLED = {
    # The subjects of acceptance criteria (tests/test_acceptance.py).
    "greens.representation_C": "criterion 8, the representation splitting",
    "greens.single_layer_injectivity": "criterion 9, the single layer's injectivity",
    "laplace.double_layer": "criteria 2 and 4, the jump suite and the unit reduction",
    "parametrix.op_W": "criterion 4, the unit-coefficient reduction of W",
    # The one public entry to R rows at arbitrary points; the tests compare
    # the assembled R blocks against it.
    "parametrix.op_R_matrix": "R rows at arbitrary points",
    # Test oracles: the tests compare the package against them.
    "parametrix.kernel_P": "closed-form parametrix kernel",
    "parametrix.kernel_R": "closed-form remainder kernel (also criterion 4)",
    "geometry.orientation_check": "solid-angle flux of a mesh (also criterion 2)",
    "greens.finite_difference_check": "central differences of an analytic field",
    # Readers of the package's own formats, for users of its files.
    "geometry.read_off": "reads a surface mesh in OFF format",
    "reports.read_json_report": "reads back a JSON report the CLI wrote",
}


def _public_definitions():
    names = set()
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names.add(f"{path.stem}.{node.name}")
    return names


def _referenced_names():
    used = set()
    for path in PACKAGE + DEMOS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_function_has_a_caller_or_a_reason():
    used = _referenced_names()
    uncalled = {name for name in _public_definitions() if name.split(".")[1] not in used}
    assert uncalled == set(UNCALLED)
