"""Every public name of the package has a caller in it, or a reason not to.

A name is public when a module lists it in `__all__`; it is referenced
when some module of src/rmrec loads it as a name or reads it as an
attribute.  Imports, `__all__` strings, docstrings and the definition
itself are not references.  Dunder names such as `__version__` are module
metadata, not API, and are left out.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src/rmrec"

# the public names that nothing in the package refers to, each with its reason
UNREFERENCED = {
    "md_biorthogonal": "top-level API: a thin view over phi's first-order decision of one block",
    "codeword_to_info": "top-level API: a thin view over extract_info_batch for one codeword",
    "apply_channel": "top-level API: one trial's channel, as the Monte Carlo harness draws it",
    "path_statistics": "top-level API: the genie Monte Carlo report",
    "stream_uniforms": "benchmarks/tracer.py wraps it; it stays until the tracer times "
                       "the layers from inside the package",
    "biorthogonal_codeword": "benchmarks/tracer.py wraps it; it stays until the tracer times "
                             "the layers from inside the package",
    "phi_weakest_prefix": "an analysis prefix with virtual averaging steps, not a tree path; "
                          "tests/golden/analysis.json pins it",
    "phi_node_prefix": "an analysis prefix with virtual averaging steps, not a tree path; "
                       "tests/golden/analysis.json pins it",
}


def _exported_and_referenced() -> tuple[set[str], set[str]]:
    exported, referenced = set(), set()
    for module in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                exported.update(element.value for element in node.value.elts)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return exported, referenced


def test_every_public_name_has_a_caller_or_a_reason():
    exported, referenced = _exported_and_referenced()
    assert {"decode_psi", "threshold_report", "plotkin_tree"} <= exported
    unreferenced = {name for name in exported - referenced
                    if not (name.startswith("__") and name.endswith("__"))}
    assert unreferenced == set(UNREFERENCED)
