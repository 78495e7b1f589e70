"""The private names one module of the package imports from another.

The round engine lives in ``policies``; the other modules reach into it,
and it into ``posterior``, through the few private names listed here and no
others.  Every module may import the one count rule, ``core._count``.
"""

import ast
from pathlib import Path

import spreadbandits

SRC = Path(spreadbandits.__file__).parent

# (importing module, imported module) -> the private names it imports
ALLOWED = {
    ("policies", "posterior"): {"_kernel_uniforms", "_radial_t_d2",
                                "_radial_t_fill", "_rho_counts"},
    ("verify", "policies"): {"_draw", "_fold_arm", "_fold_powers"},
}


def private_imports() -> dict:
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = {a.name for a in node.names
                         if a.name.startswith("_") and a.name != "_count"}
                if names:
                    found.setdefault((path.stem, node.module), set()).update(
                        names)
    return found


def test_private_imports_between_modules():
    assert private_imports() == ALLOWED
