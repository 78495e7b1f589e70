"""The names one module of the package imports from another.

The round engine lives in ``policies``; the other modules reach into it,
and it into ``posterior``, through the few private names listed here and no
others.  Every module may import the one count rule, ``core._count``.  And
no module imports a name it never uses.
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


# (module, imported names it never uses): runner keeps these as its own
# attributes only because perfbench's install() wraps them there; ROADMAP
# item 1's probe in the loop removes this exception
UNUSED = {
    "runner": {"gain_estimate", "observe", "policy_step", "regret_step",
               "sample_outcome"},
}


def unused_imports() -> dict:
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(a.asname or a.name.split(".")[0]
                                for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["__all__"]):
                # a re-export is a use
                used.update(ast.literal_eval(node.value))
        if imported - used:
            found[path.stem] = imported - used
    return found


def test_no_unused_imports():
    assert unused_imports() == UNUSED
