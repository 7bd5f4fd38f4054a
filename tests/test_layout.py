# tests/test_layout.py

"""src/rmx holds only what rmx runs.  A top-level name of src/rmx/*.py must
be used somewhere in src/ or perfbench/ outside its own definition, directly
or through another used name; code that only the tests call belongs in
tests/ (tests/oracles.py for oracles).  The few names kept without a caller
are listed with their reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "rmx").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# name -> why it stays in src/ with no caller there
KEEP = {
    "automorphy": "planned: the general elliptic engine (ROADMAP.md) builds on it",
    "apply_gauge": "paper content: gauge equivalence of geometric r-matrices",
    "stolin_gauge": "paper content: the sl2 automorphism taking Stolin's solution to difference form",
    "apply_sl2_automorphism": "paper content: applies stolin_gauge to a tensor leg",
    "elliptic_closed_form": "paper content: the elliptic engine's closed form",
    "nodal21_multiplicative": "paper content: the nodal (2,1) engine's closed form",
    "semistable20_multiplicative": "paper content: the semistable (2,0) engine's closed form",
}


def _definitions(tree: ast.Module):
    """(name, node) of every top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _referenced(node: ast.AST) -> set:
    """Identifiers node refers to: names, attributes, imported names, and
    strings that spell an identifier (the CLI and perfbench look functions
    up by name)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def _unused_names(keep: dict) -> dict:
    """name -> "module:line" of every src definition that no used code refers
    to.  perfbench and the non-definition statements of src are used; a
    definition becomes used once a used unit refers to its name or keep
    lists it, and then its own references count."""
    refs = set()
    pending = {}
    for path in PERFBENCH:
        refs |= _referenced(ast.parse(path.read_text()))
    for path in SRC:
        tree = ast.parse(path.read_text())
        defined = {id(node) for _, node in _definitions(tree)}
        for node in tree.body:
            if id(node) not in defined:
                refs |= _referenced(node)
        for name, node in _definitions(tree):
            if not (name.startswith("__") and name.endswith("__")):
                pending[name, path.stem, node.lineno] = node
    changed = True
    while changed:
        changed = False
        for key in [k for k in pending if k[0] in refs or k[0] in keep]:
            refs |= _referenced(pending.pop(key))
            changed = True
    return {name: f"{module}:{line}" for name, module, line in pending}


def test_every_src_name_is_used_or_kept():
    unused = _unused_names(KEEP)
    assert not unused, ("only tests use these; move them to tests/ or delete them: "
                        + ", ".join(f"{n} ({at})" for n, at in sorted(unused.items())))


def test_every_kept_name_has_no_caller():
    # a kept name that src/ or perfbench/ came to use no longer needs its entry
    unused = _unused_names({})
    assert set(KEEP) <= set(unused), sorted(set(KEEP) - set(unused))
