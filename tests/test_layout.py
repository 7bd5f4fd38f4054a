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


# src names its functions by string in two lookup tables only: getattr's
# name argument, and the values of cli._SAMPLED_CHECKS (handed to getattr)
LOOKUP_TABLES = {"_SAMPLED_CHECKS"}


def _looked_up(node: ast.AST) -> list:
    """The string constants of node that src uses as names: getattr's second
    argument and the values of a dict assigned to a LOOKUP_TABLES name."""
    out = []
    for n in ast.walk(node):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "getattr" and len(n.args) >= 2):
            out.append(n.args[1])
        elif (isinstance(n, ast.Assign) and isinstance(n.value, ast.Dict)
              and any(isinstance(t, ast.Name) and t.id in LOOKUP_TABLES for t in n.targets)):
            out += n.value.values
    return out


def _referenced(node: ast.AST, strings: bool) -> set:
    """Identifiers node refers to: names, attributes, imported names, and
    strings that spell an identifier: every such string if strings
    (perfbench looks functions up by name), else only the strings of src's
    lookup tables (_looked_up)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    consts = ast.walk(node) if strings else _looked_up(node)
    out.update(n.value for n in consts if isinstance(n, ast.Constant)
               and isinstance(n.value, str) and n.value.isidentifier())
    return out


def _unused_names(keep: dict, src=None, perfbench=None) -> dict:
    """name -> "module:line" of every src definition that no used code refers
    to.  perfbench and the non-definition statements of src are used; a
    definition becomes used once a used unit refers to its name or keep
    lists it, and then its own references count.  src and perfbench are
    lists of (module name, parsed module), by default those of the repo."""
    if src is None:
        src = [(path.stem, ast.parse(path.read_text())) for path in SRC]
    if perfbench is None:
        perfbench = [(path.stem, ast.parse(path.read_text())) for path in PERFBENCH]
    refs = set()
    pending = {}
    for _, tree in perfbench:
        refs |= _referenced(tree, strings=True)
    for stem, tree in src:
        defined = {id(node) for _, node in _definitions(tree)}
        for node in tree.body:
            if id(node) not in defined:
                refs |= _referenced(node, strings=False)
        for name, node in _definitions(tree):
            if not (name.startswith("__") and name.endswith("__")):
                pending[name, stem, node.lineno] = node
    changed = True
    while changed:
        changed = False
        for key in [k for k in pending if k[0] in refs or k[0] in keep]:
            refs |= _referenced(pending.pop(key), strings=False)
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


def test_a_name_used_only_through_an_unrelated_string_is_reported():
    # negative control: the string "helper" names no lookup, so helper is
    # unused; the same string as getattr's name or as a value of a lookup
    # table makes it used
    unrelated = ast.parse('def helper():\n    pass\n\n\nLABEL = "helper"\n')
    assert "helper" in _unused_names({}, src=[("fake", unrelated)], perfbench=[])
    for lookup in ('getattr(fake, "helper")()',
                   '_SAMPLED_CHECKS = {"x": "helper"}\ngetattr(fake, _SAMPLED_CHECKS["x"])()'):
        used = ast.parse('def helper():\n    pass\n\n\n' + lookup + "\n")
        assert "helper" not in _unused_names({}, src=[("fake", used)], perfbench=[]), lookup
    # perfbench's strings count as they are: layers.py names functions
    named = ast.parse('SPANS = [("rmx.fake", None, "helper", "span")]\n')
    assert "helper" not in _unused_names({}, src=[("fake", unrelated)], perfbench=[("layers", named)])
