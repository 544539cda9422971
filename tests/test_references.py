"""Every public class, function and method of the package has a caller.

A public top-level class or function, or a public method of a top-level
class, under src/warpcurv/ must be referenced in src/ or perfbench/
somewhere outside its own definition: as a name, an attribute, a string
that is a dotted span name such as "families.rk4_integrate_first_order",
or a string listed in `__all__`.  A bare string that merely looks like a
name (an op tag, a dictionary key) is not a reference.  Imports, comments
and prose do not count, and neither do tests: code that only tests call
belongs in tests/.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "warpcurv"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

# Public functions allowed without a caller, each with its reason.
EXCEPTIONS = {
    "solve_numeric_profile": "integrates the numeric-only families; the family "
                             "checks are to call it once they test those families",
}


def _public_defs():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield node.name, path, node.lineno, node.end_lineno
            for d in members:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not d.name.startswith("_"):
                    yield d.name, path, d.lineno, d.end_lineno


def _exported(tree):
    """The string nodes listed in the module's `__all__`."""
    return {id(elt) for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in getattr(node.value, "elts", ())}


def _references():
    refs = {}
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exported = _exported(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and (id(node) in exported or _DOTTED.fullmatch(node.value)):
                    names = node.value.split(".")
                else:
                    continue
                for name in names:
                    refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _uncalled():
    refs = _references()
    return {
        name: f"{path.relative_to(ROOT)}:{lo} {name}"
        for name, path, lo, hi in _public_defs()
        if all(p == path and lo <= line <= hi for p, line in refs.get(name, []))
    }


def test_every_public_function_is_referenced():
    unreferenced = [where for name, where in _uncalled().items() if name not in EXCEPTIONS]
    assert not unreferenced, "no caller in src/ or perfbench/: " + ", ".join(unreferenced)


def test_every_exception_is_still_needed():
    assert sorted(_uncalled().keys() & EXCEPTIONS.keys()) == sorted(EXCEPTIONS)
