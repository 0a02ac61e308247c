"""Every public name in `src/gridtrade` has a caller or is documented.

A public function, class, public method or UPPERCASE constant of a
package module must be loaded (by name or as an attribute) somewhere in
`src`, or be named in README.md, a `perfbench/*.py` file (string
constants included: the tracer wraps entry points by name) or the
acceptance tests. A name only the unit tests call belongs in those tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gridtrade"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
WORD = re.compile(r"[A-Za-z_]\w*")
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def public_definitions(tree: ast.Module):
    """(qualified name, bare name) of each public def, class, method and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                yield target.id, target.id


def loaded_names(tree: ast.AST) -> set[str]:
    """Every name read and every attribute taken in `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def mentioned_names(tree: ast.AST) -> set[str]:
    """Loaded names plus every identifier-like word of a string constant."""
    out = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(WORD.findall(node.value))
    return out


def test_every_public_name_has_a_caller():
    used = set()
    for path in SRC.rglob("*.py"):
        used |= loaded_names(ast.parse(path.read_text()))
    pinned = set(WORD.findall((ROOT / "README.md").read_text()))
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        pinned |= mentioned_names(ast.parse(path.read_text()))

    unused = [
        f"{path.relative_to(SRC)}:{qualname}"
        for path in MODULES
        for qualname, name in public_definitions(ast.parse(path.read_text()))
        if name not in used and name not in pinned
    ]
    assert not unused, f"public names with no caller in src and no pin: {unused}"
