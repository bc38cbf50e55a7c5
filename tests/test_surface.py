"""Library surface: every public top-level function, class and public method
in src/ilab is referenced somewhere in src/ilab outside its own definition.

A name is referenced when it appears as a bare name, an attribute
(`obj.name`) or an imported name.  Methods are matched by attribute name
alone, so the scan can miss a method whose name another class shares; it
never flags a reached one.  A name the CLI cannot reach belongs behind a
CLI row, or it goes.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ilab"

ALLOWED = {
    # the paper's minor-arc estimate, the one step of the density-increment
    # argument without a CLI row yet; tests pin its bounds
    "weyl_minor_bound": "minor-arc envelope awaiting an `expsum minor` row",
    "sieved_minor_audit": "minor-arc audit awaiting an `expsum minor` row",
}


def definitions(tree: ast.Module):
    """(name, node) for each public top-level def or class and each public
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def references(node: ast.AST) -> Counter:
    """How often each name is used in node's subtree."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def unreferenced() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = sum((references(tree) for tree in trees.values()), Counter())
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in definitions(tree)
        if total[name] == references(node)[name]  # used only inside itself
    ]


def test_every_public_name_is_referenced():
    unused = [name for name in unreferenced() if name.rsplit(".", 1)[1] not in ALLOWED]
    assert unused == [], f"public names with no reference in src/ilab: {unused}"


def test_allow_list_is_current():
    # an allowed name that gains a caller, or disappears, leaves the list
    flagged = {name.rsplit(".", 1)[1] for name in unreferenced()}
    assert flagged >= set(ALLOWED), f"stale allow-list entries: {set(ALLOWED) - flagged}"
