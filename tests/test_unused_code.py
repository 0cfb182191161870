"""The package holds no code that only the tests run."""
import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lexglean"

# Run by the ``lexglean`` console script, not by the package.
ENTRY_POINTS = {"cli.main"}


def _definitions(tree):
    """(qualified name, name, node) of every top-level function, class and
    module constant and every method of a top-level class.  Special methods
    (``__init__`` and the like) are run by the interpreter, not by name, so
    they are left out, as are dataclass fields."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.id, node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def _loads(tree):
    """How often each name is loaded in ``tree``, as a name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def test_every_definition_is_loaded_elsewhere_in_the_package():
    """Each top-level function, class, method and module constant of
    ``src/lexglean`` is loaded somewhere in the package outside its own
    definition.

    The match is by name only: any name or attribute of the same name counts
    as a use, whatever it refers to.  So a definition that nothing calls can
    still pass when an unrelated local, parameter or method of another class
    shares its name; the test catches a name that the package never loads.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name, node in _definitions(tree)
        if f"{module}.{qualified}" not in ENTRY_POINTS and loads[name] == _loads(node)[name]
    ]
    assert not unused, f"defined but never loaded elsewhere in the package: {', '.join(unused)}"
