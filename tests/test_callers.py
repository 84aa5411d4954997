"""Every public function and class of the package has a caller in the code that ships."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ("src", "scripts", "perfbench")
# open item 5 of ROADMAP.md (the run record) gives js_level its caller
ALLOWED = {"js_level"}


def _parsed(base: str):
    for path in sorted((ROOT / base).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_has_a_reference():
    # a reference is a name, an attribute or a string constant (the benchmark's
    # tracer wraps some functions by name); an import or the definition is none
    defined, referenced = {}, set()
    for base in SHIPPED:
        for path, tree in _parsed(base):
            if path.parent == ROOT / "src" / "multithresh":
                defined.update((node.name, path.name) for node in tree.body
                               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                               and not node.name.startswith("_"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    referenced.add(node.value)
    assert len(defined) > 50
    assert sorted(f"{module}:{name}" for name, module in defined.items()
                  if name not in referenced | ALLOWED) == []
    assert ALLOWED <= defined.keys() - referenced  # an allowed name that gains a caller leaves
