"""Every public function and class of the package has a caller in the code that ships."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ("src", "scripts", "perfbench")
# open item 5 of ROADMAP.md (the run record) gives js_level its caller
ALLOWED = {"js_level"}
# fields read by tests alone, with the reason
ALLOWED_FIELDS = {
    "evaluate:OracleReport.sharp_threshold": "acceptance criterion 6 reads it",
    "evaluate:OracleReport.passed_sharp": "acceptance criterion 6 reads it",
}


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


def test_every_field_has_a_reader():
    # a field is an annotated name in the body of a package class; it is read by an
    # attribute load or a string constant (getattr, the CLI's column names) that ships
    fields, read = set(), set()
    for base in SHIPPED:
        for path, tree in _parsed(base):
            if path.parent == ROOT / "src" / "multithresh":
                fields.update(f"{path.stem}:{cls.name}.{stmt.target.id}"
                              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                              for stmt in cls.body
                              if isinstance(stmt, ast.AnnAssign)
                              and isinstance(stmt.target, ast.Name))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    unread = {f for f in fields if f.rpartition(".")[2] not in read}
    assert len(fields) > 80
    assert sorted(unread - ALLOWED_FIELDS.keys()) == []
    assert ALLOWED_FIELDS.keys() <= unread  # an allowed field that gains a reader leaves
