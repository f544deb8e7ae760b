"""No module of src/taures imports a name it never uses.  pyflakes is not a
dependency, so this reads each module with ast: every name an import
binds, at module level or inside a function, must be read somewhere in
that module.  ``__init__.py`` is exempt: its imports are the package's
exports."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "taures")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_guard_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from dataclasses import dataclass, field\n"
              "def f():\n    from json import dumps\n    return field\n")
    assert unused_imports(source) == [(2, "os"), (3, "regex"),
                                      (4, "dataclass"), (6, "dumps")]


def test_src_defines_one_polynomial_type():
    """One sparse polynomial type: `fields.SPoly` is the only class named
    `*Poly` in src/taures, and an F_q[t][T] value is a list of them, so
    the package exports neither `BivariatePoly` nor `poly_unit_equiv`."""
    classes = []
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            classes += [(module, node.name) for node in ast.walk(
                ast.parse(fh.read())) if isinstance(node, ast.ClassDef)
                and node.name.endswith("Poly")]
    assert classes == [("fields.py", "SPoly")]
    import taures
    assert not {"BivariatePoly", "poly_unit_equiv"} & set(dir(taures))
