"""Source-level invariants of the package: stdlib only, and exact (no floats
outside the verification oracles)."""

import ast
import pathlib
import sys

import weylcurrents

SOURCES = sorted(pathlib.Path(weylcurrents.__file__).parent.glob("*.py"))


def parsed():
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_imports_are_stdlib_or_the_package():
    assert len(SOURCES) >= 10
    for name, tree in parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative: inside the package
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names or root == "weylcurrents", (name, root)


def test_no_float_arithmetic_outside_verify():
    for name, tree in parsed():
        if name == "verify.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            assert not (isinstance(f, ast.Name) and f.id in ("float", "sqrt")), (name, f.id)
            assert not (isinstance(f, ast.Attribute) and f.attr == "sqrt"), (name, f.attr)
