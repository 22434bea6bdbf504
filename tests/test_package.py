"""Source-level invariants of the package: stdlib only, exact (no floats
outside the verification oracles), and a light import."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import weylcurrents
from weylcurrents.affine import AffineWeight, CosetRepresentative, DotRepresentative
from weylcurrents.kostka import KostkaResult
from weylcurrents.qseries import QPolynomial
from weylcurrents.rootsystem import Weight
from weylcurrents.verify import CheckResult

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


# each input rule, by a piece of its message, and the one function that raises it
INPUT_RULES = {
    "non-integral weight coordinate": "rootsystem._integral",
    "coordinates; rank": "rootsystem.RootSystem.check_dominant",
    "dominant": "rootsystem.RootSystem.check_dominant",
    "level k must be an int": "affine.check_level",
    "level k must be >= 1": "affine.check_level",
    "is not in P_+^": "affine.check_level",
    "cutoff N must be an int": "characters.check_cutoff",
    "cutoff N must be >= 0": "characters.check_cutoff",
    "affine index": "affine.check_node",
}


def raised_messages():
    """(module.qualified function, text of its string pieces) for each raise
    of a ValueError, the error of bad input."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
            elif isinstance(child, ast.Raise):
                exc = child.exc
                if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ValueError":
                    pieces = [
                        n.value for n in ast.walk(exc)
                        if isinstance(n, ast.Constant) and isinstance(n.value, str)
                    ]
                    yield scope, "".join(pieces)
            else:
                yield from visit(child, scope)

    for name, tree in parsed():
        yield from visit(tree, name.removesuffix(".py"))


def test_each_input_rule_is_raised_from_one_function():
    raisers = {piece: set() for piece in INPUT_RULES}
    for scope, text in raised_messages():
        for piece in INPUT_RULES:
            if piece in text:
                raisers[piece].add(scope)
    assert raisers == {piece: {scope} for piece, scope in INPUT_RULES.items()}


# one command per route family: the chars route, every kostka route, every suite
COMMANDS = (
    ["decompose", "--type", "D4", "--lambda", "1,0,0,0", "--k", "1", "--N", "7"],
    ["kostka", "--type", "A2", "--mu", "2,2", "--lambda", "0,0", "--k", "2", "--route", "all"],
    ["verify", "all"],
)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # against the modules the interpreter holds before the import, and with -S
    # (no site hooks), so a module that a host's site hooks load still counts;
    # a list is taken after the import and after each command, so a module
    # that a command imports when it runs counts too. Only `verify` reads the
    # suites: decompose and kostka run without them
    code = (
        "import contextlib, io, sys; bare = set(sys.modules); import weylcurrents.cli as cli; "
        "print(*sorted(set(sys.modules) - bare))\n"
        f"for argv in {COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    print(*sorted(set(sys.modules) - bare))"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(weylcurrents.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    imported, *after, after_commands = (set(line.split()) for line in run.stdout.splitlines())
    assert len(after) == len(COMMANDS) - 1 and COMMANDS[-1][0] == "verify"
    assert "weylcurrents.cli" in imported
    assert not imported & {"dataclasses", "inspect", "tempfile", "fractions", "decimal"}
    for modules in (imported, *after):
        assert "weylcurrents.verify" not in modules
    assert "weylcurrents.verify" in after_commands
    assert not after_commands & {"fractions", "decimal"}


def test_records_keep_their_fields_and_defaults():
    assert AffineWeight._fields == ("classical", "level", "degree")
    assert DotRepresentative._fields == ("on_wall", "element", "weight", "degree", "sign")
    assert CosetRepresentative._fields == ("element", "image", "offset", "sign")
    assert KostkaResult._fields == ("mu", "lam", "k", "value", "route")
    assert CheckResult._fields == ("suite", "name", "ok", "detail")
    check = CheckResult("s", "n", True)
    assert check.detail == ""
    assert repr(check) == "CheckResult(suite='s', name='n', ok=True, detail='')"
    result = KostkaResult(Weight([1]), Weight([1]), None, QPolynomial.one(), "chars")
    records = [
        (AffineWeight(Weight([1, 0]), 1, 2), "level"),
        (DotRepresentative(True, None, None, 0, 0), "on_wall"),
        (CosetRepresentative(None, None, 0, 1), "offset"),
        (result, "value"),
        (check, "ok"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0


def test_affine_weight_arithmetic_is_not_tuple_arithmetic():
    a = AffineWeight(Weight([1, 0]), 1, 2)
    b = AffineWeight(Weight([0, 1]), 0, -1)
    assert a + b == AffineWeight(Weight([1, 1]), 1, 1)
    assert a - b == AffineWeight(Weight([1, -1]), 1, 3)
    assert -a == AffineWeight(Weight([-1, 0]), -1, -2)
    assert 2 * a == a * 2 == AffineWeight(Weight([2, 0]), 2, 4)
    assert all(type(x) is AffineWeight for x in (a + b, a - b, -a, 2 * a, a * 2))
    assert repr(a) == "AffineWeight((1, 0), level=1, degree=2)"


def test_readme_quick_tour_runs_and_gives_its_commented_values():
    # the README's "Library quick tour" block runs as printed, and each line
    # gives the value its comment names
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("## Library quick tour\n\n```python\n", 1)[1].split("```", 1)[0]
    env = {}
    exec(block, env)
    assert env["L"].cutoff == 10
    assert env["ex"].multiplicities
    assert all(p.is_monomial() for p in env["ex"].multiplicities.values())
    last = block.strip().splitlines()[-1]
    code, comment = last.split("#")
    assert comment.strip() == "q"
    assert eval(code, env) == QPolynomial.monomial(1)
