import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_failing_given_test_reports_its_example(pytester):
    # the repository's pytest settings turn warnings into errors; a failing
    # @given test must still fail as a test (exit 1) with its falsifying
    # example, not abort the run with an internal error (exit 3)
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    test_file = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", test_file)
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*Falsifying example*"])


def _is_fraction(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction"


def _float_use(node) -> str | None:
    """What makes node a floating-point use, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return f"float literal {node.value!r}"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return "float() call"
    if (
        isinstance(node, ast.Attribute)
        and node.attr in ("inf", "nan")
        and isinstance(node.value, ast.Name)
        and node.value.id == "math"
    ):
        return f"math.{node.attr}"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        if not (_is_fraction(node.left) or _is_fraction(node.right)):
            return "/ with no Fraction(...) operand"
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div) and not _is_fraction(node.value):
        return "/= with no Fraction(...) operand"
    return None


def test_no_floating_point_in_src():
    # README: "there is no floating point anywhere"; every division is of Fractions
    found = []
    for path in sorted((ROOT / "src" / "ngtrace").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            what = _float_use(node)
            if what is not None:
                found.append(f"{path.name}:{node.lineno}: {what}")
    assert not found, found


def _names_read(tree) -> set[str]:
    """Every name, attribute and imported name in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_src_holds_no_code_that_only_tests_call():
    # a function or class in src that neither the package nor the benchmark
    # names is run by the tests alone, and belongs in tests/oracles.py; the
    # re-exports of __init__ name everything and so count for nothing, and
    # dunder methods are called by the language, not by name
    defined, read = [], set()
    for path in sorted((ROOT / "src" / "ngtrace").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read |= _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((node.name, f"{path.name}:{node.lineno}"))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        read |= _names_read(ast.parse(path.read_text(), str(path)))
    unread = [f"{where}: {name}" for name, where in defined if name not in read]
    assert not unread, unread


def _functions(path):
    """(name, node) of every function in the module at path, outermost first."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


def _term_sums(func) -> list[int]:
    """Lines of func that call <x>.get(<key>, 0), directly or through a name
    bound to <x>.get: a hand-written sum into a dict of terms."""
    aliases = {
        target.id
        for node in ast.walk(func)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute) and node.value.attr == "get"
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    lines = []
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call) and len(node.args) == 2):
            continue
        default = node.args[1]
        if not (isinstance(default, ast.Constant) and default.value == 0 and type(default.value) is int):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "get") or (isinstance(f, ast.Name) and f.id in aliases):
            lines.append(node.lineno)
    return lines


def test_src_sums_terms_in_one_place():
    # polyring.add_products is the one loop that adds products of terms into
    # a term dict and drops zero sums; every other site calls it
    found = set()
    for path in sorted((ROOT / "src" / "ngtrace").glob("*.py")):
        for name, func in _functions(path):
            found |= {f"{path.name}:{line}: {name}" for line in _term_sums(func)}
    assert [where.split(": ")[1] for where in found] == ["add_products"], sorted(found)


def test_src_checks_rings_in_one_place():
    # a polynomial over another ring is refused by polyring.check_ring alone:
    # no other function compares a .ring with != or is not
    found = []
    for path in sorted((ROOT / "src" / "ngtrace").glob("*.py")):
        for name, func in _functions(path):
            for node in ast.walk(func):
                if isinstance(node, ast.Compare) and any(isinstance(op, (ast.NotEq, ast.IsNot)) for op in node.ops):
                    operands = [node.left, *node.comparators]
                    if any(isinstance(x, ast.Attribute) and x.attr == "ring" for x in operands):
                        found.append(f"{path.name}:{node.lineno}: {name}")
    assert {where.split(": ")[1] for where in found} == {"check_ring"}, found


def test_src_forms_s_polynomials_in_one_place():
    # the minors of a validated matrix are a Groebner basis by a theorem
    # (groebner.minors_basis), so no pair of them is settled in src: the
    # pair loop _close is the one function that forms an S-polynomial
    found = set()
    for path in sorted((ROOT / "src" / "ngtrace").glob("*.py")):
        for name, func in _functions(path):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_spoly":
                    found.add(f"{path.name}: {name}")
    assert found == {"groebner.py: _close"}, sorted(found)
