import ast
import re
from pathlib import Path

from conftest import exit_code_lists

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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Types:
    """The src classes and what their annotations say, for resolving the
    receiver of an attribute read to a class.

    A receiver resolves when it is self or cls in a method, a class name, a
    name annotated or assigned with a resolved value, a call of a class or
    of a function or method whose return annotation names a class, an
    attribute that a class annotates (a field, a property, or self.x set
    from an annotated parameter in __init__), or an item of a list or tuple
    annotated with a class (indexed, or the target of a for).  A value of
    class C is written "C", a list of them "[C]"."""

    def __init__(self, trees):
        classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        self.names = {node.name for node in classes}
        self.bases = {
            c.name: [b.id for b in c.bases if isinstance(b, ast.Name) and b.id in self.names] for c in classes
        }
        self.methods, self.fields, self.returns = {}, {}, {}
        for node in classes:
            methods = self.methods[node.name] = {}
            fields = self.fields[node.name] = {}
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    fields[item.target.id] = self.annotation(item.annotation)
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item.name] = item
                    if any(isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list):
                        fields[item.name] = self.annotation(item.returns)
                    if item.name == "__init__":
                        params = {a.arg: self.annotation(a.annotation) for a in item.args.args}
                        for sub in ast.walk(item):
                            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Name):
                                for t in sub.targets:
                                    if isinstance(t, ast.Attribute) and ast.unparse(t.value) == "self":
                                        fields.setdefault(t.attr, params.get(sub.value.id))
        for tree in trees:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls = self.annotation(node.returns)
                    # a name two modules define with other return classes resolves to none
                    self.returns[node.name] = cls if self.returns.get(node.name, cls) == cls else None

    def annotation(self, node) -> str | None:
        """The one src class, or list of it, that an annotation names
        (C, "C", C | None, list[C], tuple[C, ...]), or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            named = {self.annotation(node.left), self.annotation(node.right)} - {None}
            return named.pop() if len(named) == 1 else None
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) in ("list", "tuple"):
            item = self.annotation(node.slice.elts[0] if isinstance(node.slice, ast.Tuple) else node.slice)
            return f"[{item}]" if item in self.names else None
        return node.id if isinstance(node, ast.Name) and node.id in self.names else None

    def _mro(self, cls: str) -> list[str]:
        return [cls] + [c for b in self.bases[cls] for c in self._mro(b)]

    def lookup(self, cls: str | None, attr: str, table: str) -> list:
        """The (class, entry) pairs a read of attr on a value of class cls
        may reach: the first definition along cls's src bases, and every
        override in a subclass of cls."""
        if cls not in self.names:
            return []
        entries = getattr(self, table)
        found = [(c, entries[c][attr]) for c in self._mro(cls) if attr in entries[c]][:1]
        overrides = [c for c in self.names if c != cls and cls in self._mro(c) and attr in entries[c]]
        return found + [(c, entries[c][attr]) for c in overrides]

    def of(self, node, env) -> str | None:
        """The class of the value of expression node, "[C]" for a list of
        C, or None."""
        if isinstance(node, ast.Name):
            return node.id if node.id in self.names else env.get(node.id)
        if isinstance(node, ast.Subscript):
            seq = self.of(node.value, env)
            is_item = seq and seq.startswith("[") and not isinstance(node.slice, ast.Slice)
            return seq[1:-1] if is_item else None
        if isinstance(node, ast.Attribute):
            found = {cls for _, cls in self.lookup(self.of(node.value, env), node.attr, "fields")}
            return found.pop() if len(found) == 1 else None
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                return f.id if f.id in self.names else self.returns.get(f.id)
            if isinstance(f, ast.Attribute):
                methods = self.lookup(self.of(f.value, env), f.attr, "methods")
                found = {self.annotation(m.returns) for _, m in methods}
                return found.pop() if len(found) == 1 else None
        return None

    def scope_env(self, scope, cls: str | None) -> dict:
        """Names bound in scope (nested functions included) to one class."""
        env: dict = {}

        def bind(name, value):
            env[name] = value if env.get(name, value) == value else None

        for node in ast.walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                for i, a in enumerate(args):
                    if i == 0 and node is scope and cls is not None:
                        bind(a.arg, cls)  # self, or cls of a classmethod
                    elif getattr(a, "annotation", None) is not None:
                        bind(a.arg, self.annotation(a.annotation))
        # assignments may read one another: settle them in a few passes
        for _ in range(3):
            for node in ast.walk(scope):
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    env[node.target.id] = self.annotation(node.annotation)
                    continue
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], self.of(node.value, env)
                elif isinstance(node, (ast.For, ast.comprehension)):
                    seq = self.of(node.iter, env)
                    target, value = node.target, seq[1:-1] if seq and seq.startswith("[") else None
                else:
                    continue
                if isinstance(target, ast.Name) and value is not None:
                    bind(target.id, value)
        return env


def _scopes(tree):
    """(scope, enclosing class or None) for the module's own code, each
    top-level function, and each method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    yield ast.Module([n for n in tree.body if not isinstance(n, (*functions, ast.ClassDef))], []), None
    for node in tree.body:
        if isinstance(node, functions):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    yield item, node.name


def test_src_holds_no_code_that_only_tests_call():
    # a function, class or method in src that neither the package nor the
    # benchmark reaches is run by the tests alone, and belongs in
    # tests/oracles.py; the re-exports of __init__ name everything and so
    # count for nothing, and dunder methods are called by the language, not
    # by name.  A function or class is reached when its name is read.  A
    # method is reached through self.x, ClassName.x or a receiver whose
    # class the annotations give (_Types); an attribute read of another
    # receiver reaches x only when one class alone defines a method x
    src = [p for p in sorted((ROOT / "src" / "ngtrace").glob("*.py")) if p.name != "__init__.py"]
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in src + bench}
    types = _Types(trees.values())
    owners: dict[str, list[str]] = {}
    for cls, methods in types.methods.items():
        for name in methods:
            owners.setdefault(name, []).append(cls)
    read, reached = set(), set()
    for tree in trees.values():
        read |= _names_read(tree)
        for scope, cls in _scopes(tree):
            env = types.scope_env(scope, cls)
            for node in ast.walk(scope):
                if not isinstance(node, ast.Attribute):
                    continue
                found = types.lookup(types.of(node.value, env), node.attr, "methods")
                if found:
                    reached |= {(c, node.attr) for c, _ in found}
                elif len(owners.get(node.attr, ())) == 1:
                    reached.add((owners[node.attr][0], node.attr))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unread = []
    for path in src:
        tree = trees[path]
        owner = {
            id(item): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, functions)
        }
        for node in ast.walk(tree):
            if isinstance(node, (*functions, ast.ClassDef)) and not _is_dunder(node.name):
                cls = owner.get(id(node))
                if not ((cls, node.name) in reached if cls else node.name in read):
                    unread.append(f"{path.name}:{node.lineno}: {cls + '.' if cls else ''}{node.name}")
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


def test_src_sieves_membership_in_one_place():
    # one membership sieve: NumericalSemigroup.__init__ sieves H once, and
    # every other mask (ideals, the traces) is read off H.mask by shifts;
    # the lambda trace's members are closed under H already (its docstring)
    found = set()
    for path in sorted((ROOT / "src" / "ngtrace").glob("*.py")):
        for scope, cls in _scopes(ast.parse(path.read_text(), str(path))):
            for node in ast.walk(scope):
                if isinstance(node, ast.Call):
                    f = node.func
                    if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "sieve_mask":
                        name = getattr(scope, "name", "<module>")
                        found.add(f"{path.name}: {cls + '.' + name if cls else name}")
    assert found == {"semigroup.py: NumericalSemigroup.__init__"}, sorted(found)


def test_cli_decides_exit_codes_in_main():
    # every subcommand prints its report and returns nothing, or raises:
    # main alone maps an outcome to an exit code and writes the error: line
    cli = ROOT / "src" / "ngtrace" / "cli.py"
    found = []
    for name, func in _functions(cli):
        for node in ast.walk(func):
            if name.startswith("cmd_") and isinstance(node, ast.Return) and node.value is not None:
                found.append(f"{name}:{node.lineno}: returns a value")
            # an f-string's leading text is a Constant of its own
            if name != "main" and isinstance(node, ast.Constant) and str(node.value).startswith("error:"):
                found.append(f"{name}:{node.lineno}: writes an error: line")
    assert not found, found


def test_exit_codes_are_listed_alike():
    # README's exit table, cli's EXIT_* constants and cli's docstring name
    # one set of codes
    lists = exit_code_lists()
    assert len({frozenset(codes) for codes in lists.values()}) == 1, lists


def _violation_prefixes() -> set[str]:
    """The error: line each PropertyViolation(...) in src starts with: its
    message's leading literal, the whole of a plain string."""
    found = set()
    for path in sorted((ROOT / "src" / "ngtrace").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PropertyViolation":
                message = node.args[0]
                if isinstance(message, ast.JoinedStr):
                    message = message.values[0]
                assert isinstance(message, ast.Constant), f"{path.name}:{node.lineno}: no leading literal"
                found.add("error: " + message.value.strip())
    return found


def test_exit_5_prefixes_are_listed_alike():
    # README's exit-5 row lists in its stderr column the leading literal of
    # every PropertyViolation message src raises, and nothing else
    readme = (ROOT / "README.md").read_text()
    table = readme.split("\nExit codes:\n\n", 1)[1].split("\n\n", 1)[0]
    (row,) = [row for row in table.splitlines() if row.split("|")[1].strip() == "5"]
    listed = set(re.findall(r"`([^`]*)`", row.split("|")[3]))
    assert listed == _violation_prefixes(), (sorted(listed), sorted(_violation_prefixes()))


ROUTES = {"trace_canonical_oracle", "trace_canonical_lambda", "trace_canonical_syzygy"}


def test_routes_are_compared_in_one_place():
    # corpus names the trace routes (TRACE_ROUTES) and compares them
    # (InstanceReport.violations); no other src module reads a route by
    # name, though each route's own module defines it and __init__
    # re-exports it
    found = []
    for path in sorted((ROOT / "src" / "ngtrace").glob("*.py")):
        if path.name in ("corpus.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            read = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and read in ROUTES:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {read}")
    assert not found, found


def test_src_parses_json_in_one_place():
    # cli._load_payload is the one JSON reader; from_json takes its dict.
    # json.loads, json.load, or either imported by name, is a reader
    found = set()
    for path in sorted((ROOT / "src" / "ngtrace").glob("*.py")):
        for scope, cls in _scopes(ast.parse(path.read_text(), str(path))):
            for node in ast.walk(scope):
                read = node.attr if isinstance(node, ast.Attribute) else getattr(node, "name", None)
                if isinstance(node, (ast.Attribute, ast.alias)) and read in ("loads", "load"):
                    name = getattr(scope, "name", "<module>")
                    found.add(f"{path.name}: {cls + '.' + name if cls else name}")
    assert found == {"cli.py: _load_payload"}, sorted(found)


def test_algebra_layer_imports_no_instance_module():
    # groebner and polyring are the algebra layer: they import each other
    # and errors, and no module of instances, ideals or traces, at any depth
    allowed = {"groebner", "polyring", "errors"}
    found = []
    for name in ("groebner.py", "polyring.py"):
        tree = ast.parse((ROOT / "src" / "ngtrace" / name).read_text(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                modules = [node.module] if node.module else [a.name for a in node.names]
                found += [f"{name}:{node.lineno}: {m}" for m in modules if m not in allowed]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # the package imports itself by relative imports alone
                modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
                found += [f"{name}:{node.lineno}: {m}" for m in modules if m.split(".")[0] == "ngtrace"]
    assert not found, found
