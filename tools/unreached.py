"""List the ``src`` functions that none of the three subcommands enters, the
names in ``src`` that no ``src`` expression reads, the parameters that
nothing reads or that only a caller outside ``src`` passes, and the reads of
one ``src`` module's private names by another.

The dynamic pass runs ``simulate`` and ``report`` on both bundled experiment
configs (at ``REPLICATIONS`` replications per cell) and ``geometry``, in text
and in JSON, on both models at m = 2 and 3, all through ``cli.main`` under
``sys.setprofile``. A function counts as entered when a frame of its code
starts; functions are matched by file and first line, not by name, so a
method that shares its name with a reached one is still seen.
Prints every function never entered with its line count, the total, and each
subcommand's exit code. A function nested in an unreached one is counted
with it, not again.

The static pass reads the ``src`` syntax trees (see :func:`unread_names`)
and prints every field, method, property or module-level name that no
``src`` expression reads, with its kind, and their count: a name that only
the tests read shows up here even where a subcommand builds it. Then it
prints every parameter that its function's body never reads, and every
defaulted parameter that no ``src`` call passes (see
:func:`unread_parameters`), with their count: an option that only the tests
set shows up here even where a subcommand runs its function. Last it
prints every read of one ``src`` module's leading-underscore name by another
(see :func:`private_reads`), with their count: a module's private name is
its own to change.

    python tools/unreached.py
"""

from __future__ import annotations

import argparse
import ast
import builtins
import importlib.util
import os
import re
import sys
import tempfile
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

CONFIGS = ("vmf", "hyperboloid")
# replications per cell of each bundled config
REPLICATIONS = 20
# (model, m, r): the geometry cases of the README
GEOMETRY_CASES = (("vmf", 2, 0.25), ("hyperboloid", 2, 0.1), ("vmf", 3, 1.0), ("hyperboloid", 3, 0.1))
# what a call through *args or **kwargs passes: every parameter
ALL = "*"


def src_functions(src: Path) -> list[tuple[str, int, int, str, tuple[str, int] | None]]:
    """Every function defined under ``src``: ``(file, first line, line count,
    qualified name, key of the enclosing function or None)``.

    The first line is the one a code object reports: the first decorator's,
    if any, else the ``def``'s.
    """
    out = []

    def visit(node, path, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((path, first, child.end_lineno - first + 1, name, parent))
                visit(child, path, name + ".", (path, first))
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".", parent)
            else:
                visit(child, path, prefix, parent)

    for path in sorted(src.glob("*.py")):
        real = os.path.realpath(path)
        visit(ast.parse(path.read_text(), str(path)), real, "", None)
    return out


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned(node) -> list[tuple[str, int]]:
    """The names an assignment statement binds, with its line; none for another statement."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [(n.id, node.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _resolve(dotted: str):
    """The object a dotted path names: its longest importable prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(dotted)


def _external_bases(tree: ast.Module, cls: ast.ClassDef) -> list:
    """The bases of ``cls`` that are built in or imported from outside ``src``, as objects."""
    imports = {}  # a name the module binds -> the dotted path it names
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                # "import a.b" binds a; "import a.b as c" binds c to a.b
                top = a.name.partition(".")[0]
                imports[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imports.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    out = []
    for base in cls.bases:
        head, _, rest = ast.unparse(base).partition(".")
        if head in imports:
            out.append(_resolve(imports[head] + ("." + rest if rest else "")))
        elif hasattr(builtins, head):
            out.append(_resolve("builtins." + ast.unparse(base)))
        # else a class of src, whose own members are checked where it is defined
    return out


def unread_names(src: Path) -> list[tuple[str, int, str, str]]:
    """Every field, method, property and module-level name defined under
    ``src`` that no ``src`` expression reads: ``(file, line, qualified name,
    kind)``.

    A field is a name a class body assigns, as a dataclass or a NamedTuple
    declares its fields, or an attribute a method assigns through ``self``.
    A field, a method or a property is read where its name is loaded as an
    attribute, or passed to ``getattr`` as a string, directly or through a
    loop variable over strings. A module-level function, class or constant
    is read where its name is loaded, bare or as an attribute; an import is
    not a read. Names are matched without their owner, so a field that
    shares its name with a read one is not listed. Dunder names are skipped,
    and so is a method whose name a base from outside ``src`` defines: the
    library it comes from calls it.
    """
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    attrs: set[str] = set()
    names: set[str] = set()
    for tree in trees.values():
        loops: dict[str, set[str]] = {}
        calls = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name):
                loops.setdefault(node.target.id, set()).update(
                    c.value for c in ast.walk(node.iter) if isinstance(c, ast.Constant) and isinstance(c.value, str))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr" and len(node.args) > 1:
                calls.append(node.args[1])
        for arg in calls:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                attrs.add(arg.value)
            elif isinstance(arg, ast.Name):
                attrs.update(loops.get(arg.id, ()))

    loaded = names | attrs
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            defined = _assigned(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [(node.name, node.lineno)]
            out += [(path.name, line, name, "name") for name, line in defined
                    if not _dunder(name) and name not in loaded]
            if not isinstance(node, ast.ClassDef):
                continue
            external = _external_bases(tree, node)
            members: dict[str, tuple[int, str]] = {}
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    decorators = {ast.unparse(d).split(".")[-1] for d in member.decorator_list}
                    kind = "property" if decorators & {"property", "cached_property"} else "method"
                    if not any(hasattr(base, member.name) for base in external):
                        members.setdefault(member.name, (member.lineno, kind))
                    stores = [(n.attr, n.lineno) for n in ast.walk(member) if isinstance(n, ast.Attribute)
                              and isinstance(n.ctx, ast.Store) and ast.unparse(n.value) == "self"]
                else:
                    stores = _assigned(member)
                for name, line in stores:
                    members.setdefault(name, (line, "field"))
            out += [(path.name, line, f"{node.name}.{name}", kind) for name, (line, kind) in members.items()
                    if not _dunder(name) and name not in attrs]
    return out


def _entry_points(pyproject: Path) -> set[tuple[str, str]]:
    """``(module file stem, qualified name)`` of each console script that ``pyproject`` declares."""
    scripts = tomllib.loads(pyproject.read_text()).get("project", {}).get("scripts", {})
    out = set()
    for target in scripts.values():
        module, _, qualname = target.partition(":")
        out.add((module.rpartition(".")[2].strip(), qualname.strip()))
    return out


def _passed(trees) -> dict[str | None, set]:
    """Each callee name of a ``src`` call -> the positions and keywords its calls pass."""
    passed: dict[str | None, set] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                got = passed.setdefault(name, set())
                got.update(ALL if isinstance(a, ast.Starred) else i for i, a in enumerate(node.args))
                got.update(k.arg or ALL for k in node.keywords)
    return passed


def unread_parameters(src: Path, pyproject: Path) -> list[tuple[str, int, str, str]]:
    """Every parameter of a ``src`` function that its body never reads, kind
    ``"parameter"``, and every defaulted one that no ``src`` call passes, kind
    ``"default"``: ``(file, line, qualified function name.parameter, kind)``.

    A read is a load of the name anywhere in the body, nested functions
    included. A call passes a parameter by position or by keyword; calls are
    matched by the callee's name, so a call of any function of that name
    counts, and a constructor is called by its class's name. A call through
    ``*args`` or ``**kwargs`` passes every parameter. Skipped: ``self`` and
    ``cls``, a method whose name a base from outside ``src`` defines (the
    library it comes from calls it), and the console scripts that
    ``pyproject``'s ``[project.scripts]`` names (the shell calls them).
    """
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    passed = _passed(trees.values())
    entries = _entry_points(pyproject)
    out = []

    def check(path, fn, qualname, cls, external):
        if (path.stem, qualname) in entries or any(hasattr(base, fn.name) for base in external):
            return
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = set(positional[len(positional) - len(args.defaults):])
        defaulted.update(a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
        body = [n for stmt in fn.body for n in ast.walk(stmt)]
        reads = {n.id for n in body if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        reads.update(n.target.id for n in body
                     if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name))
        names = {fn.name, cls.name} if cls is not None and fn.name == "__init__" else {fn.name}
        calls = set().union(*(passed.get(name, ()) for name in names))
        # a method's first positional parameter is its object, which no call passes by position
        bound = cls is not None and "staticmethod" not in {ast.unparse(d) for d in fn.decorator_list}
        for arg in positional + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]:
            if arg.arg in ("self", "cls"):
                continue
            where = {ALL, arg.arg}
            if arg in positional:
                where.add(positional.index(arg) - bound)
            if arg.arg not in reads:
                out.append((path.name, arg.lineno, f"{qualname}.{arg.arg}", "parameter"))
            elif arg in defaulted and not calls & where:
                out.append((path.name, arg.lineno, f"{qualname}.{arg.arg}", "default"))

    def visit(node, path, tree, prefix, cls, external):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check(path, child, prefix + child.name, cls, external)
                visit(child, path, tree, prefix + child.name + ".", None, [])
            elif isinstance(child, ast.ClassDef):
                visit(child, path, tree, prefix + child.name + ".", child, _external_bases(tree, child))
            else:
                visit(child, path, tree, prefix, cls, external)

    for path, tree in trees.items():
        visit(tree, path, tree, "", None, [])
    return out


def private_reads(src: Path) -> list[tuple[str, int, str]]:
    """Every read of a leading-underscore name of one ``src`` module by another:
    ``(file, line, module.name)``.

    A read is an attribute of a name that an import binds to a ``src`` module
    (``from . import conformal``, then ``conformal._apply``) or a name that an
    import takes from one (``from .conformal import _apply``). The ``from``
    imports are read, relative or through the package's own name; dunder names
    are skipped.
    """
    package = src.name

    def module(name: str | None, level: int) -> str | None:
        """The ``src`` module an import names, ``""`` for the package; None outside ``src``."""
        if level == 1:
            return name or ""
        if level == 0 and name and (name == package or name.startswith(package + ".")):
            return name[len(package) + 1:]
        return None

    def private(name: str) -> bool:
        return name.startswith("_") and not _dunder(name)

    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}  # a name the file binds -> the src module it names
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (owner := module(node.module, node.level)) is not None:
                for a in node.names:
                    if owner == "":
                        bound[a.asname or a.name] = a.name
                    if private(a.name) and owner != path.stem:
                        out.append((path.name, node.lineno, f"{owner or package}.{a.name}"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and private(node.attr)
                    and bound.get(node.value.id) not in (None, path.stem)):
                out.append((path.name, node.lineno, f"{bound[node.value.id]}.{node.attr}"))
    return sorted(out)


def run_subcommands() -> tuple[set[tuple[str, int]], list[str]]:
    """The ``(file, first line)`` of every code object entered while the
    subcommands run, and one ``"<subcommand> <case> <exit code>"`` per run."""
    entered: set[tuple[str, int]] = set()
    codes = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        import seqgeo
        from seqgeo import cli

        # a cached function is entered only on a miss, so start from empty
        # caches: a caller earlier in the process does not hide it
        for name, module in list(sys.modules.items()):
            if name.startswith("seqgeo"):
                for obj in vars(module).values():
                    if hasattr(obj, "cache_clear"):
                        obj.cache_clear()
        configs = Path(seqgeo.__file__).parent / "configs"
        with tempfile.TemporaryDirectory() as tmp:
            for name in CONFIGS:
                out = Path(tmp) / name
                text = (configs / f"{name}.conf").read_text()
                text = re.sub(r"(?m)^replications = .*$", f"replications = {REPLICATIONS}", text)
                text = re.sub(r"(?m)^outdir = .*$", f"outdir = {out}", text)
                conf = Path(tmp) / f"{name}.conf"
                conf.write_text(text)
                codes.append(f"simulate {name} {cli.main(['simulate', '--config', str(conf)])}")
                codes.append(f"report {name} {cli.main(['report', '--results', str(out)])}")
            for model, m, r in GEOMETRY_CASES:
                for mode in ([], ["--json"]):
                    code = cli.main(["geometry", "--model", model, "--m", str(m), "--r", str(r)] + mode)
                    codes.append(f"geometry {model} m={m} r={r}{' --json' if mode else ''} {code}")
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(f), line) for f, line in entered}, codes


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)

    src = Path(importlib.util.find_spec("seqgeo").origin).parent
    functions = src_functions(src)
    # the subcommands' own output is not the report
    with open(os.devnull, "w") as devnull:
        stdout, sys.stdout = sys.stdout, devnull
        try:
            entered, codes = run_subcommands()
        finally:
            sys.stdout = stdout

    unreached = {(path, first) for path, first, _, _, _ in functions} - entered
    listed = [f for f in functions if (f[0], f[1]) in unreached and f[4] not in unreached]
    total = 0
    for path, first, count, name, _ in listed:
        print(f"{Path(path).name}:{first}  {name}  {count} lines")
        total += count
    src_lines = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    print(f"total: {total} unreached lines in {len(listed)} functions, of {src_lines} src lines")
    print("exit codes: " + ", ".join(codes))
    unread = unread_names(src)
    for file, line, name, kind in unread:
        print(f"{file}:{line}  {name}  {kind}")
    print(f"unread: {len(unread)} fields, methods and module names that no src expression reads")
    params = unread_parameters(src, ROOT / "pyproject.toml")
    for file, line, name, kind in params:
        print(f"{file}:{line}  {name}  {kind}")
    print(f"unread: {len(params)} parameters that no src expression reads or, with a default, no src call passes")
    reads = private_reads(src)
    for file, line, name in reads:
        print(f"{file}:{line}  {name}  private")
    print(f"private: {len(reads)} reads of another src module's leading-underscore name")
    return 0


if __name__ == "__main__":
    sys.exit(main())
