"""Every name that ``src/`` defines has a caller in the program.

The program is ``src/``, ``tools/`` and ``perfbench/`` (but not
``perfbench/test_checks.py``, which is a test). For each top-level function
and class of ``src/histadapter/*.py``, and each of their methods that is not
a dunder, the scan looks for a use in the program: an ``ast.Name`` or
``ast.Attribute`` that reads the name, or an import alias of it. Names are
matched, not resolved, so any ``.forward`` counts for every ``forward``. A
use inside the definition itself does not count: a recursive call, or a
property's own ``@name.setter``. Neither does a string: ``__all__``
entries, docstrings and ``getattr(obj, "name")`` are not calls the parser
can see. The scan reads the syntax tree, so a name read inside an f-string
counts.

A name without a caller must sit in :data:`ALLOWED`, with the reason it
stays. An entry whose name gains a caller, or whose definition is gone,
fails too, so the list only holds what it has to.

Parameters get the same check: an option needs a second value in use. Each
defaulted parameter (positional or keyword-only) of a top-level function or
of a method of a top-level class must be set by some call in the program. A
call sets it when it passes the parameter by keyword, passes enough
positional arguments to reach it (``self`` not counted), or passes
``*args`` or ``**kwargs``. Callees are matched by name, ``__init__`` by its
class's name, and ``from ... import x as y`` makes ``y(...)`` a call of
``x``. A call inside the function's own body does not count. Dataclass
fields are not parameters here: config files set them by name. A parameter
no call sets must sit in :data:`ALLOWED_PARAMS`, with the same rules as
:data:`ALLOWED`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "histadapter"
PROGRAM = ("src", "tools", "perfbench")
NOT_PROGRAM = {ROOT / "perfbench" / "test_checks.py"}

# "module.name" or "module.Class.method": why it stays without a caller
ALLOWED = {
    "synth.highpass_variance_scores": "zero-parameter pixel baseline, shown in demo 07; "
                                      "ROADMAP item 8 gives it a program caller",
}

# "module.function(parameter)" or "module.Class.method(parameter)": why it stays unset
ALLOWED_PARAMS = {}


def _span(path: Path, node) -> tuple:
    """``(path, first line, last line)`` of a definition, its decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return path, first, node.end_lineno


def definitions(package: Path = PACKAGE) -> dict:
    """``{"module.name": [span, ...]}`` for each top-level function and class
    of ``package``, and each non-dunder method; a property's getter and
    setter are two spans of one name."""
    found = {}
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            found.setdefault(f"{module}.{node.name}", []).append(_span(path, node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        found.setdefault(f"{module}.{node.name}.{item.name}", []).append(
                            _span(path, item))
    return found


def program_files() -> list:
    return [p for top in PROGRAM for p in sorted((ROOT / top).rglob("*.py"))
            if p not in NOT_PROGRAM and "__pycache__" not in p.parts]


def uses(files) -> dict:
    """``{name: [(path, line), ...]}`` of every read of a name in ``files``."""
    found = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            found.setdefault(name, []).append((path, node.lineno))
    return found


def uncalled(package: Path = PACKAGE, files=None) -> list:
    """Qualified names of :func:`definitions` that no program file uses."""
    reads = uses(program_files() if files is None else files)
    missing = []
    for qualified, spans in definitions(package).items():
        name = qualified.rsplit(".", 1)[-1]
        outside = [(p, line) for p, line in reads.get(name, [])
                   if not any(p == path and first <= line <= last
                              for path, first, last in spans)]
        if not outside:
            missing.append(qualified)
    return missing


def _functions(tree):
    """``(qualified suffix, callee name, node, drops self)`` for each top-level
    function and each method of a top-level class that is ``__init__`` or not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    yield f"{node.name}.__init__", node.name, item, True
                elif not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item, True


def defaulted_parameters(package: Path = PACKAGE) -> dict:
    """``{"module.function(parameter)": (callee, position, keyword, span)}`` for
    each defaulted parameter of :func:`_functions`; ``position`` counts the
    positional arguments before it, ``None`` for a keyword-only parameter."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for suffix, callee, node, drops_self in _functions(
                ast.parse(path.read_text(), str(path))):
            args = node.args
            positional = args.posonlyargs + args.args
            if drops_self:
                positional = positional[1:]
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            for position, keyword in defaulted:
                found[f"{path.stem}.{suffix}({keyword})"] = (
                    callee, position, keyword, _span(path, node))
    return found


def calls(files) -> dict:
    """``{callee name: [(path, line, positional count, keywords, starred), ...]}``
    of every call in ``files``, with ``from ... import x as y`` aliases resolved."""
    found = {}
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        aliases = {a.asname: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = aliases.get(node.func.id, node.func.id)
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            found.setdefault(name, []).append(
                (path, node.lineno, len(node.args), {k.arg for k in node.keywords}, starred))
    return found


def unset_parameters(package: Path = PACKAGE, files=None) -> list:
    """Keys of :func:`defaulted_parameters` that no program call sets."""
    seen = calls(program_files() if files is None else files)
    missing = []
    for qualified, (callee, position, keyword, (path, first, last)) in \
            defaulted_parameters(package).items():
        if not any((starred or keyword in keywords
                    or (position is not None and n_positional > position))
                   and not (p == path and first <= line <= last)
                   for p, line, n_positional, keywords, starred in seen.get(callee, [])):
            missing.append(qualified)
    return missing


def test_every_src_name_has_a_program_caller_or_an_allowlist_reason():
    missing = set(uncalled())
    unlisted = sorted(missing - set(ALLOWED))
    assert not unlisted, (
        f"no caller in {', '.join(PROGRAM)} for {unlisted}: delete them, call them, "
        f"or add each to ALLOWED with its reason")


def test_allowlist_holds_only_names_without_a_caller():
    defined = set(definitions())
    gone = sorted(set(ALLOWED) - defined)
    assert not gone, f"ALLOWED names definitions that src/ no longer has: {gone}"
    called = sorted(set(ALLOWED) - set(uncalled()))
    assert not called, f"ALLOWED names that now have a program caller: {called}; remove them"


def test_allowlist_gives_a_reason_for_each_entry():
    assert all(isinstance(why, str) and why.strip() for why in ALLOWED.values())
    assert all(isinstance(why, str) and why.strip() for why in ALLOWED_PARAMS.values())


def test_every_defaulted_parameter_is_set_by_a_program_caller():
    missing = set(unset_parameters())
    unlisted = sorted(missing - set(ALLOWED_PARAMS))
    assert not unlisted, (
        f"no call in {', '.join(PROGRAM)} sets {unlisted}: make each a constant, "
        f"or add it to ALLOWED_PARAMS with its reason")


def test_parameter_allowlist_holds_only_unset_parameters():
    gone = sorted(set(ALLOWED_PARAMS) - set(defaulted_parameters()))
    assert not gone, f"ALLOWED_PARAMS names parameters that src/ no longer has: {gone}"
    now_set = sorted(set(ALLOWED_PARAMS) - set(unset_parameters()))
    assert not now_set, f"ALLOWED_PARAMS names parameters a program call now sets: {now_set}"


def test_scan_counts_fstring_reads_and_skips_strings_and_self_calls(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        '__all__ = ["in_all_only"]\n'
        "def in_all_only():\n"
        '    """read_in_fstring is named here, in a docstring."""\n'
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "class Report:\n"
        "    def read_in_fstring(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def never_read(self):\n"
        "        return self._v\n"
        "    @never_read.setter\n"
        "    def never_read(self, v):\n"
        "        self._v = v\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "def caller(r):\n"
        '    return f"{r.read_in_fstring()}"\n')
    (tmp_path / "user.py").write_text("from mod import caller, Report\n")
    files = [package / "mod.py", tmp_path / "user.py"]
    assert sorted(uncalled(package, files)) == [
        "mod.Report.never_read", "mod.in_all_only", "mod.recursive"]


def test_parameter_scan_resolves_aliases_and_skips_self_calls(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def scaled(x, factor=1.0, offset=0.0):\n"
        "    return x * factor + offset\n"
        "def countdown(n, step=1):\n"
        "    return countdown(n - step, step=step) if n > 0 else 0\n"
        "def forwarded(a, b=2, *, c=3):\n"
        "    return a + b + c\n"
        "def flagged(x, *, strict=False, quiet=True):\n"
        "    return x\n"
        "class Box:\n"
        "    def __init__(self, size, fill=0):\n"
        "        self.size = size\n"
        "    def grow(self, by=1):\n"
        "        return Box(self.size + by)\n")
    (tmp_path / "user.py").write_text(
        "from mod import Box, countdown, flagged, forwarded\n"
        "from mod import scaled as sc\n"
        "sc(2.0, 3.0)\n"
        "countdown(3)\n"
        "forwarded(*[1])\n"
        "forwarded(1, **{})\n"
        "flagged(1, quiet=False)\n"
        "Box(2, 7).grow()\n")
    files = [package / "mod.py", tmp_path / "user.py"]
    assert sorted(unset_parameters(package, files)) == [
        "mod.Box.grow(by)", "mod.countdown(step)", "mod.flagged(strict)", "mod.scaled(offset)"]
