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
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "histadapter"
PROGRAM = ("src", "tools", "perfbench")
NOT_PROGRAM = {ROOT / "perfbench" / "test_checks.py"}

# "module.name" or "module.Class.method": why it stays without a caller
ALLOWED = {
    "metrics.tpr_at_fpr": "public metric, shown in demo 06; evaluate_scores "
                          "reads the curve it already built through _curve_tpr_at_fpr",
    "synth.highpass_variance_scores": "zero-parameter pixel baseline, shown in demo 07; "
                                      "ROADMAP item 8 gives it a program caller",
}


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
