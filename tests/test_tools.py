"""tools/same_output.py: byte-identity of CLI output between two checkouts
and against pinned digests;
tools/make_expected.py: the packaged pins and the verdicts it names as changed;
the package names the traced benchmark wraps; no unused package import; and
the closed forms' independence from the package."""

import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_OUTPUT = ROOT / "tools" / "same_output.py"
# Stub CLIs: one prints its subcommand, the other marks "verify" with a "!".
SUBCOMMAND = "import sys\nprint(sys.argv[1])\n"
VERIFY_CHANGED = 'import sys\nprint(sys.argv[1] + "!" * (sys.argv[1] == "verify"))\n'
MAKE_EXPECTED = ROOT / "tools" / "make_expected.py"
DATA = ROOT / "src" / "degbound" / "data"


def same_output(arg, tool=SAME_OUTPUT):
    return subprocess.run([sys.executable, str(tool), str(arg)],
                          capture_output=True, text=True, timeout=900)


def test_same_output_matches_the_pins():
    """Each command, run once, gives the output pinned by digest.  No pinned
    command names an absolute path, so the pins hold in any checkout."""
    pins = json.loads((ROOT / "tools" / "same_output_pins.json").read_text(encoding="utf-8"))
    assert [cmd for cmd in pins["commands"]
            if any(Path(arg).is_absolute() for arg in cmd.split())] == []
    proc = same_output("--pinned")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "same output on all 34 commands"


def _stub_checkout(root, cli_source):
    """A checkout whose CLI is ``cli_source``, with the tool and the
    population generator it imports."""
    (root / "src" / "degbound").mkdir(parents=True, exist_ok=True)
    (root / "src" / "degbound" / "cli.py").write_text(cli_source)
    for name in ("tools/same_output.py", "perfbench/population.py"):
        (root / name).parent.mkdir(exist_ok=True)
        shutil.copy(ROOT / name, root / name)


def test_same_output_reports_every_command(tmp_path):
    """Two stub checkouts whose CLIs print their subcommand, the parent's
    differently for ``verify``: every command is still run and named."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    _stub_checkout(parent, VERIFY_CHANGED)
    _stub_checkout(change, SUBCOMMAND)
    proc = same_output(parent, change / "tools" / "same_output.py")
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert lines[-1] == "different output on 3 of 34 commands"
    named = [line for line in lines[:-1] if line.startswith(("same `", "DIFFERENT `"))]
    assert len(named) == len(lines) - 1 == 34
    different = [line for line in named if line.startswith("DIFFERENT")]
    assert [line.split("`")[1].split()[0] for line in different] == ["verify"] * 3
    assert all(line.endswith(": stdout: line 1: b'verify!' != b'verify'")
               for line in different)


def test_same_output_pins_catch_drift(tmp_path):
    """Pins recorded on a stub checkout name each command whose output
    drifts from them afterwards, and only those."""
    _stub_checkout(tmp_path, SUBCOMMAND)
    tool = tmp_path / "tools" / "same_output.py"
    assert same_output("--pin", tool).stdout.splitlines()[-1] == "pinned 34 commands"
    (tmp_path / "src" / "degbound" / "cli.py").write_text(VERIFY_CHANGED)
    proc = same_output("--pinned", tool)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert lines[-1] == "different output on 3 of 34 commands"
    different = [line for line in lines if line.startswith("DIFFERENT")]
    assert [line.split("`")[1].split()[0] for line in different] == ["verify"] * 3
    assert all(": stdout: sha256 " in line for line in different)


def test_same_output_needs_a_package(tmp_path):
    proc = same_output(tmp_path)
    assert proc.returncode == 2
    assert "no degbound package" in proc.stderr


def test_make_expected_names_each_changed_verdict(tmp_path, monkeypatch, capsys):
    """Regenerating the pins over a copy with one altered verdict names that
    verdict alone and rewrites every file as packaged."""
    spec = importlib.util.spec_from_file_location("make_expected", MAKE_EXPECTED)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for path in DATA.glob("expected_enumerate_n*.json"):
        shutil.copy(path, tmp_path / path.name)
    altered = tmp_path / "expected_enumerate_n6.json"
    doc = json.loads(altered.read_text())
    doc["verdicts"]["T6L"] = "violated"
    altered.write_text(json.dumps(doc, indent=2) + "\n")
    monkeypatch.setattr(tool, "DATA", tmp_path)
    tool.main()
    changed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("CHANGED")]
    assert changed == ["CHANGED expected_enumerate_n6.json T6L: "
                       "violated -> holds_not_sharp_in_population"]
    rewritten = sorted(p.name for p in tmp_path.iterdir())
    assert rewritten == sorted(p.name for p in DATA.glob("expected_enumerate_n*.json"))
    for name in rewritten:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_tracing_patches_resolve(monkeypatch):
    """Every (module, attribute) that perfbench/tracing.py wraps exists, so
    renaming a layer entry point cannot silently break a traced benchmark run.
    Nor can deleting what perfbench reads outside ``PATCHES``: traced runs
    time ``enumeration.canonical_form``, and perfbench/child.py records
    ``sys.modules["numpy"]`` after ``import degbound.cli`` on every run, which
    only a fresh interpreter can show."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    for module, attr, _ in tracing.PATCHES:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    assert hasattr(importlib.import_module("degbound.enumeration"), "canonical_form")
    proc = subprocess.run([sys.executable, "-c", "import sys, degbound.cli; print('numpy' in sys.modules)"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.stdout == "True\n", proc.stderr


def _unused_imports(name: str, source: str) -> list[str]:
    """The names module ``name`` imports and never reads, and each ``# noqa``
    import line that imports more than one name.  ``__future__`` imports are
    exempt, and so is the one name of a line marked ``# noqa``."""
    import ast

    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            if len(node.names) != 1:
                unused.append(f"{name}:{node.lineno}: # noqa on {len(node.names)} names")
            continue
        for alias in node.names:
            imported = alias.asname or alias.name.split(".")[0]
            if imported not in used:
                unused.append(f"{name}:{node.lineno}: {imported}")
    return unused


def test_package_imports_are_used():
    """Every name a package module imports is read somewhere in that module,
    so a deletion cannot leave its imports behind.  A line marked ``# noqa``
    may import one unread name, and only one, so it hides no neighbour."""
    unused = []
    for path in sorted((ROOT / "src" / "degbound").glob("*.py")):
        if path.name != "__init__.py":
            unused += _unused_imports(path.name, path.read_text())
    assert unused == []
    assert _unused_imports("m", "import numpy  # noqa: F401\n") == []
    assert _unused_imports("m", "from .indices import all_indices  # noqa: F401\n") == []
    assert _unused_imports("m", "from .a import b, c  # noqa: F401\nc\n") == [
        "m:1: # noqa on 2 names"]
    assert _unused_imports("m", "from .a import (  # noqa\n    b,\n    c,\n)\n") == [
        "m:1: # noqa on 2 names"]
    assert _unused_imports("m", "import os, sys\nos\n") == ["m:1: sys"]


def test_formulas_imports_only_the_standard_library():
    """The closed forms cross-check the per-edge sums, so ``formulas`` may
    import ``__future__`` and the standard library, never the package."""
    import ast

    tree = ast.parse((ROOT / "src" / "degbound" / "formulas.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert [name for name in imported
            if name.split(".")[0] not in sys.stdlib_module_names] == [], imported
