"""tools/same_output.py: byte-identity of CLI output between two checkouts;
tools/make_expected.py: the packaged pins and the verdicts it names as changed;
and the package names the traced benchmark wraps."""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_OUTPUT = ROOT / "tools" / "same_output.py"
MAKE_EXPECTED = ROOT / "tools" / "make_expected.py"
DATA = ROOT / "src" / "degbound" / "data"


def same_output(parent):
    return subprocess.run([sys.executable, str(SAME_OUTPUT), str(parent)],
                          capture_output=True, text=True, timeout=900)


def test_same_output_against_itself():
    proc = same_output(ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "same output on all 27 commands"


def test_same_output_reports_every_command(tmp_path):
    """Two stub checkouts whose CLIs print their subcommand, the parent's
    differently for ``verify``: every command is still run and named."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, suffix in ((parent, ' + "!" * (sys.argv[1] == "verify")'), (change, "")):
        (root / "src" / "degbound").mkdir(parents=True)
        (root / "src" / "degbound" / "cli.py").write_text(
            f"import sys\nprint(sys.argv[1]{suffix})\n")
    for name in ("tools/same_output.py", "perfbench/population.py"):
        (change / name).parent.mkdir(exist_ok=True)
        shutil.copy(ROOT / name, change / name)
    proc = subprocess.run([sys.executable, str(change / "tools" / "same_output.py"),
                           str(parent)], capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert lines[-1] == "different output on 3 of 27 commands"
    named = [line for line in lines[:-1] if line.startswith(("same `", "DIFFERENT `"))]
    assert len(named) == len(lines) - 1 == 27
    different = [line for line in named if line.startswith("DIFFERENT")]
    assert [line.split("`")[1].split()[0] for line in different] == ["verify"] * 3
    assert all(line.endswith(": stdout: line 1: b'verify!' != b'verify'")
               for line in different)


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
    renaming a layer entry point cannot silently break a traced benchmark run."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    for module, attr, _ in tracing.PATCHES:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
