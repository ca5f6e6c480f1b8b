"""tools/same_output.py: byte-identity of CLI output between two checkouts;
and the package names the traced benchmark wraps."""

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_OUTPUT = ROOT / "tools" / "same_output.py"


def same_output(parent):
    return subprocess.run([sys.executable, str(SAME_OUTPUT), str(parent)],
                          capture_output=True, text=True, timeout=900)


def test_same_output_against_itself():
    proc = same_output(ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "same output on all 27 commands"


def test_same_output_names_the_first_difference(tmp_path):
    shutil.copytree(ROOT / "src" / "degbound", tmp_path / "src" / "degbound",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "degbound" / "cli.py"
    cli.write_text(cli.read_text().replace('f"verify: {len(order)}', 'f"verify! {len(order)}'))
    proc = same_output(tmp_path)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith(
        "DIFFERENT `verify --enumerate 7 --out DIR`: stderr: line 1: b'verify! ")


def test_same_output_needs_a_package(tmp_path):
    proc = same_output(tmp_path)
    assert proc.returncode == 2
    assert "no degbound package" in proc.stderr


def test_tracing_patches_resolve(monkeypatch):
    """Every (module, attribute) that perfbench/tracing.py wraps exists, so
    renaming a layer entry point cannot silently break a traced benchmark run."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    for module, attr, _ in tracing.PATCHES:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
