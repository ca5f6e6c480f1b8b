#!/usr/bin/env python3
"""Run the tier-1 test suite and check that exactly the by-design failures fail.

Run from anywhere:

    python3 tools/tier1.py

It runs ``python -m pytest -q --continue-on-collection-errors -rfEs
--durations=5`` at the root of the checkout with ``src`` prepended to
PYTHONPATH: the tier-1 command of ROADMAP.md, plus ``-rfEs`` so every
failure, error and skip is listed, and ``--durations=5`` so every run prints
its five slowest tests.  pyproject.toml's ``testpaths`` collects ``tests/`` and
``perfbench/``, so the benchmark's smoke test (``perfbench/test_smoke.py``,
every workload once at a tiny size) runs too.
Five acceptance cases pin published equality claims that are wrong, so they
must fail: criterion 2 for C3, C7-(12), T7-(19)L, T7-(19)U and C9-(24).  Nothing
is deselected, and the only skips allowed are the order-9 oracles in
``tests/test_enumeration.py``, which run only when DEGBOUND_TEST_ORDER_9 is
set; any other skip (say, a missing networkx or hypothesis turning an oracle
into an ``importorskip``) counts as a failure.  The exit code is 0 when the
failing set is exactly those five and nothing else is skipped, and 1
otherwise, after naming what failed unexpectedly, which by-design case
passed and which skip was unexpected.  The last line it prints is
``src/degbound: N lines``, the ``wc -l`` total of ``src/degbound/*.py``, so
each change can state its net line change of ``src/`` the same way.  The
line before it, ``src/degbound: N code lines (bounds B, cli C, ...)``, counts
only the lines that are not blank, not comment-only and not inside a
docstring, in total and then per module in name order, so a stated change
shows whether it is code or prose, and two runs give each module's net.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BY_DESIGN = frozenset(
    f"tests/test_acceptance.py::test_criterion_2_equality_witness_exactness[{bid}]"
    for bid in ("C3", "C7-(12)", "T7-(19)L", "T7-(19)U", "C9-(24)")
)

# "FAILED <id> - <message>" or "ERROR <id> - <message>" in the short summary
SUMMARY_LINE = re.compile(r"^(?:FAILED|ERROR) (\S+)")
# The one skip reason allowed, named in every order-9 oracle's skip message
ORDER_9_OPT_IN = "DEGBOUND_TEST_ORDER_9"


def source_lines() -> int:
    """The ``wc -l`` total of the package's modules: their newline count."""
    return sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "degbound").glob("*.py"))


def code_lines() -> dict[str, int]:
    """Per module of the package, by name in sorted order, its lines that are
    not blank, not comment-only and not inside a module, class or function
    docstring."""
    counts = {}
    for path in sorted((ROOT / "src" / "degbound").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        counts[path.stem] = sum(1 for i, line in enumerate(text.splitlines(), 1)
                                if line.strip() and not line.lstrip().startswith("#")
                                and i not in docstrings)
    return counts


def main() -> int:
    code = run()
    sys.stdout.flush()
    counts = code_lines()
    modules = ", ".join(f"{name} {n}" for name, n in counts.items())
    print(f"src/degbound: {sum(counts.values())} code lines ({modules})", file=sys.stderr)
    print(f"src/degbound: {source_lines()} lines", file=sys.stderr)
    return code


def run() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-rfEs", "--durations=5"]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    failing = set()
    skips = []
    for line in proc.stdout:
        sys.stdout.write(line)
        match = SUMMARY_LINE.match(line)
        if match:
            failing.add(match.group(1))
        elif line.startswith("SKIPPED") and ORDER_9_OPT_IN not in line:
            skips.append(line.rstrip())
    code = proc.wait()
    if code not in (0, 1):  # interrupted, internal error, usage error, no tests
        print(f"tier1: pytest exited {code}", file=sys.stderr)
        return 1
    unexpected = sorted(failing - BY_DESIGN)
    passed_by_design = sorted(BY_DESIGN - failing)
    for test_id in unexpected:
        print(f"tier1: unexpected failure {test_id}", file=sys.stderr)
    for test_id in passed_by_design:
        print(f"tier1: by-design failure now passes {test_id}", file=sys.stderr)
    for line in skips:
        print(f"tier1: unexpected skip {line}", file=sys.stderr)
    if unexpected or passed_by_design or skips:
        return 1
    print(f"tier1: ok, exactly the {len(BY_DESIGN)} by-design failures", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
