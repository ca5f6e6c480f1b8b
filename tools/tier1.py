#!/usr/bin/env python3
"""Run the tier-1 test suite and check that exactly the by-design failures fail.

Run from anywhere:

    python3 tools/tier1.py

It runs ``python -m pytest -q --continue-on-collection-errors -rfE
--durations=5`` at the root of the checkout with ``src`` prepended to
PYTHONPATH: the tier-1 command of ROADMAP.md, plus ``-rfE`` so every failure
and error is listed by id, and ``--durations=5`` so every run prints its five
slowest tests.  pyproject.toml's ``testpaths`` collects ``tests/`` and
``perfbench/``, so the benchmark's smoke test (``perfbench/test_smoke.py``,
every workload once at a tiny size) runs too.
Five acceptance cases pin published equality claims that are wrong, so they
must fail: criterion 2 for C3, C7-(12), T7-(19)L, T7-(19)U and C9-(24).  The
exit code is 0 when the failing set is exactly those five, and 1 otherwise,
after naming what failed unexpectedly and which by-design case passed.
Nothing is deselected; the one skip is the order-9 oracle in
``tests/test_enumeration.py``, which runs only when DEGBOUND_TEST_ORDER_9 is set.
"""

from __future__ import annotations

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


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-rfE", "--durations=5"]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    failing = set()
    for line in proc.stdout:
        sys.stdout.write(line)
        match = SUMMARY_LINE.match(line)
        if match:
            failing.add(match.group(1))
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
    if unexpected or passed_by_design:
        return 1
    print(f"tier1: ok, exactly the {len(BY_DESIGN)} by-design failures", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
