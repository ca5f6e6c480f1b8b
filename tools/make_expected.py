#!/usr/bin/env python3
"""Regenerate the packaged pinned-verdict fixtures.

    python3 tools/make_expected.py

Runs the full catalog audit over each plain enumerated population, of every
order the enumeration runs (2 up to ``enumeration.MAX_ORDER``), and freezes
the resulting verdict per bound in
``src/degbound/data/expected_enumerate_n<N>.json``.  The fixtures record what
the audit discovers, which for a handful of entries differs from the
published equality claims; ``degbound verify --enumerate N`` compares future
runs against these.  Before a file is replaced, every verdict that differs
from it is printed as ``CHANGED <file> <bound>: <old> -> <new>`` (a bound
added or removed counts): a changed verdict is a finding to explain, not a
fixture to refresh quietly.  Order 8 takes about 5 s of the run.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from degbound.bounds import DEFAULT_TOL, audit_all, builtin_catalog
from degbound.enumeration import MAX_ORDER, EnumerationSpec, enumerate_connected

DATA = Path(__file__).resolve().parents[1] / "src" / "degbound" / "data"


def write(path: Path, doc: dict) -> None:
    if path.is_file():
        old = json.loads(path.read_text())["verdicts"]
        new = doc["verdicts"]
        for bid in sorted(old.keys() | new.keys()):
            if old.get(bid) != new.get(bid):
                print(f"CHANGED {path.name} {bid}: {old.get(bid)} -> {new.get(bid)}")
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    for n in range(2, MAX_ORDER + 1):
        spec = EnumerationSpec(n)
        graphs = enumerate_connected(spec)
        reports = audit_all(builtin_catalog(), graphs, tol=DEFAULT_TOL,
                            population=spec.describe())
        path = DATA / f"expected_enumerate_n{n}.json"
        write(path, {
            "schema_version": 1,
            "population": spec.describe(),
            "tolerance": DEFAULT_TOL,
            "verdicts": {b.bound_id: reports[b.bound_id].verdict
                         for b in builtin_catalog()},
        })
        print(f"wrote {path} ({len(graphs)} graphs)")


if __name__ == "__main__":
    main()
