#!/usr/bin/env python3
"""Regenerate the packaged pinned-verdict fixtures.

Runs the full catalog audit over each plain enumerated population, of orders
2 up to the CLI's default order cap, and freezes the resulting verdict per
bound.  The fixtures record what the audit discovers, which for a handful of
entries differs from the published equality claims; `degbound verify`
compares future runs against these.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from degbound.bounds import DEFAULT_TOL, audit_all, builtin_catalog
from degbound.cli import DEFAULT_ORDER_CAP
from degbound.enumeration import EnumerationSpec, enumerate_connected

DATA = Path(__file__).resolve().parents[1] / "src" / "degbound" / "data"


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    for n in range(2, DEFAULT_ORDER_CAP + 1):
        spec = EnumerationSpec(n)
        graphs = enumerate_connected(spec)
        reports = audit_all(builtin_catalog(), graphs, tol=DEFAULT_TOL,
                            population=spec.describe())
        doc = {
            "schema_version": 1,
            "population": spec.describe(),
            "tolerance": DEFAULT_TOL,
            "verdicts": {b.bound_id: reports[b.bound_id].verdict
                         for b in builtin_catalog()},
        }
        path = DATA / f"expected_enumerate_n{n}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path} ({len(graphs)} graphs)")


if __name__ == "__main__":
    main()
