#!/usr/bin/env python3
"""Regenerate the benchmark's pinned expectations under perfbench/expected/.

    python3 perfbench/pin.py

Audits the default-seed (seed 0) population of each file workload and
records the verdict per bound, in the format ``degbound verify --expected``
reads, and records the proof-grid verdicts of ``proofs --n 62``.  Every
verdict that differs from the file it replaces is printed: a changed verdict
is a finding to explain, not a fixture to refresh quietly.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from degbound.cli import main as degbound  # noqa: E402
from degbound.ratios import proofs_report  # noqa: E402
from population import write_population  # noqa: E402

SEED = 0


def write(path: Path, doc: dict) -> None:
    def by_key(verdicts):
        return verdicts if isinstance(verdicts, dict) else dict(enumerate(verdicts))

    if path.is_file():
        old = by_key(json.loads(path.read_text())["verdicts"])
        new = by_key(doc["verdicts"])
        for key in sorted(old.keys() | new.keys(), key=str):
            if old.get(key) != new.get(key):
                print(f"CHANGED {path.name} {key}: {old.get(key)} -> {new.get(key)}")
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")


def main() -> None:
    (HERE / "expected").mkdir(exist_ok=True)
    (HERE / "out").mkdir(exist_ok=True)
    for name, kind in (("audit-distinct", "distinct"), ("audit-repeats", "repeats")):
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            pop = Path(tmp) / "population.g6"
            meta = write_population(pop, kind, SEED)
            with contextlib.redirect_stdout(io.StringIO()):
                code = degbound(["audit", "--file", str(pop), "--out", tmp])
            if code != 0:
                raise SystemExit(f"degbound audit exited {code}")
            summary = json.loads((Path(tmp) / "summary.json").read_text())
        write(HERE / "expected" / f"{name}.json", {
            "schema_version": 1,
            "population": meta,
            "tolerance": summary["tolerance"],
            "verdicts": summary["verdicts"],
        })
    write(HERE / "expected" / "proofs-n62.json", {
        "n": 62,
        "verdicts": [c["verdict"] for c in proofs_report(62)],
    })


if __name__ == "__main__":
    main()
