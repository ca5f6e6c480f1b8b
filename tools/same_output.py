#!/usr/bin/env python3
"""Check that this checkout's CLI output is byte-identical to another's, or
to the digests pinned in ``tools/same_output_pins.json``.

    python3 tools/same_output.py PARENT_DIR
    python3 tools/same_output.py --pinned
    python3 tools/same_output.py --pin

PARENT_DIR is the root of another checkout (say, a ``git archive`` of the
parent commit).  Each command below runs twice, at the same time, as
``python -m degbound.cli`` in a fresh subprocess: once with
``PYTHONPATH=PARENT_DIR/src`` and once with this checkout's ``src``.  The two
runs must agree byte for byte on exit code, stdout, stderr and every file
written under ``--out``.  ``--pinned`` runs each command once, with this
checkout's ``src``, and compares the sha256 of each of those outputs with
the pins, so it also catches drift from the pinned output, not only
nondeterminism; ``--pin`` runs them once and rewrites the pins, which name
the Python they were made with (float text can depend on its ``pow``).  The
temporary directory's path is replaced by ``TMP`` in everything hashed and
in the command text that names each command, where the checkout's root is
replaced by ``ROOT`` too, so the pins hold no absolute path and match in any
checkout.

The file populations are the seed-0 ``audit-distinct`` and ``audit-repeats``
benchmark populations, written once to a temporary directory by
``perfbench/population.py`` and shared by both sides, plus two fixed
``compute --file`` inputs written there too, as UTF-8: a graph6 file of
mixed graphs (see ``MIXED``) that opens with a UTF-8 byte-order mark and
then a comment line outside ASCII (``MIXED_HEADER``), and the Petersen graph
as an edge list.  Two graphs of the mixed file, a crown
graph and the Groetzsch graph, take chi past its clique and first-fit
bracket: one to a colouring search that succeeds, one to the first-fit count.
Both sides run in the caller's locale.
Two audits filtered by ``--min-degree 2 --molecular``, one enumerated and one
over ``audit-distinct``, guard the population filter both sources share.
``audit --enumerate 8`` without ``--allow-n8`` and ``--enumerate 9`` with it
guard the order gate's two usage errors, an audit of the mixed file
guards chi on disconnected graphs, and the same audit with ``--min-degree 5``
admits none of its graphs, so every bound reports over no keys at all.
``compute`` and ``audit`` of ``corner.g6``, K1 (``@``) and the edgeless
graph of order 3 (``B?``), reach the only records whose edge-degree
partition is empty, which the mixed file, with no edgeless graph, does not.
An audit with ``--bounds C4,C6,T7-(21)U`` covers a chain without its links, a chi bound and a violated bound.
``compute --family`` of ``double_star`` and of ``delta_regular_witness:3``
(K_{3,3}) builds the two family graphs no other command builds.
``families``, ``proofs`` and ``compute``
each render in two formats or more, so each of the table, csv and json
renderers sees the rows of several commands; ``proofs --n 7`` also reaches
the ``out_of_range`` verdict.  ``compute --g6`` of a seeded order-62 graph
decodes the longest graph6 body the short form has.  The last command
audits, with ``--out``, a file whose line 101, after 100 graphs, is
malformed (``late-error.g6``): the run must fail as a whole, with the true
line number, nothing on stdout and no report file.
Every ``DEGBOUND_*`` variable is removed from the environment.

Every command runs, whatever came before it: each prints one ``same`` line,
or one ``DIFFERENT`` line per output that differs, so an intended change in
one command hides no other.  The last line is ``same output on all N
commands`` (exit 0) or ``different output on K of N commands`` (exit 1);
``--pin`` prints ``pinned N commands``.  Exits 2 when PARENT_DIR holds no
degbound package.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PINS = Path(__file__).resolve().parent / "same_output_pins.json"
OUT = "{out}"  # replaced by a fresh directory per side and command
TIMEOUT_S = 900

# The first line of the compute --file graph6 input: a comment outside ASCII.
MIXED_HEADER = ("# mixed graphs: disconnected, the wheel of order 13, K₃,₃, K₁,₄, T*, S₁,₈,"
                " a crown, Grötzsch\n")
# (order, edges as u < v) of the compute --file graph6 input: disconnected graphs
# (two triangles, K_2 + K_1, P_3 + K_2), the order-13 wheel (above the
# chromatic cap), K_{3,3}, K_{1,4}, T*, S_{1,8}, and two graphs whose chi lies
# strictly between a greedy clique and a first-fit colouring: the order-10
# crown graph (chi 2, first-fit 5) and the order-11 Groetzsch graph (chi 4,
# clique number 2).  No edgeless graph.
MIXED = [
    (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
    (3, [(0, 1)]),
    (5, [(0, 1), (1, 2), (3, 4)]),
    (13, [(0, v) for v in range(1, 13)] + [(v, v + 1) for v in range(1, 12)] + [(1, 12)]),
    (6, [(u, v) for u in range(3) for v in range(3, 6)]),
    (5, [(0, v) for v in range(1, 5)]),
    (8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]),
    (9, [(0, v) for v in range(1, 9)]),
    (10, [(min(2 * i, 2 * j + 1), max(2 * i, 2 * j + 1))
          for i in range(5) for j in range(5) if i != j]),
    (11, [(i, i + 1) for i in range(4)] + [(0, 4)]
     + [((i + s) % 5, 5 + i) for i in range(5) for s in (1, 4)]
     + [(5 + i, 10) for i in range(5)]),
]
PETERSEN = [(v, (v + 1) % 5) for v in range(5)] + [(v, v + 5) for v in range(5)] \
    + [(5 + v, 5 + (v + 2) % 5) for v in range(5)]


def commands(populations: Path) -> list[list[str]]:
    """The byte-identity list; writes the two file populations first."""
    sys.dont_write_bytecode = True  # import the generator, leave perfbench/ as it is
    sys.path.insert(0, str(PERFBENCH))
    from population import graph6, write_population

    cmds = [["verify", "--enumerate", "7", "--out", OUT]]
    cmds += [["audit", "--enumerate", str(n), "--format", "json"] for n in range(2, 8)]
    for kind in ("distinct", "repeats"):
        path = populations / f"audit-{kind}.g6"
        write_population(path, kind, 0)
        expected = PERFBENCH / "expected" / f"audit-{kind}.json"
        cmds += [["verify", "--file", str(path), "--expected", str(expected)],
                 ["audit", "--file", str(path), "--format", "json", "--out", OUT]]
    cmds += [["audit", "--enumerate", "6", "--min-degree", "2", "--molecular", "--format", "json"],
             ["audit", "--enumerate", "6", "--bounds", "C4,C6,T7-(21)U", "--format", "json"],
             ["audit", "--file", str(populations / "audit-distinct.g6"), "--min-degree", "2",
              "--molecular", "--format", "csv"]]
    cmds += [["families", "--max-n", "200", "--format", "csv"],
             ["families", "--max-n", "20"],
             ["proofs", "--n", "62", "--format", "json"],
             ["proofs", "--n", "10", "--format", "csv"],
             ["proofs", "--n", "7"]]
    mixed, petersen = populations / "mixed.g6", populations / "petersen.edges"
    # utf-8-sig writes the byte-order mark ahead of MIXED_HEADER.
    mixed.write_text(MIXED_HEADER + "".join(graph6(n, edges) + "\n" for n, edges in MIXED),
                     encoding="utf-8-sig")
    petersen.write_text("10\n" + "".join(f"{u} {v}\n" for u, v in PETERSEN),
                        encoding="utf-8")
    cmds += [["compute", "--family", "complete:200", "--format", "json"],
             ["compute", "--family", "double_star", "--format", "json"],
             ["compute", "--family", "delta_regular_witness:3", "--format", "csv"],
             ["compute", "--file", str(mixed), "--format", "json"],
             ["compute", "--file", str(mixed), "--format", "csv"],
             ["compute", "--file", str(petersen), "--format", "json"],
             ["compute", "--file", str(petersen)],
             ["audit", "--enumerate", "8"],
             ["audit", "--enumerate", "9", "--allow-n8"],
             ["audit", "--file", str(mixed), "--format", "json"],
             ["audit", "--file", str(mixed), "--min-degree", "5", "--format", "json"]]
    # K1 and the edgeless graph of order 3: records whose pair counts are empty.
    corner = populations / "corner.g6"
    corner.write_text("@\nB?\n", encoding="utf-8")
    cmds += [["compute", "--file", str(corner), "--format", "json"],
             ["audit", "--file", str(corner), "--format", "json"]]
    # A seeded random graph of order 62 reads every position of a graph6 body.
    rng = random.Random(62)
    order_62 = graph6(62, [(u, v) for v in range(62) for u in range(v) if rng.random() < 0.5])
    cmds.append(["compute", "--g6", order_62, "--format", "json"])
    # The first 100 audit-distinct graphs, then a malformed line and a good one.
    late = populations / "late-error.g6"
    head = (populations / "audit-distinct.g6").read_text(encoding="utf-8").splitlines()
    graphs = [line for line in head if line and not line.startswith("#")][:100]
    late.write_text("\n".join(graphs) + "\nG~~~\nBw\n", encoding="utf-8")
    cmds.append(["audit", "--file", str(late), "--out", OUT])
    return cmds


def outputs(proc: subprocess.Popen, out: Path) -> list[tuple[str, bytes]]:
    """(name, bytes) of everything one run produced, in a fixed order."""
    stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
    found = [("exit code", str(proc.returncode).encode()),
             ("stdout", stdout), ("stderr", stderr)]
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    found.append(("--out file list", "\n".join(str(p.relative_to(out)) for p in files).encode()))
    found += [(f"--out file {p.relative_to(out)}", p.read_bytes()) for p in files]
    return found


def first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {i}: {x[:160]!r} != {y[:160]!r}"
    return f"{len(lines_a)} lines != {len(lines_b)} lines"


def digests(found: list[tuple[str, bytes]], tmp: Path) -> list[tuple[str, str]]:
    """(name, sha256) of each output, with the temporary directory as TMP."""
    return [(name, hashlib.sha256(data.replace(str(tmp).encode(), b"TMP")).hexdigest())
            for name, data in found]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    mode = argv[0] if argv[0] in ("--pin", "--pinned") else "parent"
    sides = [("change", ROOT / "src")]
    if mode == "parent":
        parent_src = Path(argv[0]).resolve() / "src"
        if not (parent_src / "degbound" / "cli.py").is_file():
            print(f"error: no degbound package under {parent_src}", file=sys.stderr)
            return 2
        sides.insert(0, ("parent", parent_src))
    pins = json.loads(PINS.read_text(encoding="utf-8")) if mode == "--pinned" else {}
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEGBOUND_")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    differing, pinned = 0, {}
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        tmp = Path(tmp)
        cmds = commands(tmp)
        for i, cmd in enumerate(cmds):
            runs = []
            for side, src in sides:
                out = tmp / f"{side}-{i}"
                argv_side = [str(out) if a == OUT else a for a in cmd]
                proc = subprocess.Popen(
                    [sys.executable, "-m", "degbound.cli", *argv_side], cwd=tmp,
                    env={**env, "PYTHONPATH": str(src)},
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                runs.append((proc, out))
            try:
                found = [outputs(proc, out) for proc, out in runs]
            finally:
                for proc, _ in runs:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
            shown = " ".join("DIR" if a == OUT else
                             a.replace(str(tmp), "TMP").replace(str(ROOT), "ROOT") for a in cmd)
            if mode == "--pin":
                pinned[shown] = dict(digests(found[0], tmp))
                continue
            if mode == "parent":
                # A file written by one side only shows up in the --out file list.
                parent, change = found[0], dict(found[1])
                diffs = [(name, first_difference(want, change[name])) for name, want in parent
                         if name in change and want != change[name]]
            else:
                want, got = pins["commands"].get(shown, {}), dict(digests(found[0], tmp))
                diffs = [(name, f"sha256 {got.get(name, 'none')[:12]}, "
                                f"pinned {want.get(name, 'none')[:12]}")
                         for name in sorted(want.keys() | got.keys())
                         if want.get(name) != got.get(name)]
            for name, why in diffs:
                print(f"DIFFERENT `{shown}`: {name}: {why}")
            if not diffs:
                print(f"same `{shown}`")
            differing += bool(diffs)
    if mode == "--pin":
        PINS.write_text(json.dumps({"python": platform.python_version(), "commands": pinned},
                                   indent=1) + "\n", encoding="utf-8")
        print(f"pinned {len(cmds)} commands")
        return 0
    if differing:
        if mode == "--pinned" and pins["python"] != platform.python_version():
            print(f"the pins were made with Python {pins['python']}")
        print(f"different output on {differing} of {len(cmds)} commands")
        return 1
    print(f"same output on all {len(cmds)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
