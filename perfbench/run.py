#!/usr/bin/env python3
"""Benchmark for the degbound CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each timed execution is a fresh ``python3 perfbench/child.py`` process with
every ``DEGBOUND_*`` variable removed from its environment and ``src/`` on
its path.  It imports ``degbound.cli``, builds the catalog, then calls
``degbound.cli.main(argv)`` for each command of the workload.  Executions run
one after another, with jobs = 1, until ``--seconds`` have passed; the
figures are medians over them.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with provenance and every execution, goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.

Workloads (the program sees only the generated graph6 file):

  exhaustive-n7   verify --enumerate 7: the paper's headline run, about 95%
                  enumeration (canonical-form dedup of the edge-subset masks).
  audit-distinct  verify --file: about 5,000 seeded random connected graphs of
                  order 8-12; almost no two share an edge-degree partition.
                  Bypasses enumeration; time goes to graph6 parsing, the
                  chromatic number, the indices, the 55 bounds and reports.
  audit-repeats   as audit-distinct, but 500 base graphs each present 10 times
                  under random relabelings, so partitions are shared ten-fold.
                  A partition-keyed or isomorphism-aware audit should speed
                  this up and leave audit-distinct unchanged.
  closed-forms    families --max-n 200, then proofs --n 62: the only run on
                  large graphs (K_200) and through formulas and ratios.

End-to-end metrics (--trace 0): wall_s (the main() calls), graphs_per_s
(population size, or family rows tabulated, per second of wall_s), setup_s
(interpreter start, import and catalog build) and peak_rss_mb (ru_maxrss of
the child).  Times are scaled to a reference host speed measured inside each
child (see child.py); the raw times are in the record.  Failed executions
are counted in ``failed`` out of ``attempted``.

Per-layer metrics (--trace 1) come from traced executions, alternated with
untraced ones: spans around the calls into each layer (see tracing.py).
Predicted effects of a faster layer:

  enumeration.enumerate_s, .classes (853), .canonical_form_us
                                   -> exhaustive-n7 wall_s
  enumeration.read_population_s    -> audit-* wall_s
  graphs.chromatic_number_s, graphs.chromatic_calls
                                   -> audit-distinct wall_s
  graphs.family_build_s            -> closed-forms wall_s
  indices.all_indices_s            -> audit-* and closed-forms wall_s
  bounds.context_s, .evaluate_bound_s, .checks, .check_us, .audit_all_s,
  .fold_s                          -> audit-* wall_s; exhaustive-n7 by ~5%
  bounds.partition_keys, .key_share -> input property only
  bounds.verdicts.*                -> exact counts that must repeat
  formulas.closed_forms_s, ratios.proofs_report_s
                                   -> closed-forms wall_s
  cli.main_s, cli.self_s, tracing_overhead_s

A layer a workload never enters reads 0 on that workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "degbound"
EXPECTED = HERE / "expected"
OUT = HERE / "out"

BUDGET_S = 170  # the whole run, set-up included, ends well inside 180 s
CONNECTED_GRAPHS = {5: 21, 7: 853}  # OEIS A001349
POPULATION = {"audit-distinct": "distinct", "audit-repeats": "repeats"}
WORKLOADS = ("exhaustive-n7", "audit-distinct", "audit-repeats", "closed-forms")


def plan(name: str, seed: int, smoke: bool, work: Path) -> dict:
    """The CLI commands of one workload execution, the number of graphs they
    process, and the population metadata."""
    reports = str(work / "run" / "reports")
    if name == "exhaustive-n7":
        n = 5 if smoke else 7
        return {"commands": [["verify", "--enumerate", str(n), "--out", reports]],
                "graphs": CONNECTED_GRAPHS[n], "population": {"enumerate": n}}
    if name in POPULATION:
        from population import SIZE, write_population

        path = work / "population.g6"
        meta = write_population(path, POPULATION[name], seed, 300 if smoke else SIZE)
        expected = EXPECTED / f"{name}.json"
        return {"commands": [["verify", "--file", str(path), "--expected", str(expected),
                              "--out", reports]],
                "graphs": meta["size"], "population": meta}
    if name == "closed-forms":
        max_n = 20 if smoke else 200
        return {"commands": [["families", "--max-n", str(max_n), "--format", "json"],
                             ["proofs", "--n", "62", "--format", "json"]],
                "graphs": 4 * max_n - 5, "population": {"max_n": max_n}}
    raise ValueError(name)


def check(name: str, work: Path, graphs: int, smoke: bool) -> list[str]:
    """Problems with the outputs of one execution; empty when correct."""
    if name == "closed-forms":
        rows = json.loads((work / "stdout0.txt").read_text())["rows"]
        claims = json.loads((work / "stdout1.txt").read_text())["claims"]
        want = json.loads((EXPECTED / "proofs-n62.json").read_text())["verdicts"]
        problems = []
        if len(rows) != graphs:
            problems.append(f"families: {len(rows)} rows, expected {graphs}")
        problems += [f"families: {r['family']}:{r['param']} disagrees"
                     for r in rows if r["agrees"] is not True]
        got = [c["verdict"] for c in claims]
        if got != want:
            problems.append(f"proofs verdicts {got} != pinned {want}")
        return problems

    if name == "exhaustive-n7":
        n = 5 if smoke else 7
        pinned = PACKAGE / "data" / f"expected_enumerate_n{n}.json"
    else:
        pinned = EXPECTED / f"{name}.json"
    want = json.loads(pinned.read_text())["verdicts"]
    reports = work / "reports"
    got = json.loads((reports / "summary.json").read_text())["verdicts"]
    problems = [f"{bid}: verdict {got.get(bid)}, pinned {v}"
                for bid, v in want.items() if got.get(bid) != v]
    if set(got) != set(want):
        problems.append(f"reported bounds {sorted(got)} != pinned {sorted(want)}")
    for bid in want:
        counts = json.loads((reports / f"{bid}.json").read_text())["counts"]
        if counts["checked"] + counts["skipped"] != graphs:
            problems.append(f"{bid}: checked + skipped = "
                            f"{counts['checked'] + counts['skipped']}, population {graphs}")
    return problems


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEGBOUND_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def execute(commands, run: Path, trace: bool, timeout: float) -> dict:
    """Run one child process in a fresh ``run`` directory; return its
    result, or an ``error`` entry."""
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir()
    spec = {"package": str(PACKAGE), "commands": commands, "work": str(run),
            "trace": trace, "result": str(run / "result.json")}
    spec["launched"] = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not (run / "result.json").is_file():
        return {"trace": trace, "error": f"child exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads((run / "result.json").read_text())
    result["trace"] = trace
    if any(result["exit_codes"]):
        result["error"] = f"degbound exit codes {result['exit_codes']}: {proc.stderr[-2000:]}"
    return result


def provenance(numpy_version: str | None) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_commit": commit, "source_sha256": digest.hexdigest()}


def summarize(reps: list[dict], graphs: int, trace: bool) -> dict:
    """Medians over the executions that passed (over all, if none did)."""
    def pick(traced):
        timed = [r for r in reps if "wall_s" in r and r["trace"] == traced]
        return [r for r in timed if "error" not in r] or timed

    plain = pick(False)
    if not trace:
        return {
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "graphs_per_s": (statistics.median(graphs / r["wall_s"] for r in plain), "1/s"),
            "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    layers = [r["layers"] for r in pick(True)]
    out = {}
    for k in layers[0]:
        unit = _layer_unit(k)
        median = statistics.median if unit in ("s", "us") else statistics.median_low
        out[k] = (median(t[k] for t in layers), unit)
    out["tracing_overhead_s"] = (
        out["cli.main_s"][0] - statistics.median(r["wall_s"] for r in plain), "s")
    return out


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    return "ratio" if name.endswith("share") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="degbound CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one execution (one untraced and one traced with "
                             "--trace 1) at a tiny size")
    args = parser.parse_args(argv)
    started = time.monotonic()
    # On SIGTERM, unwind so the running child is killed and waited for and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no degbound sources at {PACKAGE}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        job = plan(args.workload, args.seed, args.smoke, work)
        # Untimed warm-up: writes the bytecode cache and fills the page cache.
        warm = execute([], work / "run", False, BUDGET_S)
        if "error" in warm:
            print(f"error: warm-up failed: {warm['error']}", file=sys.stderr)
            return 1
        reps: list[dict] = []
        durations: list[float] = []
        loop_start = time.monotonic()
        while True:
            trace = bool(args.trace) and len(reps) % 2 == 1
            rep_start = time.monotonic()
            rep = execute(job["commands"], work / "run", trace,
                          max(BUDGET_S - (rep_start - started), 1.0))
            if "error" not in rep:
                try:
                    problems = check(args.workload, work / "run", job["graphs"], args.smoke)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                if problems:
                    rep["error"] = "; ".join(problems[:20])
            if "error" in rep:
                print(f"error: {rep['error']}", file=sys.stderr)
            reps.append(rep)
            now = time.monotonic()
            durations.append(now - rep_start)
            # Start no execution that would end past --seconds by more than
            # half its expected length.
            if len(reps) >= (2 if args.trace else 1) and (
                    args.smoke
                    or now - loop_start + statistics.median(durations) / 2 >= args.seconds
                    or now - started + 1.5 * durations[-1] > BUDGET_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not all(any("wall_s" in r and r["trace"] == t for r in reps)
               for t in {False, bool(args.trace)}):
        print("error: no execution produced measurements", file=sys.stderr)
        return 1
    failed = sum("error" in r for r in reps)
    metrics = summarize(reps, job["graphs"], bool(args.trace))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "repeats": len(reps),
        "provenance": provenance(next((r["numpy"] for r in reps if "numpy" in r), None)),
        "population": job["population"], "graphs": job["graphs"],
        "executions": reps,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    suffix = "-smoke" if args.smoke else ""
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
