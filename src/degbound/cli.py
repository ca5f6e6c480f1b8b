"""Command-line front end: compute indices, audit and verify the bound
catalog over graph populations, tabulate family closed forms, and run the
proof-grid audits.

Exit codes: 0 ok, 1 verdict mismatch, 2 usage, 3 I/O, 141 (128 + SIGPIPE)
when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from importlib import resources
from itertools import islice
from pathlib import Path

from .bounds import DEFAULT_TOL, audit_labelled, builtin_catalog, graph_context
from .enumeration import (
    EnumerationSpec,
    MAX_ORDER,
    check_order,
    stream_connected,
    stream_population,
)
# Not called here: perfbench/tracing.py wraps these names on this module.  The
# audit reads its population through stream_connected or stream_population
# and audit_labelled instead.
from .bounds import audit_all  # noqa: F401
from .enumeration import enumerate_connected  # noqa: F401
from .enumeration import read_population  # noqa: F401
from .formulas import FAMILY_FORMULAS
from .graphs import (
    G6_MAX,
    MOLECULAR_MAX_DEGREE,
    Graph,
    GraphError,
    content_lines,
    make_family,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .indices import ALL_INDICES, all_indices
from .ratios import proofs_report

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PIPE = 141

# Largest --family parameter, --max-n and edge-list order: construction is quadratic in
# the order. The largest graph built is K_{200,200} (delta_regular_witness:200, 400 vertices).
FAMILY_MAX = 200
# Largest --enumerate order that runs without --allow-n8 (an order-8 audit takes 0.6-0.7 s).
DEFAULT_ORDER_CAP = 7
FORMATS = ("table", "json", "csv")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Output rendering


def _fmt_cell(value):
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _json(doc, stream, sort_keys=False) -> None:
    """Stream ``doc`` to ``stream`` as indented json and a newline."""
    json.dump(doc, stream, indent=2, sort_keys=sort_keys)
    stream.write("\n")


def _render_rows(rows, fmt, stream):
    """Write ``rows`` (at least one) as json, csv or a table; the first
    row's keys, in order, are the columns."""
    if fmt == "json":
        _json({"rows": rows}, stream)
        return
    columns = list(rows[0])
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c] for c in columns])
    else:
        widths = [max(len(c), *(len(_fmt_cell(r[c])) for r in rows)) for c in columns]
        header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
        stream.write(header.rstrip() + "\n")
        stream.write("  ".join("-" * w for w in widths).rstrip() + "\n")
        for row in rows:
            cells = [_fmt_cell(row[c]).ljust(w) for c, w in zip(columns, widths)]
            stream.write("  ".join(cells).rstrip() + "\n")


def _read(path: Path) -> str:
    """The file's text as UTF-8 whatever the locale, less a leading byte-order
    mark; a file that cannot be opened or decoded is an I/O error."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise IOError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------------------
# compute


def _sniff_file_graphs(path: Path) -> list[Graph]:
    text = _read(path)
    body = [line for _, line in islice(content_lines(text), 2)]
    if body and body[0].isdigit() and (len(body) == 1 or " " in body[1] or "\t" in body[1]):
        try:
            n = int(body[0])
        except ValueError:  # digits int() refuses, such as '²'; parse_edge_list names them
            n = 0
        if n > FAMILY_MAX:  # Graph(n, edges) allocates n slots before it reads an edge
            raise GraphError(f"edge list: vertex count must be at most {FAMILY_MAX}, got {n}")
        return [parse_edge_list(text)]
    return [g for _, g in stream_population(text, path)]


def _compute_rows(graphs):
    rows = []
    for g in graphs:
        ctx = graph_context(g)
        rows.append({"graph6": to_graph6(g) if g.n <= G6_MAX else None, "n": g.n, "m": g.m,
                     "delta": ctx.delta, "Delta": ctx.Delta, "regular": ctx.delta == ctx.Delta,
                     "chi": ctx.chi, **dict(zip(map(str, ALL_INDICES), ctx.values))})
    return rows


def cmd_compute(args) -> int:
    sources = [s for s in (args.g6, args.file, args.family) if s is not None]
    if len(sources) != 1:
        raise UsageError("compute needs exactly one of --g6, --file, --family")
    if args.g6 is not None:
        graphs = [parse_graph6(args.g6)]
    elif args.file is not None:
        graphs = _sniff_file_graphs(Path(args.file))
    else:
        tag, _, param = args.family.partition(":")
        try:
            size = int(param) if param else None
        except ValueError:
            raise UsageError(f"--family parameter must be an integer, got {args.family!r}") from None
        if size is not None and size > FAMILY_MAX:
            raise UsageError(f"--family parameter must be at most {FAMILY_MAX}, "
                             f"got {args.family!r}")
        try:
            graphs = [make_family(tag, size)]
        except GraphError as exc:  # an unknown family or a bad parameter
            raise UsageError(str(exc)) from None
    _render_rows(_compute_rows(graphs), args.format, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# families


def families_rows(max_n: int) -> list[dict]:
    """Closed-form index values for paths, cycles, complete graphs and stars,
    cross-checked against graph evaluation (max relative deviation 1e-12)."""
    if not 2 <= max_n <= FAMILY_MAX:
        raise UsageError(f"--max-n must be in 2..{FAMILY_MAX}, got {max_n}")
    from .graphs import complete_graph, cycle_graph, path_graph, star_graph

    plans = [
        ("path", path_graph, range(2, max_n + 1)),
        ("cycle", cycle_graph, range(3, max_n + 1)),
        ("complete", complete_graph, range(2, max_n + 1)),
        ("star", star_graph, range(1, max_n)),
    ]
    names = tuple(map(str, ALL_INDICES))
    rows = []
    for family, builder, params in plans:
        formula = FAMILY_FORMULAS[family]
        for p in params:
            g = builder(p)
            closed = formula(p)
            dev = 0.0
            for c, e in zip(closed, all_indices(g).values()):
                if c is None or e is None:
                    if c is not e:
                        dev = float("inf")
                    continue
                dev = max(dev, abs(c - e) / max(1.0, abs(c)))
            row = {"family": family, "param": p, "n": g.n, "m": g.m}
            row.update(zip(names, closed))
            row["max_rel_dev"] = dev
            row["agrees"] = dev <= 1e-12
            rows.append(row)
    return rows


def cmd_families(args) -> int:
    rows = families_rows(args.max_n)
    _render_rows(rows, args.format, sys.stdout)
    if not all(r["agrees"] for r in rows):
        print("closed forms disagree with graph evaluation", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# proofs


def cmd_proofs(args) -> int:
    claims = proofs_report(args.n)
    if args.format == "json":
        _json({"n": args.n, "claims": claims}, sys.stdout)
    else:
        rows = [
            {"verdict": c["verdict"], "claim": c["claim"], "observed": c["observed"]}
            for c in claims
        ]
        _render_rows(rows, args.format, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit / verify


def _select_bounds(spec: str | None):
    catalog = builtin_catalog()
    if spec is None or spec.strip().lower() == "all":
        return catalog
    def norm(s):
        return s.replace("(", "").replace(")", "").upper()
    lookup = {norm(b.bound_id): b for b in catalog}
    chosen = {}  # bound id -> bound, so a repeated id keeps its first place
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        b = lookup.get(norm(token))
        if b is None:
            raise UsageError(f"unknown bound id {token!r}")
        chosen.setdefault(b.bound_id, b)
    if not chosen:
        raise UsageError("--bounds selected nothing")
    return list(chosen.values())


def _check_population_flags(args) -> None:
    """Refuse a population request before any graph is built or read:
    exactly one source, an order the enumeration runs, and the order cap."""
    if (args.enumerate is None) == (args.file is None):
        raise UsageError("need exactly one of --enumerate N or --file PATH")
    if args.enumerate is not None:
        try:
            check_order(args.enumerate)
        except GraphError as exc:
            raise UsageError(str(exc)) from None
        if args.enumerate > DEFAULT_ORDER_CAP and not args.allow_n8:
            raise UsageError(f"order {args.enumerate} is above the default cap "
                             f"{DEFAULT_ORDER_CAP} and takes 0.6-0.7 seconds; "
                             "pass --allow-n8 to run it")


def _population(args):
    """The population to audit, as a one-shot stream of ``(graph6, graph)``
    pairs, and its label, once ``_check_population_flags`` has passed.

    A file is read whole, so an I/O error comes first, and its lines are
    parsed as the stream is read, each labelled with its stripped line; so a
    malformed line is raised from inside the audit, before any report is
    written.  An enumerated class is labelled with ``to_graph6``.  Both
    sources pass through the same ``--min-degree`` / ``--molecular``
    filter, ``EnumerationSpec.admits``."""
    spec = EnumerationSpec(args.enumerate, delta_min=args.min_degree,
                           molecular=args.molecular)
    if args.file is not None:
        path = Path(args.file)
        pairs = stream_population(_read(path), path)
        return ((g6, g) for g6, g in pairs if spec.admits(g)), f"file({path.name})"
    return ((to_graph6(g), g) for g in stream_connected(spec)), spec.describe()


def _report_rows(reports, order):
    rows = []
    for bid in order:
        r = reports[bid]
        rows.append({
            "bound_id": bid,
            "verdict": r.verdict,
            **r.counts,
            "min_margin": r.min_margin["value"] if r.min_margin else None,
            "equality_witnesses": ";".join(r.equality_witnesses),
            "violation_witnesses": ";".join(r.violation_witnesses),
        })
    return rows


def _emit_reports(reports, order, population, fmt, out_dir):
    if fmt == "json":
        doc = {
            "population": population,
            "tolerance": DEFAULT_TOL,
            "reports": [reports[bid].to_dict() for bid in order],
        }
        _json(doc, sys.stdout)
    else:
        _render_rows(_report_rows(reports, order), fmt, sys.stdout)
    if out_dir is not None:
        try:
            for bid in order:
                with (out_dir / f"{bid}.json").open("w", encoding="utf-8") as f:
                    _json(reports[bid].to_dict(), f)
            with (out_dir / "summary.json").open("w", encoding="utf-8") as f:
                _json({
                    "population": population,
                    "tolerance": DEFAULT_TOL,
                    "verdicts": {bid: reports[bid].verdict for bid in order},
                }, f, sort_keys=True)
        except OSError as exc:
            raise IOError(f"cannot write reports to {out_dir}: {exc}") from None


def _expected_verdicts(args) -> dict[str, str]:
    if args.expected is not None:
        path = Path(args.expected)
        try:
            doc = json.loads(_read(path))
        except json.JSONDecodeError as exc:
            raise IOError(f"bad expectation file {path}: {exc}") from None
        verdicts = doc.get("verdicts") if isinstance(doc, dict) else None
        if not isinstance(verdicts, dict):
            raise IOError(f'bad expectation file {path}: no "verdicts" object')
        return verdicts
    if args.enumerate is None or args.min_degree is not None or args.molecular:
        raise UsageError(
            "verify needs --expected PATH for file or filtered populations"
        )
    # _check_population_flags has passed, and the package pins every order
    # the enumeration runs
    name = f"expected_enumerate_n{args.enumerate}.json"
    ref = resources.files("degbound").joinpath("data", name)
    return dict(json.loads(ref.read_text(encoding="utf-8"))["verdicts"])


def cmd_audit(args) -> int:
    """Run ``audit``, or ``verify``, which also compares the verdicts with
    its expectations (read after every usage check and before the audit, so
    a usage error wins over a bad file and a bad file fails fast)."""
    if args.min_degree is not None and args.min_degree < 0:
        raise UsageError(f"--min-degree must be >= 0, got {args.min_degree}")
    if args.out == "":  # Path("") is the current directory
        raise UsageError("--out must name a directory, got ''")
    _check_population_flags(args)
    bounds = _select_bounds(args.bounds)
    expected = _expected_verdicts(args) if args.command == "verify" else None
    out_dir = None if args.out is None else Path(args.out)
    if out_dir is not None:  # after every usage check, before any graph is built
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IOError(f"cannot write reports to {out_dir}: {exc}") from None
    labelled, population = _population(args)
    reports = audit_labelled(bounds, labelled, population=population)
    order = [b.bound_id for b in bounds]
    _emit_reports(reports, order, population, args.format, out_dir)
    if expected is None:
        return EXIT_OK
    mismatches = []
    for bid in order:
        want = expected.get(bid)
        got = reports[bid].verdict
        if want is None:
            mismatches.append((bid, "<no pinned expectation>", got))
        elif want != got:
            mismatches.append((bid, want, got))
    if mismatches:
        for bid, want, got in mismatches:
            print(f"MISMATCH {bid}: expected {want}, got {got}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"verify: {len(order)} bounds match pinned verdicts on {population}",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degbound",
        description="degree-based topological indices and their sharp bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="index table for one or more graphs")
    p.add_argument("--g6", help="a single graph6 string")
    p.add_argument("--file", help="graph6 lines, or an edge-list file (n, then 'u v' lines)")
    p.add_argument("--family", help="named family, e.g. cycle:7, star:8, double_star "
                                    f"(parameter at most {FAMILY_MAX})")
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_compute)

    def population_flags(p):
        p.add_argument("--enumerate", type=int, metavar="N",
                       help=f"all connected graphs of order N (2..{DEFAULT_ORDER_CAP}; "
                            f"{MAX_ORDER} with --allow-n8)")
        p.add_argument("--file", help="population file, one graph6 per line")
        p.add_argument("--min-degree", type=int, metavar="K")
        p.add_argument("--molecular", action="store_true",
                       help=f"restrict to maximum degree <= {MOLECULAR_MAX_DEGREE}")
        p.add_argument("--allow-n8", action="store_true",
                       help="permit the order-8 enumeration (0.6-0.7 seconds)")
        p.add_argument("--bounds", metavar="LIST|all", default="all")
        p.add_argument("--format", choices=FORMATS, default="table")
        p.add_argument("--out", metavar="DIR", help="write one report JSON per bound")

    p = sub.add_parser("audit", help="sharpness reports over a population")
    population_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("verify", help="audit and compare against pinned verdicts")
    population_flags(p)
    p.add_argument("--expected", metavar="PATH",
                   help="expectation file (defaults to the packaged verdicts "
                        "for plain --enumerate populations)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("families", help="closed-form index table for named families")
    p.add_argument("--max-n", type=int, default=20, metavar="N")
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("proofs", help="proof-grid ratio audits")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_proofs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at exit
        # cannot fail again (the recipe of the Python signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, GraphError) else EXIT_USAGE
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
