"""Spans around the calls into each degbound layer, recorded from outside
the package.

``install`` replaces the module attributes through which the CLI reaches
each layer with timing wrappers, so the traced run executes exactly the code
an untraced ``degbound.cli.main`` call would.  Spans are aggregated in
memory as they close: per span name, the number of outermost calls, the
time inside outermost calls, and the self time (duration minus the time of
nested spans).  Nothing inside ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict

from population import partition_key

# (module, attribute, span name).  GraphContext is a class; wrapping it
# times its constructor, which is how the audit builds one per graph.
PATCHES = (
    ("degbound.cli", "enumerate_connected", "enumeration.enumerate"),
    ("degbound.cli", "read_population", "enumeration.read_population"),
    ("degbound.cli", "audit_all", "bounds.audit_all"),
    ("degbound.cli", "all_indices", "indices.all_indices"),
    ("degbound.cli", "proofs_report", "ratios.proofs_report"),
    ("degbound.bounds", "GraphContext", "bounds.context"),
    ("degbound.bounds", "evaluate_bound", "bounds.evaluate_bound"),
    ("degbound.bounds", "chromatic_number", "graphs.chromatic_number"),
    ("degbound.bounds", "all_indices", "indices.all_indices"),
    ("degbound.graphs", "path_graph", "graphs.family_build"),
    ("degbound.graphs", "cycle_graph", "graphs.family_build"),
    ("degbound.graphs", "complete_graph", "graphs.family_build"),
    ("degbound.graphs", "star_graph", "graphs.family_build"),
)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.outer_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: list[list] = []  # per open span: time covered by nested spans
        self._active: set[str] = set()  # names with an open span
        self.paused = 0.0  # time to leave out of every open span (speed samples)
        self.populations: list[list] = []
        self.classes = 0
        self.reports: list[dict] = []

    def wrap(self, name, fn):
        stack, self_s, outer_s, calls = self._stack, self.self_s, self.outer_s, self.calls
        active = self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            outermost = name not in active
            if outermost:
                active.add(name)
            paused = self.paused
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start - (self.paused - paused)
                stack.pop()
                self_s[name] += duration - frame[0]
                if outermost:
                    active.discard(name)
                    outer_s[name] += duration
                    calls[name] += 1
                if stack:
                    stack[-1][0] += duration

        return traced

    def install(self) -> None:
        """Wrap every layer entry point the CLI uses.  Call once per process."""
        from degbound import formulas

        for module, attr, name in PATCHES:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        for family, fn in list(formulas.FAMILY_FORMULAS.items()):
            formulas.FAMILY_FORMULAS[family] = self.wrap("formulas.closed_forms", fn)

        # Keep what the audit saw for counting after the timed calls end.
        import degbound.cli as cli

        enumerate_connected, audit_all = cli.enumerate_connected, cli.audit_all

        def enumerate_kept(*args, **kwargs):
            graphs = enumerate_connected(*args, **kwargs)
            self.classes += len(graphs)
            return graphs

        def audit_kept(bounds, graphs, *args, **kwargs):
            reports = audit_all(bounds, graphs, *args, **kwargs)
            self.populations.append(graphs)
            self.reports.append(reports)
            return reports

        cli.enumerate_connected = enumerate_kept
        cli.audit_all = audit_kept

    def metrics(self) -> dict[str, float]:
        """Per-layer busy time and counts; layers the run never entered read 0."""
        graphs = sum(len(p) for p in self.populations)
        # From the graphs' public fields, so the package's own partition
        # cache stays as the audit left it.
        keys = {partition_key(g.n, g.edges) for p in self.populations for g in p}
        verdicts = Counter()
        for reports in self.reports:
            for r in reports.values():
                for k in ("holds", "equality", "violated", "skipped"):
                    verdicts[k] += r.counts[k]
        checks = self.calls["bounds.evaluate_bound"]
        return {
            "enumeration.enumerate_s": self.outer_s["enumeration.enumerate"],
            "enumeration.classes": self.classes,
            "enumeration.read_population_s": self.outer_s["enumeration.read_population"],
            "graphs.chromatic_number_s": self.self_s["graphs.chromatic_number"],
            "graphs.chromatic_calls": self.calls["graphs.chromatic_number"],
            "graphs.family_build_s": self.self_s["graphs.family_build"],
            "indices.all_indices_s": self.self_s["indices.all_indices"],
            "bounds.context_s": self.self_s["bounds.context"],
            "bounds.evaluate_bound_s": self.self_s["bounds.evaluate_bound"],
            "bounds.checks": checks,
            "bounds.check_us": (
                1e6 * self.outer_s["bounds.evaluate_bound"] / checks if checks else 0.0),
            "bounds.audit_all_s": self.outer_s["bounds.audit_all"],
            "bounds.fold_s": self.self_s["bounds.audit_all"],
            "bounds.partition_keys": len(keys),
            "bounds.key_share": len(keys) / graphs if graphs else 0.0,
            **{f"bounds.verdicts.{k}": verdicts[k]
               for k in ("holds", "equality", "violated", "skipped")},
            "formulas.closed_forms_s": self.self_s["formulas.closed_forms"],
            "ratios.proofs_report_s": self.self_s["ratios.proofs_report"],
            "cli.main_s": self.outer_s["cli.main"],
            "cli.self_s": self.self_s["cli.main"],
        }


def canonical_form_us(samples) -> float:
    """Median time of one ``canonical_form`` call over ``samples``, in µs."""
    from degbound.enumeration import canonical_form

    times = []
    for g in samples:
        start = time.perf_counter()
        canonical_form(g)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)
