"""One execution of a workload in a fresh interpreter.

The parent passes a JSON spec as the only argument: the launch time on the
monotonic clock, the degbound CLI argument lists to run, a work directory
for their standard output, whether to trace, and where to write the result.
A fresh process per execution matters because ``degbound.enumeration``
memoises populations inside a process, while CLI users pay for enumeration on
every call.

On a shared two-vCPU virtual machine (Xeon, 2.0 GHz) the same code ran
1.1-1.8x slower for stretches of seconds to minutes, so every reported time
is scaled to a reference host speed.  The child times a fixed pure-Python
job (the benchmark's own graph generator, not degbound) three times after
set-up, every ``SAMPLE_EVERY_S`` while the commands run (from a timer
signal, in the same thread, so on the same CPU at the same moments), and
three times after the last command.  The time spent in those samples is
subtracted from the commands' time and from every traced span, and each
reported time is multiplied by ``REFERENCE_S`` over the mean sample.  The
raw times are reported next to the scaled ones.
"""

import json
import resource
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

# Duration of one speed sample at the reference host speed (the machine above
# in its fast spells).  A fixed constant, so the scaled times of two commits
# compare.
REFERENCE_S = 0.003
SAMPLE_EVERY_S = 0.2


def speed_sample() -> float:
    """Seconds taken by a fixed job: 40 random connected graphs of order 10,
    with their graph6 strings and partition keys."""
    import random

    from population import graph6, partition_key, random_connected

    rng = random.Random(0)
    start = time.perf_counter()
    for _ in range(40):
        edges = random_connected(rng, 10, 0.5)
        graph6(10, edges)
        partition_key(10, edges)
    return time.perf_counter() - start


def main() -> None:
    spec = json.loads(sys.argv[1])
    import degbound.cli as cli
    from degbound.bounds import builtin_catalog

    builtin_catalog()
    setup_s = time.monotonic() - spec["launched"]

    source = Path(cli.__file__).resolve().parent
    if source != Path(spec["package"]).resolve():
        raise SystemExit(f"imported degbound from {source}, not {spec['package']}")

    tracer = None
    run = cli.main
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("cli.main", cli.main)

    samples = [speed_sample() for _ in range(3)]

    def on_alarm(*_):
        samples.append(speed_sample())
        if tracer is not None:
            tracer.paused += samples[-1]

    signal.signal(signal.SIGALRM, on_alarm)
    work = Path(spec["work"])
    exit_codes, elapsed = [], 0.0
    for i, argv in enumerate(spec["commands"]):
        with open(work / f"stdout{i}.txt", "w") as out, redirect_stdout(out):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            try:
                exit_codes.append(run(argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed += time.perf_counter() - start
    wall_s = elapsed - sum(samples[3:])
    samples += [speed_sample() for _ in range(3)]
    scale = REFERENCE_S / (sum(samples) / len(samples))

    result = {
        "setup_s": setup_s * scale,
        "wall_s": wall_s * scale,
        "raw_setup_s": setup_s,
        "raw_wall_s": wall_s,
        "speed_samples": len(samples),
        "speed_sample_mean_s": sum(samples) / len(samples),
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        from population import canonical_sample
        from tracing import canonical_form_us

        layers = tracer.metrics()
        layers["enumeration.canonical_form_us"] = canonical_form_us(canonical_sample())
        result["raw_layers"] = layers
        result["layers"] = {k: v * scale if k.endswith(("_s", "_us")) else v
                            for k, v in layers.items()}
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
