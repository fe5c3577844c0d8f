"""One batch of one workload, in a fresh process.

    python3 perfbench/worker.py --workload exact-zoo --seed 1 --batch 0 --trace 0

run.py starts this with PYTHONPATH=src, MDIMLAB_BUDGET unset and the BLAS
and OpenMP pools pinned to one thread.  It prints one JSON object: set-up
seconds (import mdimlab plus building every input), peak resident memory at
the end of the timed phase, the timings of a reference loop run between
items, one record per item (name, seconds, error, input digest, answer
size), and with --trace 1 the span summary.  Answers are checked after the
timed phase.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


class Reference:
    """Timings of a fixed pure-Python big-integer loop, the kind of work
    mdimlab's hot paths do, taken between items so that they sample the
    host's speed across the whole timed phase.  run.py scales each item's
    time by the timings nearest to it."""

    def __init__(self, tracer):
        self.samples: list[float] = []
        self.tracer = tracer

    def __call__(self) -> None:
        start = perf_counter()
        x, acc = (1 << 4000) - 12345, 0
        for i in range(2000):
            acc += (x >> (i & 1023)).bit_count() & 7
        end = perf_counter()
        self.samples.append(end - start)
        if self.tracer is not None:
            self.tracer.record("perfbench.reference", start, end)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.NOMINAL_BATCH_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--batch", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="gzip TSV file for the spans (traced runs)")
    args = ap.parse_args()

    start = perf_counter()
    import mdimlab

    items = None
    if args.workload == "exact-zoo":
        items = workloads.setup_exact_zoo(mdimlab, ROOT, args.seed, args.batch)
    elif args.workload == "large-n":
        items = workloads.setup_large_n(mdimlab, ROOT, args.seed, args.batch)
    else:
        import mdimlab.verify  # noqa: F401  (run_suite loads its own rows)
    setup_s = perf_counter() - start

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(mdimlab)
    ref = Reference(tracer)
    if items is None:
        outcomes = workloads.run_golden(mdimlab, ROOT, tracer, ref)
    else:
        outcomes, answers = workloads.run_items(items, tracer, ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    if items is not None:
        workloads.judge_items(items, answers, outcomes)

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "reference_s": statistics.median(ref.samples),
        "reference_samples": ref.samples,
        "items": [[o.name, o.seconds, o.error, o.label, o.size] for o in outcomes],
        "trace": None,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
