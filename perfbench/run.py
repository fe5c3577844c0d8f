"""mdimlab benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload exact-zoo --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from src/
and nothing is installed.  The work is split into batches.  Each batch is
one fresh, single-threaded worker process (worker.py): it imports mdimlab,
builds its inputs (timed as set-up), runs its items (each timed), and then
checks every answer with code of its own (check.py).  The batch count is
fixed by --seconds (workloads.batch_count), so two commits measured with the
same arguments do the same items.  workloads.py and BENCHMARK.json give the
workloads and the reason for each.

--trace 0 prints the end-to-end metrics, with times in reference seconds
(see REFERENCE_S):
  setup_s       median over the workers of import mdimlab + building inputs
  items_per_s   items per second of item time
  item_s_p50    median item time
  item_s_tail   the item time with exactly ten items slower than it: the
                highest percentile with at least ten items beyond it (the
                slowest item when there are ten or fewer)
  peak_rss_mb   largest peak resident memory of a worker, read at the end
                of its timed phase
fail_ratio (failed / attempted items) is printed beside them, and the
"failed" and "attempted" fields of the result carry it.  It is 0 when every
answer is right.

--trace 1 runs the same batches with every public mdimlab function wrapped
(tracer.py) and prints the per-layer metrics named in BENCHMARK.json.  It
also runs batch 0 once more without tracing; trace.overhead_ratio is the
median over its items of traced over untraced time, minus one.
trace.coverage is the share of item time spent in traced library functions
outside the verify harness.

Before the final JSON line the command prints a readable report: machine
facts (nproc, Python and numpy versions), the item count and the tail
percentile.  Per-item details and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170  # the whole command must end within 180 s
# Times are reported in reference seconds: measured seconds times
# REFERENCE_S over the time of the worker's reference loop (worker.Reference)
# nearest to the measurement.  The loop takes about REFERENCE_S on an
# unloaded 2-core VM.  Shared hosts drift in speed by 30% or more, within
# seconds and over minutes; the reference loop drifts with them, so the
# ratio holds where raw seconds do not.  Raw seconds stay in the details.
REFERENCE_S = 0.001
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def machine_facts() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def run_batch(workload: str, seed: int, batch: int, trace: int, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MDIMLAB_BUDGET"}
    env.update(SINGLE_THREAD, PYTHONPATH=str(ROOT / "src"))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--batch", str(batch), "--trace", str(trace),
    ]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}-b{batch}.tsv.gz")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the last batch")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"batch {batch} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"batch {batch} exited with code {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"batch {batch} printed nothing")
    return json.loads(lines[-1])


def scale(batch: dict) -> float:
    """Factor that turns this worker's seconds into reference seconds."""
    return REFERENCE_S / batch["reference_s"]


def item_seconds(batch: dict) -> list[float]:
    """Item times in reference seconds, each scaled by the median of the
    reference loop timings taken nearest to that item: the two before it
    and the two after it."""
    samples = batch["reference_samples"]
    out = []
    for i, item in enumerate(batch["items"]):
        near = samples[max(0, i - 1):i + 3]
        out.append(item[1] * (REFERENCE_S / statistics.median(near) if near else scale(batch)))
    return out


def end_to_end(batches: list[dict]) -> tuple[dict, dict]:
    secs = sorted(t for b in batches for t in item_seconds(b))
    n = len(secs)
    tail = secs[n - 11] if n > 10 else secs[-1]  # exactly ten items beyond it
    values = {
        # set-up precedes the first reference sample of its worker
        "setup_s": statistics.median(
            b["setup_s"] * REFERENCE_S / b["reference_samples"][0] for b in batches),
        "items_per_s": n / sum(secs),
        "item_s_p50": statistics.median(secs),
        "item_s_tail": tail,
        "peak_rss_mb": max(b["peak_rss_mb"] for b in batches),
    }
    notes = {
        "items": n,
        "batches": len(batches),
        "tail_percentile": round(100 * (n - 10) / n, 2) if n > 10 else 100,
        "reference_s": statistics.median(b["reference_s"] for b in batches),
    }
    return values, notes


def per_layer(batches: list[dict], twin: dict, names: list[str]) -> dict:
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for b in batches:
        t = b["trace"]
        for acc, part, factor in ((calls, t["calls"], 1), (self_s, t["self_s"], scale(b)),
                                  (total_s, t["total_s"], scale(b)),
                                  (counts, t["counts"], 1)):
            for key, value in part.items():
                acc[key] = acc.get(key, 0) + value * factor
    item_s = sum(item[1] * scale(b) for b in batches for item in b["items"])
    covered_s = sum(b["trace"]["covered_s"] * scale(b) for b in batches)
    # the same items of batch 0 with and without tracing; a median of
    # per-item ratios, which a few items slowed by host noise do not move
    overhead = statistics.median(
        t / p for t, p in zip(item_seconds(batches[0]), item_seconds(twin)) if p > 0
    ) - 1
    exact_calls = calls.get("mdim.mdim_exact", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    special = {
        "cover.build_instance.pairs": counts.get("cover.build_instance.pairs", 0),
        "cover.min_cover.nodes": counts.get("cover.min_cover.nodes", 0),
        "cover.min_cover.nodes_per_s": ratio(
            counts.get("cover.min_cover.nodes", 0), self_s.get("cover.min_cover", 0)),
        "cover.min_cover.optimal_ratio": ratio(
            counts.get("cover.min_cover.optimal", 0), calls.get("cover.min_cover", 0)),
        "mdim.twin_forced_choices.forced": counts.get("mdim.twin_forced_choices.forced", 0),
        # distinct inputs are counted per process, which is what a
        # per-process solve cache could reuse
        "mdim.mdim_exact.distinct_ratio": ratio(
            sum(b["trace"]["exact_distinct"] for b in batches), exact_calls),
        "trace.overhead_ratio": overhead,
        "trace.coverage": ratio(covered_s, item_s),
    }
    tables = {"calls": calls, "self_s": self_s, "total_s": total_s}
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        span, _, field = name.rpartition(".")
        if field not in tables:
            raise BenchError(f"no rule for per-layer metric {name}")
        table = tables[field]
        if span.endswith(".construct"):  # every function of the module
            prefix = span[: -len("construct")]
            out[name] = sum(v for k, v in table.items() if k.startswith(prefix))
        else:
            out[name] = table.get(span, 0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.NOMINAL_BATCH_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "mdimlab" / "__init__.py").is_file():
        print("perfbench: no src/mdimlab in this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    n_batches = workloads.batch_count(args.workload, args.seconds)
    try:
        batches = [
            run_batch(args.workload, args.seed, b, args.trace, deadline)
            for b in range(n_batches)
        ]
        twin = run_batch(args.workload, args.seed, 0, 0, deadline) if args.trace else None
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    items = [item for b in batches for item in b["items"]]
    failed = [item for item in items if item[2] is not None]
    e2e, notes = end_to_end(batches)
    facts = machine_facts()
    if args.trace:
        metrics = per_layer(batches, twin, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = e2e
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{notes['items']} items in {notes['batches']} batches; nproc {facts['nproc']}, "
          f"Python {facts['python']}, numpy {facts['numpy']}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {units[name]}")
    print(f"  {'fail_ratio':40s} {len(failed) / len(items):>14.6g} "
          f"({len(failed)} of {len(items)} items)")
    print(f"  item_s_tail is p{notes['tail_percentile']} of {notes['items']} items; "
          f"setup_s is the median of {notes['batches']} set-ups; times are in "
          f"reference seconds (reference loop median {notes['reference_s']:.5f} s "
          f"here, {REFERENCE_S} s nominal)")
    for item in failed[:10]:
        print(f"  FAILED {item[0]}: {item[2]}")

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "notes": notes,
        "fail_ratio": len(failed) / len(items), "metrics": metrics,
        "end_to_end": e2e,
        "items": [
            {"batch": b, "name": it[0], "seconds": it[1], "error": it[2],
             "input": it[3], "size": it[4]}
            for b, batch in enumerate(batches) for it in batch["items"]
        ],
        "batches": [
            {"batch": b, "setup_s": batch["setup_s"], "peak_rss_mb": batch["peak_rss_mb"],
             "reference_samples": batch["reference_samples"]}
            for b, batch in enumerate(batches)
        ],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
