"""Benchmark for goalrec.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's instances from the seed in a temporary directory
under .perfbench/ at the repository root, repeats rounds of the workload (see
workloads.py) while the next one fits in the given seconds, and at least
three times, checks every output, and prints a report followed, as the last
line, by one JSON object with the keys correct, attempted, failed and
metrics.  A time is the sum over operations of each one's fastest timing
in the run (see typical()).  --trace 0 gives the end-to-end metrics, measured untraced;
--trace 1 alternates untraced and traced rounds, gives the per-layer
metrics as medians over traced rounds, and writes the first traced round's
spans to .perfbench/spans-<workload>-seed<N>.jsonl.  Exits 1 when an output
check fails and 2 when goalrec's sources or the workload are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
MIN_ROUNDS = 3

# Printed with --trace 0 and returned in the final JSON object.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("observe_us", "us"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def typical(rounds, phase: str) -> float:
    """Sum over a phase's operations of each one's fastest time in the run.

    Every round repeats identical work, so timings of one operation differ
    only by the host.  On a shared machine the same work runs up to 2x
    slower for minutes at a time, so a median follows the neighbours' load;
    the fastest of many short timings of one operation does not.
    """
    samples: dict[tuple[str, str], list[float]] = {}
    for r in rounds:
        for key, seconds in r.seconds.items():
            if key[0] == phase:
                samples.setdefault(key, []).extend(seconds)
    return sum(min(values) for values in samples.values())


def end_to_end(rounds) -> dict[str, float]:
    return {
        "wall_s": typical(rounds, "batch"),
        "setup_s": typical(rounds, "setup"),
        "observe_us": typical(rounds, "observe") / rounds[0].observations * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def workload_lines(workload, rounds) -> list[tuple[str, float, str]]:
    """The workload-specific end-to-end figures, printed but not returned in
    the final JSON object."""
    lines = []
    if workload.oracle:
        lines.append(("oracle_s", typical(rounds, "oracle"), "s"))
        for name, values in rounds[0].table_mae.items():
            lines.append((name, sum(values) / len(values), "mean|p_hat-p|"))
    if workload.report_precision:
        lines += [(name, value, "fraction") for name, value in rounds[0].precision.items()]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "goalrec" / "__init__.py").is_file():
        print(f"error: goalrec sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS, generate, run_round

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{workload.name}-") as tmp:
        data = Path(tmp)
        generate(workload, data, np.random.default_rng(args.seed))
        rounds, traced, layers = [], [], []
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        last = 0.0
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + last <= args.seconds:
            begin = time.perf_counter()
            gc.collect()
            rounds.append(run_round(workload, data, args.seed, first=not rounds))
            if tracer is not None:
                tracer.reset()
                tracer.record = not traced
                tracer.install()
                gc.collect()
                try:
                    traced.append(run_round(workload, data, args.seed, first=False, traced=True))
                finally:
                    tracer.uninstall()
                layers.append(layer_metrics(tracer))
            last = time.perf_counter() - begin
        elapsed = time.perf_counter() - start

    everything = rounds + traced
    errors = [e for r in everything for e in r.errors]
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    digests = sorted({r.digest for r in everything})
    oracle_digests = sorted({r.oracle_digest for r in everything} - {""})
    for name, found in (("outputs", digests), ("oracle tables", oracle_digests)):
        if not found:
            continue
        # Comparing the rounds is one more operation, failed when they disagree.
        attempted += 1
        if len(found) > 1:
            failed += 1
            errors.append(f"{name} differ between rounds: digests {found}")

    print(
        f"workload {workload.name} seed {args.seed}: {len(rounds)} untraced and "
        f"{len(traced)} traced rounds in {elapsed:.1f} s"
    )
    print(f"digest {digests[0]}" + (f" oracle {oracle_digests[0]}" if oracle_digests else ""))
    print(f"failed_ratio {failed / attempted} ({failed} of {attempted} operations)")
    for error in errors[:20]:
        print(f"error: {error}", file=sys.stderr)

    if tracer is None:
        values = end_to_end(rounds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        lines = [(name, values[name], unit) for name, unit in END_TO_END] + workload_lines(workload, rounds)
        for name, value, unit in lines:
            print(f"{name} {value:.6g} {unit}")
    else:
        tracer.write_spans(WORK / f"spans-{workload.name}-seed{args.seed}.jsonl")
        units = {name: unit for name, unit, *_ in PER_LAYER}
        metrics = {
            name: {"value": median(layer[name] for layer in layers), "unit": units[name]}
            for name in layers[0]
        }
        # The oracle pass runs in the first untraced round only, so it has
        # no untraced counterpart to compare with.
        phases = ("setup", "observe", "batch")
        overhead = sum(typical(traced, p) - typical(rounds, p) for p in phases)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for layer in tracer.absent:
            print(f"absent layer {layer}")
        print("self time by layer, last traced round:")
        for name, seconds in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {name} {seconds:.4f} s in {tracer.calls[name]} calls")
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")

    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
