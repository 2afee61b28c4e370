"""Perf ladder: time each pipeline stage on open grids of growing size.

    python3 tools/ladder.py --tag TAG [--src DIR] [--sides 12 25 40 80]
                            [--processes 3] [--output-dir DIR]

For each side, fresh processes each generate the same open grid (gridgen
seed 7, 10 goals, no blocked cells) and time, once each:

- load_instance on its files;
- prepare_instance, and then relaxed.compute_fixpoint alone on the
  prepared problem, with the collector paused as prepare pauses it;
- estimate for every goal at n = 10 and then at n = 100, after one
  untimed warm-up call;
- recognize_online over the instance's observations, with the n = 100
  tables;
- run_benchmark at n = 10 on a dataset that holds only this instance, as
  `goalrec bench` runs it: load, prepare, estimate and recognize again,
  plus the report's bookkeeping.

Each stage reports its best time over the processes and every run.  Each
size also records what was recognized, which must not differ between
processes: the true goal's index, the goals recognized after the last
observation with the n = 10 and the n = 100 tables (the n = 10 ones are
recognized untimed, after every timed stage), and run_benchmark's mean
precision per lambda.
numpy defers importing numpy.random to its first use, which the first
estimate in a process would pay.  That import is timed on its own, right
after goalrec is imported, and reported once, as its best over all
processes.  The goalrec package is imported from --src (the repository's
src/ by default), so another revision, such as a parent commit checked out
in a separate directory, is measured with this script.  The result is
written to BENCH_<tag>.json, at the repository root by default, with the
source's git revision (and whether its tracked files differ from it), the
Python and numpy versions, the core count and the seeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GRID_SEED = 7
ESTIMATE_SEED = 0
GOALS = 10
SAMPLE_SIZES = (10, 100)
STAGES = (
    "load_instance",
    "prepare_instance",
    "compute_fixpoint",
    *(f"estimate_n{n}" for n in SAMPLE_SIZES),
    "recognize_online",
    "run_benchmark",
)
# What each process must report alike.
SHARED = ("facts", "actions", "goals", "observations", "precision")


def measure(side: int) -> dict:
    """One fresh process's timings on the side x side grid."""
    # Imported here: only a measuring process has --src on its path.
    from goalrec import estimate, load_instance, prepare_instance, recognize_online, run_benchmark
    from goalrec.gridgen import random_grid, write_instance
    from goalrec.relaxed import compute_fixpoint

    start = time.perf_counter()
    import numpy.random  # noqa: F401

    numpy_random_import_s = time.perf_counter() - start

    seconds = {}

    def timed(stage, call, *args):
        start = time.perf_counter()
        result = call(*args)
        seconds[stage] = time.perf_counter() - start
        return result

    spec = random_grid(
        np.random.default_rng(GRID_SEED), width=side, height=side, n_goals=GOALS, block_prob=0.0
    )
    with tempfile.TemporaryDirectory() as tmp:
        dataset = Path(tmp)
        instance = timed("load_instance", load_instance, write_instance(dataset / "grid", spec))
        problem, events = timed("prepare_instance", prepare_instance, instance)
        gc.disable()
        try:
            timed("compute_fixpoint", compute_fixpoint, problem)
        finally:
            gc.enable()
        small, large = SAMPLE_SIZES
        estimate(problem, 0, small, ESTIMATE_SEED)  # warm-up
        tables = {
            n: timed(
                f"estimate_n{n}",
                lambda: [estimate(problem, i, n, ESTIMATE_SEED) for i in range(len(problem.goals))],
            )
            for n in SAMPLE_SIZES
        }
        trace = timed("recognize_online", recognize_online, problem, tables[large], events)
        report = timed(
            "run_benchmark", lambda: run_benchmark(dataset, n_samples=small, seed=ESTIMATE_SEED)
        )
    traces = {small: recognize_online(problem, tables[small], events), large: trace}  # untimed
    return {
        "numpy_random_import_s": numpy_random_import_s,
        "facts": problem.fact_count,
        "actions": len(problem.actions),
        "goals": len(problem.goals),
        "observations": len(events),
        "precision": {
            "true_goal": instance.true_goal_index,
            "recognized": {f"n{n}": traces[n].steps[-1].recognized for n in SAMPLE_SIZES},
            "run_benchmark": report.precision_mean,
        },
        "seconds": seconds,
    }


def _git(src: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_ladder(src: Path, sides, processes: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    rows = []
    imports = []
    for side in sides:
        runs = []
        for _ in range(processes):
            out = subprocess.run(
                [sys.executable, __file__, "--measure", str(side)],
                env=env, capture_output=True, text=True, timeout=600,
            )
            if out.returncode != 0:
                raise SystemExit(f"side {side} failed:\n{out.stderr}")
            runs.append(json.loads(out.stdout))
        first = runs[0]
        for run in runs[1:]:
            for key in SHARED:
                if run[key] != first[key]:
                    raise SystemExit(f"side {side}: {key} differs between processes")
        imports += [run["numpy_random_import_s"] for run in runs]
        rows.append({
            "side": side,
            **{key: first[key] for key in SHARED},
            "seconds": {
                stage: {
                    "best": min(run["seconds"][stage] for run in runs),
                    "runs": [run["seconds"][stage] for run in runs],
                }
                for stage in STAGES
            },
        })
    status = _git(src, "status", "--porcelain", "--untracked-files=no", "--", ".")
    return {
        "git_revision": _git(src, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "processes": processes,
        "seeds": {"grid": GRID_SEED, "estimate": ESTIMATE_SEED},
        "goals": GOALS,
        "block_prob": 0.0,
        "numpy_random_import_s": min(imports),
        "sizes": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--sides", type=int, nargs="+", default=[12, 25, 40, 80])
    parser.add_argument("--processes", type=int, default=3)
    parser.add_argument("--output-dir", type=Path, default=ROOT)
    parser.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return 0
    if not args.tag:
        parser.error("--tag is required")
    if args.processes < 1:
        parser.error("--processes must be positive")
    result = {"tag": args.tag, **run_ladder(args.src.resolve(), args.sides, args.processes)}
    path = args.output_dir / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
