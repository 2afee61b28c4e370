"""Command-line entry point.

Subcommands: estimate, recognize, oracle, bench, gen-grid.  Exit codes:
0 success, 1 input error (usage errors and files that cannot be read or
written included), 2 resource cap exceeded.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import (
    DEFAULT_LAMBDAS,
    build_problem,
    estimate_tables,
    parse_hypothesis_line,
    parse_observations,
    prefix_length,
    run_benchmark,
)
from .errors import GoalRecError, ParameterError, SearchCapExceededError
from .gridgen import random_grid, write_instance
from .probability import (
    DEFAULT_N_SAMPLES,
    DEFAULT_STATE_CAP,
    EMPIRICAL_UNION,
    NOISY_OR,
    exact_oracle,
)
from .recognition import ObservationEvent, RecognitionTrace, Recognizer, TraceStep

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_CAP_EXCEEDED = 2


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise GoalRecError(f"no such file: {path}")
    return p.read_text()


def _load_problem(args):
    hypotheses = tuple(
        parse_hypothesis_line(line)
        for line in _read(args.hyps).splitlines()
        if line.strip()
    )
    return build_problem(_read(args.domain), _read(args.template), hypotheses)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with the input-error code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _add_problem_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--domain", required=True, help="domain.pddl path")
    sub.add_argument("--template", required=True, help="problem template path")
    sub.add_argument("--hyps", required=True, help="hyps.dat path")


def _write_tables(problem, tables, out_dir: str) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, table in enumerate(tables):
        path = out / f"goal_{i}.csv"
        path.write_text(table.to_csv(problem))
        written.append(path)
    return written


def cmd_estimate(args) -> int:
    problem = _load_problem(args)
    tables = estimate_tables(problem, args.n_samples, args.seed, args.aggregation)
    for path in _write_tables(problem, tables, args.output):
        print(path)
    return EXIT_OK


def cmd_oracle(args) -> int:
    problem = _load_problem(args)
    tables = [
        exact_oracle(problem, i, args.max_states) for i in range(len(problem.goals))
    ]
    for path in _write_tables(problem, tables, args.output):
        print(path)
    return EXIT_OK


def cmd_recognize(args) -> int:
    problem = _load_problem(args)
    events = [
        ObservationEvent.action(problem.action_id(name))
        for name in parse_observations(_read(args.obs))
    ]
    if args.at_lambda is not None:
        events = events[: prefix_length(len(events), args.at_lambda)]

    tables = estimate_tables(problem, args.n_samples, args.seed, args.aggregation)
    recognizer = Recognizer(problem, tables)
    trace = recognizer.run(events)
    if not trace.steps:
        # No evidence: every goal ties at its score of exactly 0.0.
        h0 = recognizer.scores()
        trace = RecognitionTrace([TraceStep(0, h0, list(range(len(h0))))])
    if args.explain is not None:
        explain = Path(args.explain)
        explain.parent.mkdir(parents=True, exist_ok=True)
        explain.write_text(json.dumps(recognizer.explain(), indent=2) + "\n")
    if args.format == "text":
        for step in trace.steps:
            scores = ", ".join(f"{h:.4f}" for h in step.heuristic)
            print(f"t={step.t} recognized={step.recognized} h=[{scores}]")
    else:
        print(trace.to_json())
    return EXIT_OK


def cmd_bench(args) -> int:
    report = run_benchmark(
        args.dataset,
        lambdas=args.lambdas,
        n_samples=args.n_samples,
        seed=args.seed,
        repeats=args.repeats,
        aggregation=args.aggregation,
    )
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json())
    (out / "precision.csv").write_text(report.precision_csv())
    print(out / "report.json")
    print(out / "precision.csv")
    if report.failures:
        for name, error in report.failures:
            print(f"failed instance {name}: {error}", file=sys.stderr)
    return EXIT_OK


def cmd_gen_grid(args) -> int:
    if args.seed < 0:
        raise ParameterError(f"seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    spec = random_grid(
        rng,
        width=args.width,
        height=args.height,
        n_goals=args.goals,
        block_prob=args.block_prob,
    )
    path = write_instance(args.output, spec)
    print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="goalrec",
        description="Goal recognition from fact observation probabilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n-samples", type=int, default=DEFAULT_N_SAMPLES)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--aggregation", choices=[EMPIRICAL_UNION, NOISY_OR], default=EMPIRICAL_UNION
        )

    p = sub.add_parser("estimate", help="write per-goal probability CSV files")
    _add_problem_flags(p)
    common(p)
    p.add_argument("--output", default=".")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("oracle", help="exact per-goal probability CSV files")
    _add_problem_flags(p)
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--output", default=".")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("recognize", help="online recognition trace on stdout")
    _add_problem_flags(p)
    p.add_argument("--obs", required=True, help="obs.dat path")
    p.add_argument("--at-lambda", type=float, default=None)
    common(p)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--explain", metavar="PATH", help="write each goal's score terms as JSON")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("bench", help="run the benchmark harness over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--lambdas", type=float, nargs="+", default=list(DEFAULT_LAMBDAS))
    p.add_argument("--repeats", type=int, default=1)
    common(p)
    p.add_argument("--output", default=".")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-grid", help="generate a random grid instance")
    p.add_argument("--width", type=int, default=7)
    p.add_argument("--height", type=int, default=7)
    p.add_argument("--goals", type=int, default=3)
    p.add_argument("--block-prob", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (GoalRecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
