"""Benchmark harness: instance loading, precision/spread, report generation.

Dataset layout: <root>/<instance>/{domain.pddl, template.pddl, hyps.dat,
obs.dat, real_hyp.dat}.  hyps.dat holds one hypothesis per line with
comma-separated ground atoms; obs.dat one parenthesized ground action per
line; real_hyp.dat a single hypothesis line.
"""

from __future__ import annotations

import json
import re
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import mean, pstdev

import numpy as np

from .errors import DatasetError, GoalRecError
from .grounding import GroundProblem, ground
from .gridgen import GridSpec, random_grid, write_instance
from .negation import compile_hypothesis, compile_negations, negated_predicates
from .pddl import DomainAst, Literal, parse_domain, parse_problem
from .probability import DEFAULT_N_SAMPLES, EMPIRICAL_UNION, FactProbabilityTable, estimate
from .recognition import ObservationEvent, RecognitionTrace, recognize_online

DEFAULT_LAMBDAS = tuple(round(0.1 * k, 1) for k in range(1, 11))

HYPOTHESIS_PLACEHOLDER = "<HYPOTHESIS>"

_ATOM_RE = re.compile(r"\((?:[^()]|\([^()]*\))*\)")


@dataclass(frozen=True)
class RecognitionInstance:
    name: str
    domain_text: str
    template_text: str
    hypotheses: tuple[frozenset[Literal], ...]
    true_goal_index: int
    observations: tuple[str, ...]  # canonical ground action names


def _parse_atom(text: str) -> Literal:
    tokens = text.replace("(", " ( ").replace(")", " ) ").lower().split()
    def read(pos):
        if pos >= len(tokens):
            raise DatasetError(f"unparsable atom: {text!r}")
        if tokens[pos] == "(":
            items = []
            pos += 1
            while pos < len(tokens) and tokens[pos] != ")":
                item, pos = read(pos)
                items.append(item)
            if pos >= len(tokens):
                raise DatasetError(f"unparsable atom: {text!r}")
            return items, pos + 1
        return tokens[pos], pos + 1

    sexp, end = read(0)
    if end != len(tokens) or not isinstance(sexp, list) or not sexp:
        raise DatasetError(f"unparsable atom: {text!r}")
    if sexp[0] == "not":
        if len(sexp) != 2 or not isinstance(sexp[1], list) or not sexp[1]:
            raise DatasetError(f"unparsable atom: {text!r}")
        inner = sexp[1]
        if not all(isinstance(x, str) for x in inner):
            raise DatasetError(f"unparsable atom: {text!r}")
        return Literal(inner[0], tuple(inner[1:]), negated=True)
    if not all(isinstance(x, str) for x in sexp):
        raise DatasetError(f"unparsable atom: {text!r}")
    return Literal(sexp[0], tuple(sexp[1:]))


def parse_hypothesis_line(line: str) -> frozenset[Literal]:
    atoms = _ATOM_RE.findall(line)
    if not atoms:
        raise DatasetError(f"hypothesis line has no atoms: {line!r}")
    return frozenset(_parse_atom(atom) for atom in atoms)


def parse_observations(text: str) -> tuple[str, ...]:
    """Canonical ground action names, one per non-blank obs.dat line."""
    names = []
    for line in text.splitlines():
        if not line.strip():
            continue
        lit = _parse_atom(line.strip())
        if lit.negated:
            raise DatasetError(f"unparsable observation line: {line!r}")
        names.append(lit.canonical())
    return tuple(names)


def _normalize_hypothesis(hyp: frozenset[Literal]) -> tuple[str, ...]:
    return tuple(sorted(lit.canonical() for lit in hyp))


def load_instance(directory: str | Path) -> RecognitionInstance:
    path = Path(directory)
    files = {}
    for name in ("domain.pddl", "template.pddl", "hyps.dat", "obs.dat", "real_hyp.dat"):
        f = path / name
        if not f.is_file():
            raise DatasetError(f"{path.name}: missing file {name}")
        files[name] = f.read_text()

    hypotheses = tuple(
        parse_hypothesis_line(line)
        for line in files["hyps.dat"].splitlines()
        if line.strip()
    )
    if not hypotheses:
        raise DatasetError(f"{path.name}: empty hyps.dat")

    real_lines = [line for line in files["real_hyp.dat"].splitlines() if line.strip()]
    if len(real_lines) != 1:
        raise DatasetError(f"{path.name}: real_hyp.dat must hold exactly one line")
    real = _normalize_hypothesis(parse_hypothesis_line(real_lines[0]))
    normalized = [_normalize_hypothesis(h) for h in hypotheses]
    if real not in normalized:
        raise DatasetError(f"{path.name}: real hypothesis not found among hyps.dat")
    true_index = normalized.index(real)

    observations = parse_observations(files["obs.dat"])
    if not observations:
        raise DatasetError(f"{path.name}: empty obs.dat")

    return RecognitionInstance(
        name=path.name,
        domain_text=files["domain.pddl"],
        template_text=files["template.pddl"],
        hypotheses=hypotheses,
        true_goal_index=true_index,
        observations=observations,
    )


# ── Grounding pipeline ───────────────────────────────────────────────────


def build_problem(
    domain_text: str,
    template_text: str,
    hypotheses: tuple[frozenset[Literal], ...],
) -> GroundProblem:
    """Parse, substitute the goal placeholder, compile negations, ground."""
    domain = parse_domain(domain_text)
    # Substituting the union of all hypothesis atoms validates every
    # hypothesis object and lets negation compilation see every negated
    # predicate; grounding receives the per-hypothesis goal sets separately.
    all_atoms = " ".join(sorted({lit.canonical() for hyp in hypotheses for lit in hyp}))
    problem_text = template_text.replace(HYPOTHESIS_PLACEHOLDER, all_atoms)
    problem = parse_problem(problem_text, domain)

    negated = negated_predicates(domain, problem)
    domain, problem = compile_negations(domain, problem)
    compiled = [compile_hypothesis(h, negated) for h in hypotheses]
    return ground(domain, problem, compiled)


def prepare_instance(
    instance: RecognitionInstance,
) -> tuple[GroundProblem, list[ObservationEvent]]:
    """Ground an instance and resolve its observed actions."""
    ground_problem = build_problem(
        instance.domain_text, instance.template_text, instance.hypotheses
    )
    events = [
        ObservationEvent.action(ground_problem.action_id(name))
        for name in instance.observations
    ]
    return ground_problem, events


def estimate_tables(
    problem: GroundProblem,
    n_samples: int,
    seed: int,
    aggregation: str = EMPIRICAL_UNION,
    threads: int = 1,
) -> list[FactProbabilityTable]:
    """Per-goal tables; seeds are per-goal, so thread count cannot change results."""
    def one(goal_index: int) -> FactProbabilityTable:
        return estimate(problem, goal_index, n_samples, seed, aggregation)

    indices = range(len(problem.goals))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, indices))
    return [one(i) for i in indices]


# ── Metrics ──────────────────────────────────────────────────────────────


def precision(recognized_sets: list[frozenset[int]], truths: list[int]) -> float:
    """Mean of [true goal in recognized set] / |recognized set|."""
    if len(recognized_sets) != len(truths):
        raise ValueError("recognized sets and truths must align")
    if not recognized_sets:
        raise ValueError("empty dataset")
    total = 0.0
    for recognized, truth in zip(recognized_sets, truths):
        if not recognized:
            raise ValueError("recognized sets must be nonempty")
        total += (1.0 if truth in recognized else 0.0) / len(recognized)
    return total / len(recognized_sets)


def spread(recognized_sets: list[frozenset[int]]) -> float:
    if not recognized_sets:
        raise ValueError("empty dataset")
    return mean(len(s) for s in recognized_sets)


def prefix_length(total: int, lam: float) -> int:
    return int(np.floor(total * lam))


def recognized_at(
    trace: RecognitionTrace, goal_count: int, total: int, lam: float
) -> frozenset[int]:
    t = prefix_length(total, lam)
    if t == 0:
        return frozenset(range(goal_count))  # no evidence: all goals tie at 0
    return frozenset(trace.steps[t - 1].recognized)


# ── Benchmark runner ─────────────────────────────────────────────────────


@dataclass
class InstanceRecord:
    name: str
    goal_count: int
    true_goal_index: int
    observation_count: int
    estimation_seconds: float
    trace: RecognitionTrace


@dataclass
class EvaluationReport:
    lambdas: list[float]
    precision_mean: dict[float, float]
    precision_std: dict[float, float]
    spread_mean: dict[float, float]
    spread_std: dict[float, float]
    baseline_precision: dict[float, float]
    baseline_spread: dict[float, float]
    instances: list[InstanceRecord]
    failures: list[tuple[str, str]]
    n_samples: int
    seed: int
    repeats: int
    aggregation: str
    estimation_seconds_per_goal: float
    seconds_per_observation: float

    def to_json(self) -> str:
        payload = {
            "config": {
                "n_samples": self.n_samples,
                "seed": self.seed,
                "repeats": self.repeats,
                "aggregation": self.aggregation,
                "lambdas": self.lambdas,
            },
            "precision_mean": {str(k): v for k, v in self.precision_mean.items()},
            "precision_std": {str(k): v for k, v in self.precision_std.items()},
            "spread_mean": {str(k): v for k, v in self.spread_mean.items()},
            "spread_std": {str(k): v for k, v in self.spread_std.items()},
            "baseline_precision": {
                str(k): v for k, v in self.baseline_precision.items()
            },
            "baseline_spread": {str(k): v for k, v in self.baseline_spread.items()},
            "timing": {
                "estimation_seconds_per_goal": self.estimation_seconds_per_goal,
                "seconds_per_observation": self.seconds_per_observation,
            },
            "failures": [{"instance": n, "error": e} for n, e in self.failures],
            "instances": [
                {
                    "name": rec.name,
                    "goals": rec.goal_count,
                    "true_goal_index": rec.true_goal_index,
                    "observations": rec.observation_count,
                    "estimation_seconds": rec.estimation_seconds,
                    "trace": [
                        {"t": s.t, "h": s.heuristic, "recognized": s.recognized}
                        for s in rec.trace.steps
                    ],
                }
                for rec in self.instances
            ],
        }
        return json.dumps(payload, indent=2)

    def precision_csv(self) -> str:
        header = "method," + ",".join(str(l) for l in self.lambdas) + ",spread"
        rows = [header]
        rows.append(
            "fpv,"
            + ",".join(f"{self.precision_mean[l]:.4f}" for l in self.lambdas)
            + f",{self.spread_mean[self.lambdas[-1]]:.4f}"
        )
        if self.repeats > 1:
            rows.append(
                "fpv-std,"
                + ",".join(f"{self.precision_std[l]:.4f}" for l in self.lambdas)
                + f",{self.spread_std[self.lambdas[-1]]:.4f}"
            )
        rows.append(
            "uniform,"
            + ",".join(f"{self.baseline_precision[l]:.4f}" for l in self.lambdas)
            + f",{self.baseline_spread[self.lambdas[-1]]:.4f}"
        )
        return "\n".join(rows) + "\n"


def _instance_seed(seed: int, repeat: int, name: str) -> int:
    return (seed * 1_000_003 + repeat * 7919 + zlib.crc32(name.encode())) & 0x7FFFFFFF


def run_benchmark(
    dataset_root: str | Path,
    lambdas=None,
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = 0,
    repeats: int = 1,
    aggregation: str = EMPIRICAL_UNION,
    threads: int = 1,
) -> EvaluationReport:
    """Run online recognition over every instance directory under the root.

    Failing instances are recorded and excluded from means rather than
    aborting the whole run.
    """
    root = Path(dataset_root)
    lambdas = list(DEFAULT_LAMBDAS if lambdas is None else lambdas)
    candidates = sorted(p for p in root.iterdir() if p.is_dir()) if root.is_dir() else []
    if not candidates:
        raise DatasetError(f"no instance directories under {root}")

    prepared = []
    failures: list[tuple[str, str]] = []
    for path in candidates:
        try:
            instance = load_instance(path)
            problem, events = prepare_instance(instance)
            prepared.append((instance, problem, events))
        except GoalRecError as exc:
            failures.append((path.name, str(exc)))
    if not prepared:
        raise DatasetError(f"all {len(candidates)} instances failed to load")

    per_repeat_precision: list[dict[float, float]] = []
    per_repeat_spread: list[dict[float, float]] = []
    records: list[InstanceRecord] = []
    estimation_times: list[float] = []
    observation_times: list[float] = []

    def run_one(args, repeat: int):
        instance, problem, events = args
        inst_seed = _instance_seed(seed, repeat, instance.name)
        t0 = time.perf_counter()
        tables = estimate_tables(problem, n_samples, inst_seed, aggregation)
        est_seconds = time.perf_counter() - t0
        trace = recognize_online(problem, tables, events)
        return instance, problem, trace, est_seconds

    for repeat in range(repeats):
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(lambda a: run_one(a, repeat), prepared))
        else:
            results = [run_one(a, repeat) for a in prepared]

        recognized: dict[float, list[frozenset[int]]] = {l: [] for l in lambdas}
        truths: list[int] = []
        for instance, problem, trace, est_seconds in results:
            goal_count = len(problem.goals)
            total = len(instance.observations)
            truths.append(instance.true_goal_index)
            for lam in lambdas:
                recognized[lam].append(recognized_at(trace, goal_count, total, lam))
            estimation_times.append(est_seconds / goal_count)
            step_ns = [s.elapsed_ns for s in trace.steps]
            if step_ns:
                observation_times.append(mean(step_ns) / 1e9)
            if repeat == 0:
                records.append(
                    InstanceRecord(
                        instance.name,
                        goal_count,
                        instance.true_goal_index,
                        total,
                        est_seconds,
                        trace,
                    )
                )
        per_repeat_precision.append(
            {lam: precision(recognized[lam], truths) for lam in lambdas}
        )
        per_repeat_spread.append({lam: spread(recognized[lam]) for lam in lambdas})

    goal_counts = [rec.goal_count for rec in records]
    baseline_precision = {lam: mean(1.0 / g for g in goal_counts) for lam in lambdas}
    baseline_spread = {lam: mean(goal_counts) for lam in lambdas}

    return EvaluationReport(
        lambdas=lambdas,
        precision_mean={
            lam: mean(r[lam] for r in per_repeat_precision) for lam in lambdas
        },
        precision_std={
            lam: pstdev([r[lam] for r in per_repeat_precision]) for lam in lambdas
        },
        spread_mean={lam: mean(r[lam] for r in per_repeat_spread) for lam in lambdas},
        spread_std={
            lam: pstdev([r[lam] for r in per_repeat_spread]) for lam in lambdas
        },
        baseline_precision=baseline_precision,
        baseline_spread=baseline_spread,
        instances=records,
        failures=failures,
        n_samples=n_samples,
        seed=seed,
        repeats=repeats,
        aggregation=aggregation,
        estimation_seconds_per_goal=mean(estimation_times) if estimation_times else 0.0,
        seconds_per_observation=mean(observation_times) if observation_times else 0.0,
    )


# ── Timing profile ───────────────────────────────────────────────────────


def _walk_observations(spec: GridSpec, length: int, rng: np.random.Generator):
    """A random open-cell walk; observed actions need no applicability check."""
    moves = []
    cell = spec.start
    for _ in range(length):
        nxt = spec.neighbors(cell)
        pick = nxt[int(rng.integers(len(nxt)))]
        moves.append((cell, pick))
        cell = pick
    return tuple(moves)


def timing_profile(
    dataset_root: str | Path,
    observation_counts=(5, 10, 25, 50, 100),
    goal_counts=(5, 10),
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = 0,
    grid_side: int = 12,
) -> dict:
    """Estimation and per-observation timing on a generated grid instance.

    Separates the one-time probability estimation cost from the
    per-observation recognition cost.  The generated instance is written
    under the dataset root for inspection.
    """
    rng = np.random.default_rng(seed)
    spec = random_grid(
        rng, width=grid_side, height=grid_side, n_goals=max(goal_counts), block_prob=0.0
    )
    spec = replace(spec, observations=_walk_observations(spec, max(observation_counts), rng))
    write_instance(Path(dataset_root) / "timing-grid", spec)
    instance = load_instance(Path(dataset_root) / "timing-grid")
    problem, events = prepare_instance(instance)

    estimation_rows = []
    for count in goal_counts:
        sub = GroundProblem(
            problem.facts,
            problem.actions,
            problem.s0,
            problem.goals[:count],
            problem.fact_ids,
            problem.action_ids,
        )
        t0 = time.perf_counter()
        tables = estimate_tables(sub, n_samples, seed)
        seconds = time.perf_counter() - t0
        estimation_rows.append(
            {"goals": count, "seconds": seconds, "seconds_per_goal": seconds / count}
        )

    tables = estimate_tables(problem, n_samples, seed)
    recognition_rows = []
    for count in observation_counts:
        t0 = time.perf_counter()
        recognize_online(problem, tables, events[:count])
        seconds = time.perf_counter() - t0
        recognition_rows.append(
            {
                "observations": count,
                "seconds": seconds,
                "seconds_per_observation": seconds / count,
            }
        )

    return {"estimation": estimation_rows, "recognition": recognition_rows}
