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
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, pstdev

import numpy as np

from .errors import DatasetError, GoalRecError, ParameterError
from .grounding import GroundProblem, ground
from .negation import compile_hypothesis, compile_negations, negated_predicates
from .pddl import Literal, parse_atom, parse_domain, parse_problem
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


def _dataset_atom(text: str) -> Literal:
    try:
        return parse_atom(text)
    except GoalRecError as exc:
        raise DatasetError(f"unparsable atom: {text!r} ({exc})") from None


def parse_hypothesis_line(line: str) -> frozenset[Literal]:
    atoms = _ATOM_RE.findall(line)
    if not atoms:
        raise DatasetError(f"hypothesis line has no atoms: {line!r}")
    return frozenset(_dataset_atom(atom) for atom in atoms)


def parse_observations(text: str) -> tuple[str, ...]:
    """Canonical ground action names, one per non-blank obs.dat line."""
    names = []
    for line in text.splitlines():
        if not line.strip():
            continue
        lit = _dataset_atom(line.strip())
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
) -> list[FactProbabilityTable]:
    """One table per goal, each estimated from the same seed."""
    return [
        estimate(problem, i, n_samples, seed, aggregation)
        for i in range(len(problem.goals))
    ]


# ── Metrics ──────────────────────────────────────────────────────────────


def precision(recognized_sets: list[frozenset[int]], truths: list[int]) -> float:
    """Mean of [true goal in recognized set] / |recognized set|."""
    if len(recognized_sets) != len(truths):
        raise ParameterError("recognized sets and truths must align")
    if not recognized_sets:
        raise ParameterError("empty dataset")
    total = 0.0
    for recognized, truth in zip(recognized_sets, truths):
        if not recognized:
            raise ParameterError("recognized sets must be nonempty")
        total += (1.0 if truth in recognized else 0.0) / len(recognized)
    return total / len(recognized_sets)


def spread(recognized_sets: list[frozenset[int]]) -> float:
    if not recognized_sets:
        raise ParameterError("empty dataset")
    return mean(len(s) for s in recognized_sets)


def _check_lambda(lam: float) -> None:
    """Reject an observed fraction outside [0, 1] (NaN included)."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must lie in [0, 1], got {lam}")


def prefix_length(total: int, lam: float) -> int:
    _check_lambda(lam)
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
                    "trace": rec.trace.records(),
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
    """A 31-bit mix of the three, plus the run seed's bits above 31, which
    the mix alone drops: distinct run seeds give distinct instance seeds."""
    mixed = (seed * 1_000_003 + repeat * 7919 + zlib.crc32(name.encode())) & 0x7FFFFFFF
    return mixed + (seed >> 31 << 31)


def run_benchmark(
    dataset_root: str | Path,
    lambdas=None,
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = 0,
    repeats: int = 1,
    aggregation: str = EMPIRICAL_UNION,
) -> EvaluationReport:
    """Run online recognition over every instance directory under the root.

    Failing instances are recorded and excluded from means rather than
    aborting the whole run.
    """
    root = Path(dataset_root)
    lambdas = list(DEFAULT_LAMBDAS if lambdas is None else lambdas)
    if not lambdas:
        raise ParameterError("at least one lambda is required")
    for lam in lambdas:
        _check_lambda(lam)
    if repeats < 1:
        raise ParameterError(f"repeats must be positive, got {repeats}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
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

    for repeat in range(repeats):
        recognized: dict[float, list[frozenset[int]]] = {l: [] for l in lambdas}
        truths: list[int] = []
        for instance, problem, events in prepared:
            inst_seed = _instance_seed(seed, repeat, instance.name)
            t0 = time.perf_counter()
            tables = estimate_tables(problem, n_samples, inst_seed, aggregation)
            est_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            trace = recognize_online(problem, tables, events)
            obs_seconds = time.perf_counter() - t0
            goal_count = len(problem.goals)
            total = len(instance.observations)
            truths.append(instance.true_goal_index)
            for lam in lambdas:
                recognized[lam].append(recognized_at(trace, goal_count, total, lam))
            estimation_times.append(est_seconds / goal_count)
            # The whole call, Recognizer set-up included; obs.dat is never empty.
            observation_times.append(obs_seconds / total)
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
        estimation_seconds_per_goal=mean(estimation_times),
        seconds_per_observation=mean(observation_times),
    )
