"""Benchmark harness: instance loading, precision/spread, report generation.

Dataset layout: <root>/<instance>/{domain.pddl, template.pddl, hyps.dat,
obs.dat, real_hyp.dat}.  Every .dat line is read by the PDDL reader, so
case is folded and ";" starts a comment; a blank or comment-only line is
skipped.  A hyps.dat line is one hypothesis: one or more ground atoms, a
comma allowed between two of them, and no hypothesis listed twice.
real_hyp.dat holds one such line, and obs.dat one positive ground action
per line.  Anything else on a line is a DatasetError.
"""

from __future__ import annotations

import gc
import json
import math
import time
import zlib
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from statistics import mean, pstdev

from .errors import DatasetError, GoalRecError, ParameterError
from .grounding import GroundProblem, ground
from .pddl import Literal, parse_domain, parse_literal, parse_problem, read_forms
from .pddl import validate_problem
from .probability import DEFAULT_N_SAMPLES, EMPIRICAL_UNION, NOISY_OR, FactProbabilityTable
from .probability import estimate
from .recognition import ObservationEvent, RecognitionTrace, recognize_online

DEFAULT_LAMBDAS = tuple(round(0.1 * k, 1) for k in range(1, 11))

HYPOTHESIS_PLACEHOLDER = "<HYPOTHESIS>"


@dataclass(frozen=True)
class RecognitionInstance:
    name: str
    domain_text: str
    template_text: str
    hypotheses: tuple[frozenset[Literal], ...]
    true_goal_index: int
    observations: tuple[str, ...]  # canonical ground action names


def _quoted(line: str) -> str:
    """The repr of a .dat line, cut to 60 characters and "…" when it is longer."""
    return repr(line if len(line) <= 60 else line[:60] + "…")


def _line_atoms(line: str) -> list[Literal]:
    """The atoms of one .dat line, none for a blank or comment-only line."""
    try:
        forms = read_forms(line)
        # A comma is dropped only where it stands alone between two forms.
        return [
            parse_literal(form, allow_negation=True)
            for i, form in enumerate(forms)
            if not (form == "," and 0 < i < len(forms) - 1 and forms[i - 1] != ",")
        ]
    except GoalRecError as exc:
        raise DatasetError(f"unparsable atom: {_quoted(line)} ({exc})") from None


def parse_hypotheses(text: str) -> tuple[frozenset[Literal], ...]:
    """One hypothesis per hyps.dat line that holds atoms; a repeat is an error."""
    hypotheses: list[frozenset[Literal]] = []
    for atoms in map(_line_atoms, text.splitlines()):
        if not atoms:
            continue
        hypothesis = frozenset(atoms)
        if hypothesis in hypotheses:
            names = ", ".join(sorted(lit.canonical() for lit in hypothesis))
            raise DatasetError(f"hypothesis listed twice: {names}")
        hypotheses.append(hypothesis)
    return tuple(hypotheses)


def parse_observations(text: str) -> tuple[str, ...]:
    """Canonical ground action names, one per obs.dat line that holds atoms."""
    names = []
    for line in text.splitlines():
        atoms = _line_atoms(line)
        if not atoms:
            continue
        if len(atoms) != 1 or atoms[0].negated:
            raise DatasetError(f"unparsable observation line: {_quoted(line)}")
        names.append(atoms[0].canonical())
    return tuple(names)


def read_input(path: str | Path) -> str:
    """The text of an input file, which must exist and be UTF-8; a leading
    byte-order mark is dropped."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path} is not UTF-8 text: {exc}") from None


def load_instance(directory: str | Path) -> RecognitionInstance:
    path = Path(directory)
    files = {
        name: read_input(path / name)
        for name in ("domain.pddl", "template.pddl", "hyps.dat", "obs.dat", "real_hyp.dat")
    }

    hypotheses = parse_hypotheses(files["hyps.dat"])
    if not hypotheses:
        raise DatasetError("empty hyps.dat")

    real = parse_hypotheses(files["real_hyp.dat"])
    if len(real) != 1:
        raise DatasetError("real_hyp.dat must hold exactly one hypothesis")
    if real[0] not in hypotheses:
        raise DatasetError("real hypothesis not found among hyps.dat")

    observations = parse_observations(files["obs.dat"])
    if not observations:
        raise DatasetError("empty obs.dat")

    return RecognitionInstance(
        name=path.name,
        domain_text=files["domain.pddl"],
        template_text=files["template.pddl"],
        hypotheses=hypotheses,
        true_goal_index=hypotheses.index(real[0]),
        observations=observations,
    )


# ── Grounding pipeline ───────────────────────────────────────────────────


def build_problem(
    domain_text: str,
    template_text: str,
    hypotheses: tuple[frozenset[Literal], ...],
) -> GroundProblem:
    """Parse and ground, with the hypotheses as the goals.

    The cyclic garbage collector is paused while a problem is built: a build
    makes about four tracked objects per ground action, and each collection
    it triggered would rescan all of them.  Collection never changes a value.
    The caller's collector state is restored on return or raise; a threaded
    caller sees the collector off while a build runs.  The pause defers one
    collection: the first young one after it scans every object the build
    made, at the caller's next allocation (prepare_instance's event list);
    on an 80x80 open grid it took 21-31 ms after a build of 155-239 ms.
    """
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        domain = parse_domain(domain_text)
        # The template is parsed once, with the placeholder read as an empty
        # conjunction.  The hypotheses replace its goal, so any atom left in
        # the template goal would be dropped.
        problem = parse_problem(template_text.replace(HYPOTHESIS_PLACEHOLDER, "(and)"), domain)
        atoms = frozenset(lit for hyp in hypotheses for lit in hyp)
        if problem.goals[0]:
            extra = min(problem.goals[0], key=Literal.canonical)
            kind = "also a hypothesis atom" if extra in atoms else "in no hypothesis"
            raise DatasetError(
                f"template goal atom {extra.canonical()} is {kind}; "
                f"the template goal must hold only {HYPOTHESIS_PLACEHOLDER}"
            )
        # Hypothesis atoms are checked as goal atoms, in canonical order;
        # init was checked with the template.
        validate_problem(problem.objects, {"goal": sorted(atoms, key=Literal.canonical)}, domain)
        return ground(domain, replace(problem, goals=hypotheses))
    finally:
        if paused:
            gc.enable()


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


# statistics.mean and pstdev define the summaries.  Their exact Fraction
# arithmetic costs 6-19 µs a call (Python 3.11), and at --repeats 1 every
# per-λ summary is over one value, as every summary of a one-instance run
# is; about 54 such calls cost more than the rest of a small run's
# bookkeeping.  For one finite value x they return x + 0 (x's type; -0.0
# becomes 0.0) and 0.0.


def _mean(values: list) -> float:
    return values[0] + 0 if len(values) == 1 else mean(values)


def _pstdev(values: list) -> float:
    return 0.0 if len(values) == 1 else pstdev(values)


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
    return _mean([len(s) for s in recognized_sets])


def _check_lambda(lam: float) -> None:
    """Reject an observed fraction outside [0, 1] (NaN included)."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must lie in [0, 1], got {lam}")


def prefix_length(total: int, lam: float) -> int:
    """floor(lam * total) on lam's decimal value: 0.7 * 90 is 63, where the
    float product, 62.99999999999999, would floor to 62."""
    _check_lambda(lam)
    return math.floor(Fraction(str(lam)) * total)


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
    """Per-λ statistics across repeats, λ ascending.  The uniform baseline
    recognizes every goal, so it holds one value for every λ."""

    lambdas: list[float]
    precision_mean: dict[float, float]
    precision_std: dict[float, float]
    spread_mean: dict[float, float]
    spread_std: dict[float, float]
    baseline_precision: float
    baseline_spread: float
    instances: list[InstanceRecord]
    failures: list[tuple[str, str]]
    n_samples: int
    seed: int
    repeats: int
    aggregation: str
    estimation_seconds_per_goal: float
    seconds_per_observation: float

    def to_json(self) -> str:
        per_lambda = {
            "precision_mean": self.precision_mean,
            "precision_std": self.precision_std,
            "spread_mean": self.spread_mean,
            "spread_std": self.spread_std,
            "baseline_precision": dict.fromkeys(self.lambdas, self.baseline_precision),
            "baseline_spread": dict.fromkeys(self.lambdas, self.baseline_spread),
        }
        payload = {
            "config": {
                "n_samples": self.n_samples,
                "seed": self.seed,
                "repeats": self.repeats,
                "aggregation": self.aggregation,
                "lambdas": self.lambdas,
            },
            **{
                key: {str(lam): values[lam] for lam in self.lambdas}
                for key, values in per_lambda.items()
            },
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
        """One row per method: its value at each λ, then its spread at the
        largest λ."""
        top = max(self.lambdas)
        uniform = dict.fromkeys(self.lambdas, self.baseline_precision)
        rows = [("fpv", self.precision_mean, self.spread_mean[top])]
        if self.repeats > 1:
            rows.append(("fpv-std", self.precision_std, self.spread_std[top]))
        rows.append(("uniform", uniform, self.baseline_spread))
        lines = ["method," + ",".join(map(str, self.lambdas)) + ",spread"]
        for method, values, spread_value in rows:
            cells = [values[l] for l in self.lambdas] + [spread_value]
            lines.append(",".join([method, *(f"{v:.4f}" for v in cells)]))
        return "\n".join(lines) + "\n"


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
    for i, lam in enumerate(lambdas):
        _check_lambda(lam)
        if lam in lambdas[:i]:
            raise ParameterError(f"lambda listed twice: {lam}")
    lambdas.sort()  # columns ascend, and the spread column is the largest λ's
    if repeats < 1:
        raise ParameterError(f"repeats must be positive, got {repeats}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if aggregation not in (EMPIRICAL_UNION, NOISY_OR):
        raise ParameterError(f"unknown aggregation: {aggregation}")
    if n_samples < 1:
        raise ParameterError(f"number of samples must be positive, got {n_samples}")
    candidates = sorted(p for p in root.iterdir() if p.is_dir()) if root.is_dir() else []
    if not candidates:
        raise DatasetError(f"no instance directories under {root}")

    failures: list[tuple[str, str]] = []
    truths: list[int] = []
    recognized = [{lam: [] for lam in lambdas} for _ in range(repeats)]
    records: list[InstanceRecord] = []
    estimation_times: list[float] = []
    observation_times: list[float] = []
    for path in candidates:
        try:
            instance = load_instance(path)
            problem, events = prepare_instance(instance)
        except GoalRecError as exc:
            failures.append((path.name, str(exc)))
            continue
        truths.append(instance.true_goal_index)
        goal_count = len(problem.goals)
        total = len(instance.observations)
        for repeat in range(repeats):
            inst_seed = _instance_seed(seed, repeat, instance.name)
            t0 = time.perf_counter()
            tables = estimate_tables(problem, n_samples, inst_seed, aggregation)
            est_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            trace = recognize_online(problem, tables, events)
            obs_seconds = time.perf_counter() - t0
            for lam in lambdas:
                recognized[repeat][lam].append(recognized_at(trace, goal_count, total, lam))
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
        del problem, events  # memory follows the largest instance, not the dataset
    if not truths:
        raise DatasetError(f"all {len(candidates)} instances failed to load")

    precisions = {lam: [precision(r[lam], truths) for r in recognized] for lam in lambdas}
    spreads = {lam: [spread(r[lam]) for r in recognized] for lam in lambdas}

    goal_counts = [rec.goal_count for rec in records]
    return EvaluationReport(
        lambdas=lambdas,
        precision_mean={lam: _mean(v) for lam, v in precisions.items()},
        precision_std={lam: _pstdev(v) for lam, v in precisions.items()},
        spread_mean={lam: _mean(v) for lam, v in spreads.items()},
        spread_std={lam: _pstdev(v) for lam, v in spreads.items()},
        baseline_precision=_mean([1.0 / g for g in goal_counts]),
        baseline_spread=_mean(goal_counts),
        instances=records,
        failures=failures,
        n_samples=n_samples,
        seed=seed,
        repeats=repeats,
        aggregation=aggregation,
        estimation_seconds_per_goal=_mean(estimation_times),
        seconds_per_observation=_mean(observation_times),
    )
