"""Workloads, output checks and one measured round of the benchmark.

A round drives goalrec only through its public functions, looked up as
module attributes so that a traced run sees the same calls.  Per instance:

* set-up: ``load_instance``, ``prepare_instance`` and ``estimate`` for every
  goal;
* observe: ``recognize_online`` over the instance's observations, repeated;
* oracle pass (oracle-grid only): ``exact_oracle`` for every goal;
* batch: ``run_benchmark`` over the instance's dataset, as ``goalrec bench``;
  over the workload this is ``goalrec bench`` on all of its instances.

Every call is an attempted operation; one that raises or fails an output
check is a failed one.  Operations are kept short (milliseconds to a few
tenths of a second) and each is timed once per round, so that a run holds
many samples of each.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import gen
from goalrec import bench, probability, recognition
from goalrec.probability import DEFAULT_N_SAMPLES, EMPIRICAL_UNION, NOISY_OR

FINAL_SCORE_TOLERANCE = 1e-9
DIGEST_DECIMALS = 9
# recognize_online is repeated on an instance's short stream until it has
# covered this many observations in a round, so a run holds many samples.
OBSERVATIONS_PER_ROUND = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[Path, np.random.Generator], None]
    n_samples: int = DEFAULT_N_SAMPLES
    aggregation: str = EMPIRICAL_UNION
    report_precision: bool = False  # observations are goal-directed plans
    oracle: bool = False
    check_plans: bool = False  # observations must be applicable from s0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-ground",
            "open grids: the grounder enumerates cells^2 bindings and keeps about 4 %, "
            "so ground dominates prepare; sampling and recognition are light",
            partial(gen.grid_ground, sides=(7, 8, 9, 10) * 2, n_goals=10),
            report_precision=True,
        ),
        Workload(
            "logistics",
            "typed logistics with conjunctive goals: grounding is small, the wide shallow RPG "
            "makes supporter sampling dominate; noisy-or and multi-subgoal merging",
            partial(
                gen.logistics,
                n_instances=6,
                n_locations=10,
                chord_step=3,
                n_trucks=2,
                n_packages=5,
                n_hyps=4,
                atoms_per_hyp=3,
            ),
            n_samples=50,
            aggregation=NOISY_OR,
            report_precision=True,
            check_plans=True,
        ),
        Workload(
            "oracle-grid",
            "small open grids from a corner: the only workload that runs exact_oracle, "
            "and where estimator tables are scored against exact ones",
            partial(gen.oracle_grid, sides=(8, 9, 10)),
            oracle=True,
        ),
    )
}


# ── Output checks ────────────────────────────────────────────────────────


def check_table(problem, table, exact: bool = False) -> str | None:
    """None when the table is well formed, else what is wrong with it.

    Every table lies in [0, 1]; an estimated one is 1 on s0 and, for a
    reachable empirical-union goal, 1 on each of its goal facts.
    """
    p = np.asarray(table.p, dtype=float)
    if p.shape != (problem.fact_count,):
        return f"table has {p.shape} entries for {problem.fact_count} facts"
    if not np.all((p >= 0.0) & (p <= 1.0)):
        return "table has p outside [0, 1]"
    if exact:
        return None
    if not np.all(p[sorted(problem.s0)] == 1.0):
        return "table has p != 1 on s0"
    if table.source == EMPIRICAL_UNION and not table.unreachable:
        goal = sorted(problem.goals[table.goal_index])
        if not np.all(p[goal] == 1.0):
            return "empirical-union table has p != 1 on a goal fact"
    return None


def check_trace(trace, n_observations: int) -> str | None:
    """One step per observation, each recognizing the argmax of its scores."""
    if len(trace.steps) != n_observations:
        return f"trace has {len(trace.steps)} steps for {n_observations} observations"
    for step in trace.steps:
        top = max(step.heuristic)
        if list(step.recognized) != [i for i, h in enumerate(step.heuristic) if h == top]:
            return f"step {step.t}: recognized set is not the argmax of its scores"
    return None


def check_final(trace, result) -> str | None:
    """The last online scores equal recognize() on the whole stream."""
    final = trace.steps[-1].heuristic
    offline = [result.heuristic[i] for i in range(len(final))]
    if max(abs(a - b) for a, b in zip(final, offline)) > FINAL_SCORE_TOLERANCE:
        return "final online scores differ from recognize() on the full stream"
    return None


class Digest:
    """Hash of outputs (tables rounded to 1e-9, recognized sets) so runs can
    be compared; not a golden gate."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def values(self, label: str, values) -> None:
        rounded = np.round(np.asarray(values, dtype=float), DIGEST_DECIMALS) + 0.0
        self._hash.update(label.encode())
        self._hash.update(rounded.tobytes())

    def text(self, label: str, value) -> None:
        self._hash.update(f"{label}={value!r}".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


# ── One round ────────────────────────────────────────────────────────────


@dataclass
class Round:
    # Timings per (phase, operation): setup (load, prepare and each estimate
    # of an instance), observe, oracle (each goal) and batch per instance.
    seconds: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    observations: int = 0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    precision: dict[str, float] = field(default_factory=dict)
    table_mae: dict[str, list[float]] = field(default_factory=dict)
    digest: str = ""
    oracle_digest: str = ""  # of the oracle tables, in rounds that ran the oracle pass

    @property
    def failed(self) -> int:
        return len(self.errors)

    def add(self, phase: str, operation: str, seconds: float) -> None:
        self.seconds.setdefault((phase, operation), []).append(seconds)


def _check(out: Round, where: str, check, *args) -> bool:
    """Run an output check; record a failure on the round."""
    fault = check(*args)
    if fault is not None:
        out.errors.append(f"{where}: {fault}")
    return fault is None


def _call(out: Round, key, where: str, fn, *args, **kwargs):
    """One timed operation, recorded under key (phase, operation) unless key
    is None; returns its result, or None when it raised."""
    out.attempted += 1
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failing operation is counted, not fatal
        out.errors.append(f"{where}: {type(exc).__name__}: {exc}")
        return None
    if key is not None:
        out.add(*key, time.perf_counter() - start)
    return result


def generate(workload: Workload, root: Path, rng: np.random.Generator) -> None:
    """Write the workload's instances, each alone in a dataset directory of
    its own (root/NAME/NAME), so that the batch pass can time
    run_benchmark per instance."""
    staging = root / "staging"
    workload.generate(staging, rng)
    for instance in sorted(staging.iterdir()):
        (root / instance.name).mkdir()
        instance.rename(root / instance.name / instance.name)
    staging.rmdir()


def run_round(workload: Workload, root: Path, seed: int, first: bool, traced: bool = False) -> Round:
    """Run the workload once over the datasets under root (see generate()).

    ``first`` adds what only needs doing once per run: generated
    observations are applicable plans, estimator accuracy against the exact
    tables, the output checks, and the oracle pass, which also runs in
    every traced round.  Every other round does the same work and must give
    the same digest.
    """
    out = Round()
    digest = Digest()
    oracle_digest = Digest()
    checked = first
    oracle = workload.oracle and (first or traced)
    precision: dict[str, list[float]] = {}

    for dataset in sorted(p for p in root.iterdir() if p.is_dir()):
        name = dataset.name
        instance = _call(out, ("setup", f"{name}/load"), f"{name}: load", bench.load_instance, dataset / name)
        if instance is None:
            continue
        prepared = _call(out, ("setup", f"{name}/prepare"), f"{name}: prepare", bench.prepare_instance, instance)
        if prepared is None:
            continue
        problem, events = prepared
        if first and workload.check_plans:
            out.attempted += 1
            _check(out, f"{name}: generated plan", gen.apply_plan, problem, [e.action_id for e in events])

        tables = []
        for g in range(len(problem.goals)):
            table = _call(
                out, ("setup", f"{name}/estimate/{g}"), f"{name}: estimate {g}", probability.estimate,
                problem, g, workload.n_samples, seed, workload.aggregation,
            )
            if table is None or (checked and not _check(out, f"{name}: table {g}", check_table, problem, table)):
                break
            tables.append(table)
            digest.values(f"{name}/table/{g}", table.p)
        if len(tables) != len(problem.goals):
            continue

        repeats = -(-OBSERVATIONS_PER_ROUND // len(events))
        for _ in range(repeats):
            trace = _call(
                out, ("observe", name), f"{name}: recognize", recognition.recognize_online, problem, tables, events
            )
            if trace is None:
                break
        if trace is None:
            continue
        out.observations += len(events)
        if checked and _check(out, f"{name}: trace", check_trace, trace, len(events)):
            _check(
                out, f"{name}: final scores",
                lambda: check_final(trace, recognition.recognize(problem, tables, events)),
            )
        digest.text(f"{name}/recognized", [s.recognized for s in trace.steps])

        for g in range(len(tables) if oracle else 0):
            exact = _call(out, ("oracle", f"{name}/{g}"), f"{name}: oracle {g}", probability.exact_oracle, problem, g)
            if exact is None or (checked and not _check(out, f"{name}: oracle {g}", check_table, problem, exact, True)):
                continue
            oracle_digest.values(f"{name}/oracle/{g}", exact.p)
            if first:
                _score_estimator(out, problem, g, seed, exact)

        report = _call(
            out, ("batch", name), f"{name}: run_benchmark", bench.run_benchmark,
            dataset, n_samples=workload.n_samples, seed=seed, aggregation=workload.aggregation,
        )
        if report is None:
            continue
        if report.failures:
            out.errors.append(f"{name}: run_benchmark failed {report.failures}")
        for lam in (0.3, 1.0):
            precision.setdefault(f"precision_lam{lam}", []).append(report.precision_mean[lam])

    # run_benchmark's precision is a mean over instances, so the mean of the
    # per-instance reports is the dataset's.
    out.precision = {key: sum(values) / len(values) for key, values in precision.items()}
    digest.text("precision", sorted(out.precision.items()))
    out.digest = digest.hexdigest()
    out.oracle_digest = oracle_digest.hexdigest() if oracle else ""
    return out


def _score_estimator(out: Round, problem, goal_index: int, seed: int, exact) -> None:
    """Mean |p_hat - p| per fact at the default sample count, per aggregation."""
    for aggregation in (EMPIRICAL_UNION, NOISY_OR):
        table = _call(
            out, None, f"estimate {goal_index} for accuracy", probability.estimate,
            problem, goal_index, DEFAULT_N_SAMPLES, seed, aggregation,
        )
        if table is not None:
            mae = float(np.mean(np.abs(np.asarray(table.p) - np.asarray(exact.p))))
            out.table_mae.setdefault(f"table_mae.{aggregation}", []).append(mae)
