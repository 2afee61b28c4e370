"""Traced run: wrap goalrec's public functions from outside and time them.

Each layer function is replaced at every goalrec module attribute that
refers to it, so calls made inside goalrec (for example
``goalrec.bench.ground`` or ``goalrec.probability.sample_subgoal_supporters``)
are seen with their real parent/child nesting.  Nothing under ``src/`` is
edited.  A span records name, start, end, parent span and instance id; the
aggregates (total, self time, calls and counts) are kept per span name.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Functions wrapped as spans, by module under goalrec.
SPANS = (
    ("bench", "run_benchmark"),
    ("bench", "load_instance"),
    ("bench", "prepare_instance"),
    ("pddl", "parse_domain"),
    ("pddl", "parse_problem"),
    ("negation", "compile_negations"),
    ("grounding", "ground"),
    ("relaxed", "build_rpg"),
    ("sampling", "sample_subgoal_supporters"),
    ("sampling", "generate_goal_supporters"),
    ("probability", "estimate"),
    ("probability", "exact_oracle"),
    ("recognition", "recognize_online"),
    ("recognition", "heuristic"),
    ("recognition", "progress"),
    ("recognition", "map_state"),
)
# Generators whose yielded items are counted instead of timed.
COUNTED = (("grounding", "ground_instantiations", "grounding.bindings"),)


class Tracer:
    """Span stack and per-name aggregates for one traced round at a time."""

    def __init__(self):
        self.record = False
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, child seconds, instance]
        self._next_id = 0
        self._instance_of: dict[int, str] = {}
        self._patched: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    # ── Installing the wrappers ──────────────────────────────────────────

    def install(self) -> None:
        self.absent = []
        modules = [m for n, m in list(sys.modules.items()) if n == "goalrec" or n.startswith("goalrec.")]
        for mod, fn in SPANS:
            self._patch(modules, mod, fn, lambda name, f: self._span(name, f))
        for mod, fn, counter in COUNTED:
            self._patch(modules, mod, fn, lambda name, f, c=counter: self._counted(c, f))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, modules, mod: str, fn: str, make) -> None:
        name = f"{mod}.{fn}"
        try:
            original = getattr(importlib.import_module(f"goalrec.{mod}"), fn)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        wrapper = make(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    # ── Wrappers ─────────────────────────────────────────────────────────

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0, self._instance(name, args, parent)]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.total[name] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                if self.record:
                    self.spans.append(
                        (frame[0], parent[0] if parent else None, name, start, end, frame[2])
                    )
            self._observe(name, args, result)
            return result

        return traced

    def _counted(self, counter: str, fn):
        def counted(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self.counts[counter] += n

        return counted

    def _instance(self, name: str, args, parent) -> str | None:
        """Instance id: the directory being loaded, the instance being
        prepared, or the one whose GroundProblem is passed; else the parent's."""
        if name == "bench.load_instance":
            return Path(args[0]).name
        if name == "bench.prepare_instance":
            return args[0].name
        if args and hasattr(args[0], "action_ids") and id(args[0]) in self._instance_of:
            return self._instance_of[id(args[0])]
        return parent[2] if parent else None

    def _observe(self, name: str, args, result) -> None:
        """Counts taken from a layer's result, where the work happens."""
        c = self.counts
        if name == "bench.prepare_instance":
            self._instance_of[id(result[0])] = args[0].name
        elif name == "grounding.ground":
            c["grounding.actions"] += len(result.actions)
            c["grounding.facts"] += result.fact_count
        elif name == "relaxed.build_rpg":
            c["relaxed.levels"] += result.levels
            c["relaxed.unreachable"] += int(result.unreachable)
        elif name == "sampling.sample_subgoal_supporters":
            c["sampling.samples"] += len(result)
            c["sampling.supporters"] += sum(len(s.actions) for s in result)
        elif name == "recognition.recognize_online":
            c["recognition.observations"] += len(result.steps)

    # ── Output ───────────────────────────────────────────────────────────

    def write_spans(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start", "end", "instance")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# Per-layer metrics: name, unit, better, the layer it needs, and its value
# from one traced round.
PER_LAYER = (
    ("grounding.ground.s", "s", "lower", "grounding.ground", lambda t: t.total["grounding.ground"]),
    ("grounding.bindings", "count", "lower", "grounding.ground_instantiations", lambda t: t.counts["grounding.bindings"]),
    ("grounding.actions", "count", "lower", "grounding.ground", lambda t: t.counts["grounding.actions"]),
    ("grounding.facts", "count", "lower", "grounding.ground", lambda t: t.counts["grounding.facts"]),
    ("grounding.yield", "ratio", "higher", "grounding.ground_instantiations",
     lambda t: _ratio(t.counts["grounding.actions"], t.counts["grounding.bindings"])),
    ("pddl.parse_domain.s", "s", "lower", "pddl.parse_domain", lambda t: t.total["pddl.parse_domain"]),
    ("pddl.parse_problem.s", "s", "lower", "pddl.parse_problem", lambda t: t.total["pddl.parse_problem"]),
    ("negation.compile_negations.s", "s", "lower", "negation.compile_negations",
     lambda t: t.total["negation.compile_negations"]),
    ("bench.load_instance.s", "s", "lower", "bench.load_instance", lambda t: t.total["bench.load_instance"]),
    ("relaxed.build_rpg.s", "s", "lower", "relaxed.build_rpg", lambda t: t.total["relaxed.build_rpg"]),
    ("relaxed.build_rpg.calls", "count", "lower", "relaxed.build_rpg", lambda t: t.calls["relaxed.build_rpg"]),
    ("relaxed.levels", "count", "lower", "relaxed.build_rpg", lambda t: t.counts["relaxed.levels"]),
    ("relaxed.unreachable", "count", "lower", "relaxed.build_rpg", lambda t: t.counts["relaxed.unreachable"]),
    ("sampling.sample_subgoal_supporters.s", "s", "lower", "sampling.sample_subgoal_supporters",
     lambda t: t.total["sampling.sample_subgoal_supporters"]),
    ("sampling.sample_subgoal_supporters.calls", "count", "lower", "sampling.sample_subgoal_supporters",
     lambda t: t.calls["sampling.sample_subgoal_supporters"]),
    ("sampling.samples", "count", "lower", "sampling.sample_subgoal_supporters",
     lambda t: t.counts["sampling.samples"]),
    ("sampling.supporters_per_set", "actions/set", "lower", "sampling.sample_subgoal_supporters",
     lambda t: _ratio(t.counts["sampling.supporters"], t.counts["sampling.samples"])),
    ("sampling.generate_goal_supporters.s", "s", "lower", "sampling.generate_goal_supporters",
     lambda t: t.total["sampling.generate_goal_supporters"]),
    ("probability.estimate.calls", "count", "lower", "probability.estimate", lambda t: t.calls["probability.estimate"]),
    ("probability.estimate.self_s", "s", "lower", "probability.estimate", lambda t: t.self_s["probability.estimate"]),
    ("probability.exact_oracle.s", "s", "lower", "probability.exact_oracle",
     lambda t: t.total["probability.exact_oracle"]),
    ("probability.exact_oracle.calls", "count", "lower", "probability.exact_oracle",
     lambda t: t.calls["probability.exact_oracle"]),
    ("recognition.recognize_online.self_s", "s", "lower", "recognition.recognize_online",
     lambda t: t.self_s["recognition.recognize_online"]),
    ("recognition.heuristic.calls", "count", "lower", "recognition.heuristic", lambda t: t.calls["recognition.heuristic"]),
    ("recognition.heuristic.s", "s", "lower", "recognition.heuristic", lambda t: t.total["recognition.heuristic"]),
    ("recognition.progress.s", "s", "lower", "recognition.progress", lambda t: t.total["recognition.progress"]),
    ("recognition.map_state.s", "s", "lower", "recognition.map_state", lambda t: t.total["recognition.map_state"]),
    ("recognition.observations", "count", "lower", "recognition.recognize_online",
     lambda t: t.counts["recognition.observations"]),
    ("bench.prepare_instance.s", "s", "lower", "bench.prepare_instance", lambda t: t.total["bench.prepare_instance"]),
    ("bench.run_benchmark.self_s", "s", "lower", "bench.run_benchmark", lambda t: t.self_s["bench.run_benchmark"]),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of the last traced round; layers that no longer exist
    are left out rather than reported as zero."""
    return {
        name: float(value(tracer))
        for name, _, _, layer, value in PER_LAYER
        if layer not in tracer.absent
    }
