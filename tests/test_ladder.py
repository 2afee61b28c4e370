"""The perf ladder's output files: small runs, checked against their schema."""

import json
import platform
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"

STAGES = {
    "load_instance",
    "prepare_instance",
    "compute_fixpoint",
    "estimate_n10",
    "estimate_n100",
    "recognize_online",
    "run_benchmark",
}


SRC = LADDER.parent.parent / "src"


def _ladder(tmp_path, *options):
    command = [sys.executable, str(LADDER), "--tag", "check", "--sides", "12",
               "--processes", "1", "--output-dir", str(tmp_path), *options]
    result = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    path = tmp_path / "BENCH_check.json"
    assert result.stdout.strip() == str(path)
    return json.loads(path.read_text(encoding="utf-8"))


def _check_precision(recognized):
    """What was recognized at 12x12: the true goal alone, after the last
    observation with either table size and over the whole plan in run_benchmark."""
    assert set(recognized) == {"true_goal", "recognized", "run_benchmark"}
    assert recognized["true_goal"] == 1
    assert recognized["recognized"] == {"n10": [1], "n100": [1]}
    assert list(recognized["run_benchmark"]) == [str(lam / 10) for lam in range(1, 11)]
    assert recognized["run_benchmark"]["1.0"] == 1.0


# A 12x12 open grid: one fact per cell, one move per directed edge.
GRID_12 = {"facts": 144, "actions": 528, "goals": 10, "observations": 9}


def test_ladder_writes_its_schema_at_the_smallest_side(tmp_path):
    bench = _ladder(tmp_path)
    assert set(bench) == {
        "tag", "git_revision", "git_dirty", "python", "numpy", "cores", "processes",
        "seeds", "goals", "block_prob", "numpy_random_import_s", "sizes",
    }
    assert bench["tag"] == "check"
    assert bench["processes"] == 1
    assert bench["seeds"] == {"grid": 7, "estimate": 0}
    assert (bench["goals"], bench["block_prob"]) == (10, 0.0)
    assert bench["python"] == platform.python_version()
    assert isinstance(bench["numpy"], str) and bench["cores"] >= 1
    assert bench["numpy_random_import_s"] >= 0

    (row,) = bench["sizes"]
    assert {k: v for k, v in row.items() if k not in ("precision", "seconds")} == {
        "side": 12, **GRID_12,
    }
    _check_precision(row["precision"])
    assert set(row["seconds"]) == STAGES
    for stage in row["seconds"].values():
        assert len(stage["runs"]) == 1
        assert stage["best"] == min(stage["runs"]) > 0


def test_paired_ladder_writes_both_sources_in_one_file(tmp_path):
    # One pair of the same tree: the schema, not a difference, is checked.
    bench = _ladder(tmp_path, "--against", str(SRC), "--pairs", "1")
    assert set(bench) == {
        "tag", "sources", "python", "numpy", "cores", "processes", "seeds", "goals",
        "block_prob", "pairs", "numpy_random_import_s", "sizes",
    }
    assert (bench["tag"], bench["pairs"], bench["processes"]) == ("check", 1, 1)
    assert set(bench["sources"]) == {"against", "change"}
    for source in bench["sources"].values():
        assert set(source) == {"git_revision", "git_dirty"}
    assert set(bench["numpy_random_import_s"]) == {"against", "change"}

    (row,) = bench["sizes"]
    assert set(row) == {"side", "against", "change", "seconds"}
    assert row["side"] == 12
    for name in ("against", "change"):
        assert {k: v for k, v in row[name].items() if k != "precision"} == GRID_12
        _check_precision(row[name]["precision"])
    assert set(row["seconds"]) == STAGES
    for stage in row["seconds"].values():
        assert set(stage) == {"against", "change", "change_lower"}
        for name in ("against", "change"):
            side = stage[name]
            assert set(side) == {"runs", "pair_bests", "median_best"}
            (pair,) = side["runs"]
            assert len(pair) == 1
            assert side["pair_bests"] == [min(pair)]
            assert side["median_best"] == min(pair) > 0
        lower = stage["change"]["pair_bests"][0] < stage["against"]["pair_bests"][0]
        assert stage["change_lower"] == int(lower)
