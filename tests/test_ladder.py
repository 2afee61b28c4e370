"""The perf ladder's output file: one small run, checked against its schema."""

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


def test_ladder_writes_its_schema_at_the_smallest_side(tmp_path):
    command = [sys.executable, str(LADDER), "--tag", "check", "--sides", "12",
               "--processes", "1", "--output-dir", str(tmp_path)]
    result = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    path = tmp_path / "BENCH_check.json"
    assert result.stdout.strip() == str(path)

    bench = json.loads(path.read_text(encoding="utf-8"))
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
    # A 12x12 open grid: one fact per cell, one move per directed edge.
    assert {k: v for k, v in row.items() if k not in ("precision", "seconds")} == {
        "side": 12, "facts": 144, "actions": 528, "goals": 10, "observations": 9,
    }
    # What was recognized: the true goal alone, after the last observation
    # with either table size and over the whole plan in run_benchmark.
    recognized = row["precision"]
    assert set(recognized) == {"true_goal", "recognized", "run_benchmark"}
    assert recognized["true_goal"] == 1
    assert recognized["recognized"] == {"n10": [1], "n100": [1]}
    assert list(recognized["run_benchmark"]) == [str(lam / 10) for lam in range(1, 11)]
    assert recognized["run_benchmark"]["1.0"] == 1.0
    assert set(row["seconds"]) == STAGES
    for stage in row["seconds"].values():
        assert len(stage["runs"]) == 1
        assert stage["best"] == min(stage["runs"]) > 0
