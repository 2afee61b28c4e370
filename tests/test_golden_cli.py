"""Golden CLI outputs: the sha256 of what each command writes is pinned.

Covers `goalrec estimate` CSVs under both aggregations, `goalrec
recognize` stdout (JSON, text and `--at-lambda 0`) and `goalrec bench`'s
precision.csv and report.json (timing fields removed) on the grid and
logistics fixtures, and on copies of them with a comment on every line,
at a fixed seed.  Any
change to argument handling, problem loading, the random stream or the
output formats shows up here as a different hash.
"""

import hashlib
import json
import shutil

import pytest

from goalrec.cli import EXIT_OK, main
from goalrec.probability import EMPIRICAL_UNION, NOISY_OR

from conftest import COMMENTED, fixture_dir

N_SAMPLES = 30
SEED = 3
CASES = ("grid", "logistics", "grid" + COMMENTED, "logistics" + COMMENTED)

# (fixture, output) -> sha256; estimate outputs hold one digest per goal CSV.
# A fixture's commented copy must give the fixture's own digests.
GOLDEN = {
    ("grid", "estimate", EMPIRICAL_UNION): (
        "e81a9dc299f8a248e2ee58a69cd4c7c6438fc2a68f236588a95ceb4324ec4d08",
        "15b856d2517acd0a9fe412d6e066079dcca65e9ee38413ce608f550c37534b68",
    ),
    ("grid", "estimate", NOISY_OR): (
        "c25f0e8110bbb6e31999e15697c990dab82f84991ad198e6c6db22e67c32b25d",
        "1d4c3248a1a7366650a965d6a72cef0da761cd107babd64b2765787f470defc2",
    ),
    ("grid", "recognize-json"): "698ca62f4f011d0686ab509a1d5188ee270f7de6f1ca0d5810b613dd12aea96f",
    ("grid", "recognize-text"): "30489920cc47a24593a5b162f4d3c1c73411adaaff0af5806176f82219397095",
    ("grid", "recognize-lambda0"): "998fc62bbb6a20a91ac2512c37fb30602bffc2738c45406696a4344bc231da2d",
    ("grid", "bench"): "f93fe0dcf7d36fb038462369947fa88c94db39c056017e134ef6d1b2a9b3874d",
    ("logistics", "estimate", EMPIRICAL_UNION): (
        "95baa4e206b81b6f9f709861fac5750892edbc9664187d18bec24b140fb1d47f",
        "d69a2260ea791fcdc42d2a485baef01cf7f2c29a336db309eeda5e6d226898bd",
    ),
    ("logistics", "estimate", NOISY_OR): (
        "57ebad336ae1bb7dbd67983e730392d4af0525b5cb648a126fcd449ccbfade85",
        "63497cc19b635b9baf5aa56f9383c32d0587687b6c398b5d5b29a91befc9c11b",
    ),
    ("logistics", "recognize-json"): "828625b457f447400cbcc846a10a9fd213f2ad3b0895000259b71078f7f35dbf",
    ("logistics", "recognize-text"): "cf860c2503d4b2c11975be4ed83ef03a3210bc98c673449f5edc5f817754547d",
    ("logistics", "recognize-lambda0"): "998fc62bbb6a20a91ac2512c37fb30602bffc2738c45406696a4344bc231da2d",
    ("logistics", "bench"): "aeebdf0150481a99557a1955cdbfa16ac190934b91eb44a30c77c72a6daa6179",
    ("grid", "report"): "09b203c5d9e0216e98b0622d7bc20e906a3af134926c09dfe9e0060ea6a10a85",
    ("logistics", "report"): "5d074c790492f87f8663f1473e3faae3356fb241414d805f81050bbb1c55cd61",
}


def _sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _golden(case, *output):
    return GOLDEN[(case.removesuffix(COMMENTED), *output)]


def _problem_args(command, root, *extra):
    return [
        command,
        "--domain", str(root / "domain.pddl"),
        "--template", str(root / "template.pddl"),
        "--hyps", str(root / "hyps.dat"),
        "--n-samples", str(N_SAMPLES),
        "--seed", str(SEED),
        *extra,
    ]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("aggregation", [EMPIRICAL_UNION, NOISY_OR])
def test_estimate_csvs(case, aggregation, tmp_path, capsys):
    root = fixture_dir(case, tmp_path)
    code = main(
        _problem_args("estimate", root, "--aggregation", aggregation, "--output", str(tmp_path))
    )
    assert code == EXIT_OK
    written = sorted(tmp_path.glob("goal_*.csv"))
    assert capsys.readouterr().out.splitlines() == [str(p) for p in written]
    digests = tuple(_sha(p.read_bytes()) for p in written)
    assert digests == _golden(case, "estimate", aggregation)


RECOGNIZE_FLAGS = {
    "recognize-json": ("--format", "json"),
    "recognize-text": ("--format", "text"),
    "recognize-lambda0": ("--at-lambda", "0"),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("output", sorted(RECOGNIZE_FLAGS))
def test_recognize_stdout(case, output, tmp_path, capsys):
    root = fixture_dir(case, tmp_path)
    obs = str(root / "obs.dat")
    code = main(_problem_args("recognize", root, "--obs", obs, *RECOGNIZE_FLAGS[output]))
    assert code == EXIT_OK
    assert _sha(capsys.readouterr().out) == _golden(case, output)


def _bench(case, tmp_path):
    """Run `goalrec bench` over one fixture; return its output directory."""
    dataset = tmp_path / "dataset"
    root = fixture_dir(case, tmp_path)
    shutil.copytree(root, dataset / root.name)
    out = tmp_path / "out"
    code = main(
        [
            "bench",
            "--dataset", str(dataset),
            "--n-samples", str(N_SAMPLES),
            "--seed", str(SEED),
            "--repeats", "2",
            "--output", str(out),
        ]
    )
    assert code == EXIT_OK
    return out


@pytest.mark.parametrize("case", CASES)
def test_bench_precision_csv(case, tmp_path, capsys):
    out = _bench(case, tmp_path)
    assert _sha((out / "precision.csv").read_bytes()) == _golden(case, "bench")


@pytest.mark.parametrize("case", CASES)
def test_bench_report_json(case, tmp_path, capsys):
    """Everything but the wall-clock fields, re-serialized as bench writes it."""
    text = (_bench(case, tmp_path) / "report.json").read_text()
    payload = json.loads(text)
    assert json.dumps(payload, indent=2) == text
    del payload["timing"]
    for record in payload["instances"]:
        del record["estimation_seconds"]
    assert _sha(json.dumps(payload, indent=2)) == _golden(case, "report")
