"""Golden estimator tables: the sha256 of every table's bytes is pinned.

The hashes were taken before the relaxed planning graph became one
fixpoint per problem and the sampler's level scan became a first-achiever
lookup; any change to candidate order, the min-count filter or the random
stream shows up here as a different hash.
"""

import hashlib

import numpy as np
import pytest

from goalrec.bench import build_problem, load_instance, prepare_instance
from goalrec.gridgen import DOMAIN_TEXT, random_grid, template_text
from goalrec.probability import EMPIRICAL_UNION, NOISY_OR, estimate

from atoms import parse_hypothesis_line
from conftest import COMMENTED, fixture_dir

N_SAMPLES = 30
SEED = 5

# (case, aggregation) -> sha256 of estimate(...).p.tobytes(), one per goal.
GOLDEN = {
    ("grid", EMPIRICAL_UNION): (
        "60fe91efb797ab8725cf3adcd8d1b85fee3e146aa92abb2aaa007157e89dc8a5",
        "6d6ec875d5ff6d637f87bc96f24411fd08831842799397e425ca37401163995a",
    ),
    ("grid", NOISY_OR): (
        "804926c6c8182dbc77dccb075583b35bb700d6c3001cd6a8cd646583bcaca97b",
        "fdca7e9b5c3b913d95b1755a033c2fa64d0f7abe9c25235f59cd514a196d13a3",
    ),
    ("chain", EMPIRICAL_UNION): (
        "30d5d2fa3aa6c99a0a6b89e0c017f95ec70a6c24aa026ffbbd189b2e559208b9",
        "6e91e92205f42beb0df4ddf13cf0af352b29ffd2de9465348cdb1447a324e828",
    ),
    ("chain", NOISY_OR): (
        "30d5d2fa3aa6c99a0a6b89e0c017f95ec70a6c24aa026ffbbd189b2e559208b9",
        "6e91e92205f42beb0df4ddf13cf0af352b29ffd2de9465348cdb1447a324e828",
    ),
    ("logistics", EMPIRICAL_UNION): (
        "2656c5fd523098f25be0e7c3a4934655400cf6b87db00e7628d94ddf98725465",
        "c3b76a8f74754338e907cf5f8b82b395025492c0c3234b1f31e438c2797db1c0",
    ),
    ("logistics", NOISY_OR): (
        "2656c5fd523098f25be0e7c3a4934655400cf6b87db00e7628d94ddf98725465",
        "c3b76a8f74754338e907cf5f8b82b395025492c0c3234b1f31e438c2797db1c0",
    ),
    ("random-12x12", EMPIRICAL_UNION): (
        "5592b2c9cb4dbfb723f0de26aefb24b02eeedd3ca200c3e2be450c95c87f456b",
        "4251fc38287b3a203a5ff36a767892fa0119ae1d01e3a3d201e10ea6b450e88c",
        "d89cd3d80d7283a8d0988ae4e7e6ec624a31428f7e38f9acb42c88d56a7fb70d",
        "9f4fcd973d48571ff7e408652e12ea6935f96650daefc57b3c35799803d45221",
        "12299c950e053caf8e99522a28dbb880a1a23f4d7569d4244393c9e8da6e2611",
    ),
    ("random-12x12", NOISY_OR): (
        "bca68e2d039314e6a3a58a81f7e2e8d2a25c43aab197664a8c4beeee29f07b68",
        "d043dec4f9339ebd1800afd88df684d2fb05aaba253e7f88b35049fef308113b",
        "d89cd3d80d7283a8d0988ae4e7e6ec624a31428f7e38f9acb42c88d56a7fb70d",
        "9f4fcd973d48571ff7e408652e12ea6935f96650daefc57b3c35799803d45221",
        "6dc9f0f2e8a8cfb42cee69c5d3ff21bf71712e1330b1297ce41385ab4ffe006d",
    ),
}


# A commented copy of each fixture must give the fixture's own tables.
CASES = sorted(GOLDEN) + [
    (case + COMMENTED, aggregation) for case, aggregation in sorted(GOLDEN) if case != "random-12x12"
]


def _problem(case, tmp_path):
    if case == "random-12x12":
        spec = random_grid(np.random.default_rng(12), width=12, height=12, n_goals=5)
        hyps = tuple(parse_hypothesis_line(f"(is-at {g})") for g in spec.goal_cells)
        return build_problem(DOMAIN_TEXT, template_text(spec), hyps)
    return prepare_instance(load_instance(fixture_dir(case, tmp_path)))[0]


@pytest.mark.parametrize("case,aggregation", CASES)
def test_tables_match_golden_hashes(case, aggregation, tmp_path):
    problem = _problem(case, tmp_path)
    digests = tuple(
        hashlib.sha256(estimate(problem, i, N_SAMPLES, SEED, aggregation).p.tobytes()).hexdigest()
        for i in range(len(problem.goals))
    )
    assert digests == GOLDEN[(case.removesuffix(COMMENTED), aggregation)]
