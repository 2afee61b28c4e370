"""Run the benchmark harness over the bundled fixtures.

Reports mean precision per observability fraction (lambda), the average
recognized-set size (spread), and the uniform all-goals baseline, which
does not depend on lambda, over repeated runs with derived seeds.
"""

from pathlib import Path

from goalrec import run_benchmark

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    report = run_benchmark(FIXTURES, seed=0, repeats=5)

    print(f"instances: {[r.name for r in report.instances]}")
    print(f"repeats: {report.repeats}, samples per goal: {report.n_samples}")
    print()
    print("lambda   precision  (std)    spread")
    for lam in report.lambdas:
        print(
            f"{lam:6.1f}   {report.precision_mean[lam]:9.3f}  "
            f"({report.precision_std[lam]:.3f})  {report.spread_mean[lam]:6.2f}"
        )
    print()
    print(
        f"uniform baseline (every goal, any lambda): precision "
        f"{report.baseline_precision:.3f}, spread {report.baseline_spread:.2f}"
    )
    print(f"estimation time per goal: {report.estimation_seconds_per_goal * 1e3:.2f} ms")
    print(f"time per observation:     {report.seconds_per_observation * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
