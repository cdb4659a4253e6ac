"""Compare disorder robustness across gap-curvature values.

Runs the static-disorder Monte Carlo for each (target, m, sigma) cell
and writes the summary statistics to CSV, together with the pooled
standard error between the first and last m for each cell.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from domechain import (
    DisorderConfig,
    DisorderTarget,
    DomeParams,
    SweepMetric,
    sweep_coherent,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sites", type=int, default=5)
    ap.add_argument("--m-values", type=int, nargs="+", default=[2, 102])
    ap.add_argument("--sigmas", type=float, nargs="+", default=[0.25, 0.5, 1.0])
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument(
        "--targets", nargs="+",
        default=[t.value for t in DisorderTarget],
        choices=[t.value for t in DisorderTarget],
    )
    ap.add_argument("--output", type=Path, default=Path("disorder_sweep.csv"))
    args = ap.parse_args()

    rows = []
    for target_name in args.targets:
        target = DisorderTarget(target_name)
        results = {}
        for m in args.m_values:
            system = DomeParams(N=args.sites, m=m, J=1.0)
            cfg = DisorderConfig(
                target=target,
                sigma=args.sigmas[0],
                seed=args.seed,
                samples=args.samples,
            )
            result = sweep_coherent(
                system,
                cfg,
                SweepMetric.BELL_AT_QUARTER_T,
                sigmas=args.sigmas,
            )
            results[m] = result
            for sigma, mean, std, n_ok in zip(
                result.axis, result.mean, result.std, result.samples
            ):
                rows.append([target.value, m, sigma, mean, std, n_ok])
        first, last = args.m_values[0], args.m_values[-1]
        if first != last:
            a, b = results[first], results[last]
            pooled = np.sqrt(a.stderr**2 + b.stderr**2)
            for i, sigma in enumerate(a.axis):
                gain = b.mean[i] - a.mean[i]
                rows.append(
                    [f"{target.value}:gain_{first}_to_{last}",
                     "", sigma, gain, pooled[i], gain / pooled[i]]
                )

    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["target", "m", "sigma_over_J", "mean", "std", "samples"])
        writer.writerows(rows)
    print(args.output)


if __name__ == "__main__":
    main()
