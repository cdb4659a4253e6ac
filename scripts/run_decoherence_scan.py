"""Scan transfer fidelity against relaxation and dephasing times.

Produces the T1 scan (dephasing pinned) and the Tphi scan (relaxation
pinned) for each requested m, for the entanglement and process-fidelity
metrics, as long-format CSV.
"""

import argparse
import csv
from pathlib import Path

from domechain import SweepMetric, sweep_decoherence


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sites", type=int, default=5)
    ap.add_argument("--m-values", type=int, nargs="+", default=[2, 102])
    ap.add_argument("--rate-mhz", type=float, default=5.0)
    ap.add_argument("--fixed-t1-us", type=float, default=30.0)
    ap.add_argument("--fixed-tphi-us", type=float, default=5.0)
    ap.add_argument(
        "--metrics", nargs="+",
        default=[SweepMetric.BELL_AT_QUARTER_T.value, SweepMetric.QPT_AT_HALF_T.value],
    )
    ap.add_argument("--output", type=Path, default=Path("decoherence_scan.csv"))
    args = ap.parse_args()

    rows = []
    for metric_name in args.metrics:
        metric = SweepMetric(metric_name)
        scan = sweep_decoherence(
            args.sites,
            metric,
            m_values=tuple(args.m_values),
            fixed_t1_us=args.fixed_t1_us,
            fixed_tphi_us=args.fixed_tphi_us,
            rate_MHz=args.rate_mhz,
        )
        for row, m in enumerate(scan.m_values):
            for t1, fid in zip(scan.t1_values_us, scan.t1_scan[row]):
                rows.append(
                    [metric.value, m, "t1_us", t1, args.fixed_tphi_us, fid]
                )
            for tphi, fid in zip(scan.tphi_values_us, scan.tphi_scan[row]):
                rows.append(
                    [metric.value, m, "tphi_us", tphi, args.fixed_t1_us, fid]
                )

    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["metric", "m", "axis", "time_us", "pinned_partner_us", "fidelity"]
        )
        writer.writerows(rows)
    print(args.output)


if __name__ == "__main__":
    main()
