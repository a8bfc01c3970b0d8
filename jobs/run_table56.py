"""spark-submit entrypoint: reproduce the paper's Tables 5 and 6.

Builds one FLIGHTS scramble, runs the Table 5 bounder ablation and the
Table 6 strategy ablation on it, writes ``table5.csv`` and
``table6.csv`` into ``--out-dir`` and prints both tables beside the
paper's speedups. Exits 1 if any run's decision differs from the
DuckDB ground truth.

Usage: spark-submit jobs/run_table56.py [--sf 0.6] [--seed 7] [--out-dir results]
"""
from __future__ import annotations

import argparse
import os
import sys

from repro.experiments import table5, table6
from repro.experiments.ablation import format_ablation
from repro.fastframe.scramble import build_scramble
from repro.synth_data import flights

from _session import get_spark


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.6)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    spark = get_spark("run_table56")
    sc = build_scramble(flights(spark, sf=args.sf, seed=args.seed), seed=args.seed + 1)
    os.makedirs(args.out_dir, exist_ok=True)
    ok = True
    for name, df, title in (
        ("table5", table5.run_table5(sc), table5.TITLE),
        ("table6", table6.run_table6(sc), table6.TITLE),
    ):
        path = os.path.join(args.out_dir, f"{name}.csv")
        df.to_csv(path, index=False)
        print(format_ablation(df, title))
        print(f"wrote {path}\n")
        ok &= bool(df["correct"].all())
    spark.stop()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
