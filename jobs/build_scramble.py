"""spark-submit entrypoint: build the FLIGHTS scramble and describe it.

Prints the analog of the paper's Table 3 (dataset description) plus the
scramble layout and catalog range bounds.

Usage: spark-submit jobs/build_scramble.py [--sf 0.6] [--seed 7]
"""
from __future__ import annotations

import argparse

from repro.fastframe.scramble import build_scramble
from repro.synth_data import flights

from _session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.6)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    spark = get_spark("build_scramble")
    df = flights(spark, sf=args.sf, seed=args.seed)
    sc = build_scramble(df, seed=args.seed + 1)
    approx_bytes = sc.n_rows * 5 * 8  # 5 attributes, ~8B each
    print("Table 3 (analog) — FLIGHTS-lite dataset")
    print(f"  size ~{approx_bytes / 2**20:.1f} MiB  #tuples {sc.n_rows:,}  #attributes 5")
    print(f"  scramble: {sc.n_blocks:,} blocks of {sc.block_size} rows (seed {sc.seed})")
    for col, (a, b) in sc.catalog.ranges.items():
        print(f"  catalog range bounds {col}: [{a}, {b}]")
    spark.stop()


if __name__ == "__main__":
    main()
