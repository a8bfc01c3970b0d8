"""Build the FLIGHTS scramble and describe it, without Spark.

Prints the analog of the paper's Table 3 (dataset description) plus the
scramble layout and catalog range bounds. The scramble is the one
``build_scramble`` makes from ``synth_data.flights`` for the same sizes
and seeds: the generator's rows, shuffled and coded in NumPy.

Usage: python jobs/build_scramble.py [--sf 0.6] [--seed 7]
"""
from __future__ import annotations

import argparse

from repro.fastframe.scramble import build_store, scramble_from_store, shuffle
from repro.synth_data import flights_table


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.6)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rows = flights_table(sf=args.sf, seed=args.seed)
    seed = args.seed + 1
    sc = scramble_from_store(build_store(shuffle(rows, seed)), seed=seed)
    print("Table 3 (analog) — FLIGHTS-lite dataset")
    print(
        f"  size {rows.nbytes / 2**20:.1f} MiB (Arrow)  #tuples {sc.n_rows:,}"
        f"  #attributes {rows.num_columns}"
    )
    print(f"  scramble: {sc.n_blocks:,} blocks of {sc.block_size} rows (seed {sc.seed})")
    for col, (a, b) in sc.catalog.ranges.items():
        print(f"  catalog range bounds {col}: [{a}, {b}]")


if __name__ == "__main__":
    main()
