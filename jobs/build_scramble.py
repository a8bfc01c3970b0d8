"""Build the FLIGHTS scramble and describe it, without Spark.

Prints the analog of the paper's Table 3 (dataset description) plus the
scramble layout and catalog range bounds. The scramble is the one
``build_scramble`` makes from ``synth_data.flights`` for the same sizes
and seeds: the generator's rows, shuffled and coded in NumPy.

Usage: python jobs/build_scramble.py [--sf 0.6] [--seed 7]
"""
from __future__ import annotations

import argparse

import pyarrow as pa

from repro.fastframe.scramble import build_store, scramble_from_store, shuffle
from repro.synth_data import flights_frame


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.6)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rows = pa.Table.from_pandas(
        flights_frame(sf=args.sf, seed=args.seed), preserve_index=False
    )
    seed = args.seed + 1
    sc = scramble_from_store(build_store(shuffle(rows, seed)), seed=seed)
    approx_bytes = sc.n_rows * 5 * 8  # 5 attributes, ~8B each
    print("Table 3 (analog) — FLIGHTS-lite dataset")
    print(f"  size ~{approx_bytes / 2**20:.1f} MiB  #tuples {sc.n_rows:,}  #attributes 5")
    print(f"  scramble: {sc.n_blocks:,} blocks of {sc.block_size} rows (seed {sc.seed})")
    for col, (a, b) in sc.catalog.ranges.items():
        print(f"  catalog range bounds {col}: [{a}, {b}]")


if __name__ == "__main__":
    main()
