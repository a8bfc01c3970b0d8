"""FastFrame: the paper's sampling-optimized column store, rebuilt.

Spark (DataFrame API) does the relational work done once per relation:
building the scramble (random permutation + block layout). The scramble
is then held on the driver as a NumPy column store, from which the
catalog range bounds, the block bitmap indexes and each
query's predicate mask and groups are computed, and the inherently
sequential adaptive scan (rounds, OptStop, stopping conditions, active
scanning) reads the fetched blocks' rows from it, charging work per
block fetched exactly as the paper's engine does.
"""
