"""Seeded end-to-end and per-layer benchmark of the ewlsp solvers; run it
with `python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1`."""
