"""End-to-end and per-layer benchmark of the reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper-inline --seed 0 --seconds 30 --trace 0

``BENCHMARK.json`` at the repository root lists the workloads and the
metrics; ``perfbench/PLAN.md`` records why each workload was chosen,
which layers it stresses and bypasses, and which end-to-end metric each
per-layer metric should move.
"""
