"""The repository benchmark: detector cost end to end and layer by layer.

Run it from the repository root::

    python3 perfbench/run.py --workload spec-bulk --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
per-layer predictions.
"""
