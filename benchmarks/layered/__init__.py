"""Layered benchmark: five workloads, nine end-to-end metrics, a per-layer ladder.

``python benchmarks/layered/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line (the ``BENCHMARK.json``
contract); ``PYTHONPATH=src python -m benchmarks.layered --out FILE`` runs
all five, untraced and traced, each in its own subprocess.  See README.md.
"""
