"""The repository benchmark: workloads, a span ledger and the runner.

Run it from the repository root::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

See ``perfbench/WORKLOADS.md`` for what each workload measures and why.
"""
