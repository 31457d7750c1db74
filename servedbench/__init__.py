"""Served-stack benchmark: ServingEngine -> sharding -> replication ->
durability -> Theorem 2 -> structures, timed end to end and per layer.

Run ``python3 servedbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``servedbench/README.md``.
"""
