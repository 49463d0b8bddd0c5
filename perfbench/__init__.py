"""The dpcolor benchmark: three seeded closed-loop workloads and a traced run.

``run.py`` is the entry point; ``inputs`` builds each workload's inputs
from the seed, ``workloads`` runs and checks the passes, ``layers`` makes
the traced run, ``tracer`` keeps its spans and ``yardstick`` takes the
host's speed out of the gated timings.
"""
