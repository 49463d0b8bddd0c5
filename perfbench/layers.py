"""The traced run: per-layer metrics of every workload, and the CLI round trip.

Each workload gets one untraced pass and one traced pass of the same
inputs; ``trace.overhead_frac.<workload>`` is the ratio of the two, minus
one.  Layer names are the dpcolor module names.  A ``*_us``/``*_ms``
metric of a call is its median duration, a ``*_per_cover`` metric the
total over the pass divided by the covers enumerated, and
``self_share.<workload>.<layer>`` the layer's self time (span time not
covered by child spans) over the traced pass's wall time.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from .tracer import Tracer
from .workloads import (
    SWEEP_ROWS,
    queries_pass,
    refute_pass,
    refute_traced,
    sweep_pass,
    sweep_traced,
)

CLI_ROUNDS = 2
CLI_COVERS = 4


def _search_counts(searches: list[tuple[int, int]]) -> tuple[float, float]:
    """Mean nodes per search, and the share of searches that never backtracked."""
    nodes = sum(n for n, _ in searches)
    straight = sum(1 for n, todo in searches if n == todo)
    return nodes / len(searches), straight / len(searches)


def _shares(tr: Tracer, lo: int, wall_ns: int, workload: str, layers) -> dict:
    self_ns = tr.self_ns_by_layer(lo)
    return {f"self_share.{workload}.{layer}": self_ns[layer] / wall_ns for layer in layers}


def _sweep(tr: Tracer, slices: list[list[str]]) -> tuple[dict, int, int]:
    plain, plain_rows = sweep_pass(slices)
    lines = [line for part in slices for line in part]
    lo = len(tr)
    with tr.span("bench.sweep_pass"):
        traced, rows, counts = sweep_traced(lines, tr)
    d = tr.durations(lo)
    covers = traced.covers
    nodes, straight = _search_counts(traced.searches)
    # the re-driven sweep must reproduce the harness's rows, timings aside
    reproduced = plain_rows is not None and [replace(r, seconds=0.0) for r in rows] == [
        replace(r, seconds=0.0) for r in plain_rows
    ]
    metrics = {
        "covers.count": covers,
        "covers.enumerate_us_per_cover": sum(d["covers.enumerate_covers"]) / covers / 1e3,
        "covers.maps_us_per_cover": sum(d["covers.matched_colors"]) / covers / 1e3,
        "solver.decide_us_per_cover": sum(d["solver.find_coloring"]) / covers / 1e3,
        "solver.nodes_per_search.sweep-k3": nodes,
        "solver.backtrack_free_ratio.sweep-k3": straight,
        "harness.candidate_filter_us": statistics.median(d["harness.candidate_filter"]) / 1e3,
        "harness.accept_ratio": counts["accepted"] / counts["lines"],
        "harness.graph_s_max": max(r.seconds for r in (plain_rows or rows)),
        "graphs.parse_graph6_us": statistics.median(d["graphs.parse_graph6"]) / 1e3,
        "recognize.recognize_dirac_us": statistics.median(d["recognize.recognize_dirac"]) / 1e3,
        "trace.overhead_frac.sweep-k3": traced.busy / plain.busy - 1,
    }
    layers = ("graphs", "harness", "covers", "solver", "recognize")
    metrics.update(_shares(tr, lo, sum(d["bench.sweep_pass"]), "sweep-k3", layers))
    failed = plain.failed + traced.failed + (0 if reproduced else SWEEP_ROWS)
    return metrics, plain.attempted + traced.attempted, failed


def _queries(tr: Tracer, queries: list) -> tuple[dict, int, int]:
    plain = queries_pass(queries)
    lo = len(tr)
    with tr.span("bench.queries_pass"):
        traced = queries_pass(queries, tr)
    d = tr.durations(lo)

    def median(name: str, scale: float) -> float:
        return statistics.median(d[name]) / scale

    # one color_degree_cover and one certificate_is_valid per degree query, in order
    certify = [
        a + b for a, b in zip(d["solver.color_degree_cover"], d["solver.certificate_is_valid"])
    ]
    nodes, straight = _search_counts(traced.searches)
    metrics = {
        "covers.decode_us": median("covers.cover_from_json_text", 1e3),
        "covers.encode_us": median("covers.cover_to_json_text", 1e3),
        "solver.find_coloring_ms": median("solver.find_coloring", 1e6),
        "solver.is_critical_ms": median("solver.is_critical", 1e6),
        "solver.degree_certificate_ms": statistics.median(certify) / 1e6,
        "solver.enhancing_extension_ms": median("solver.find_enhancing_extension", 1e6),
        "solver.nodes_per_search.cover-queries": nodes,
        "solver.backtrack_free_ratio.cover-queries": straight,
        "harness.verify_critical_structure_ms": median("harness.verify_critical_structure", 1e6),
        "harness.revalidate_row_ms": median("harness.revalidate_row", 1e6),
        "graphs.block_decomposition_us": median("graphs.block_decomposition", 1e3),
        "recognize.is_gdp_forest_us": median("recognize.is_gdp_forest", 1e3),
        "trace.overhead_frac.cover-queries": traced.busy / plain.busy - 1,
    }
    layers = ("covers", "solver", "harness", "graphs", "recognize")
    metrics.update(_shares(tr, lo, sum(d["bench.queries_pass"]), "cover-queries", layers))
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed


def _refute(tr: Tracer, covers: list) -> tuple[dict, int, int]:
    plain = refute_pass(covers)
    lo = len(tr)
    with tr.span("bench.refute_pass"):
        traced = refute_traced(covers, tr)
    d = tr.durations(lo)
    nodes = sum(n for n, _ in traced.searches)
    metrics = {
        "solver.refute_nodes": nodes,
        "solver.refute_search_s": sum(d["bench.refute_search"]) / 1e9,
        "solver.deletion_search_s": sum(d["bench.deletion_loop"]) / 1e9,
        "solver.us_per_node": sum(d["solver.find_coloring"]) / 1e3 / nodes,
        "trace.overhead_frac.refute-deep": traced.busy / plain.busy - 1,
    }
    metrics.update(_shares(tr, lo, sum(d["bench.refute_pass"]), "refute-deep", ("solver",)))
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed


def cli_roundtrips(root: Path, docs: list[str], workdir: Path) -> tuple[list[float], int]:
    """``critical`` and ``solve`` on planted covers, one subprocess at a time.

    Returns the wall time of each call and the number of calls whose exit
    code or output was wrong (a planted cover is critical, unsolvable).
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    failed = 0
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        paths = []
        for i, doc in enumerate(docs):
            path = Path(tmp) / f"planted-{i}.json"
            path.write_text(doc + "\n")
            paths.append(path)
        for _ in range(CLI_ROUNDS):
            for path in paths:
                for command, expected in (("critical", "true"), ("solve", "null")):
                    argv = [sys.executable, "-m", "dpcolor.cli", command, "--cover", str(path)]
                    start = perf_counter()
                    done = subprocess.run(
                        argv, env=env, capture_output=True, text=True, timeout=120
                    )
                    times.append(perf_counter() - start)
                    failed += done.returncode != 0 or done.stdout.strip() != expected
    return times, failed


def traced_run(root: Path, data: dict, workdir: Path, trace_path: Path, info: dict):
    """Every per-layer metric, with the answers attempted and failed on the way."""
    tr = Tracer()
    metrics: dict = {}
    attempted = failed = 0
    for part, inputs in (
        (_sweep, data["sweep-k3"]),
        (_queries, data["cover-queries"]),
        (_refute, data["refute-deep"]),
    ):
        values, tried, wrong = part(tr, inputs)
        metrics.update(values)
        attempted += tried
        failed += wrong
    planted = [q.doc for q in data["cover-queries"] if q.kind == "planted"][:CLI_COVERS]
    times, wrong = cli_roundtrips(root, planted, workdir)
    metrics["cli.roundtrip_ms"] = statistics.median(times) * 1e3
    tr.write(trace_path, info)
    return metrics, attempted + len(times), failed + wrong
