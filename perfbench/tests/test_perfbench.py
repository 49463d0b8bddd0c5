"""Tests of the benchmark itself: reproducible inputs, checks that catch
wrong answers, and a reduced pass of every workload.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dpcolor import (  # noqa: E402
    PartialColoring,
    SweepConfig,
    cover_to_json_text,
    parse_graph6,
    verify_dirac_bound,
)

from perfbench import inputs, run, workloads, yardstick  # noqa: E402
from perfbench.tracer import NullTracer, Tracer  # noqa: E402


def input_bytes(workload: str, seed: int) -> bytes:
    """Canonical serialization of a workload's inputs."""
    data = workloads.build(workload, seed)
    if workload == "refute-deep":
        data = [cover_to_json_text(c) for c in data]
    elif workload == "cover-queries":
        data = [asdict(q) for q in data]
    return json.dumps(data, sort_keys=True).encode()


@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_same_seed_gives_identical_inputs(workload):
    first = input_bytes(workload, 7)
    assert input_bytes(workload, 7) == first
    assert input_bytes(workload, 8) != first


def test_relabeled_stream_keeps_every_graph_shape():
    def shapes(lines):
        return sorted((g.n, g.m, sorted(g.degrees())) for g in map(parse_graph6, lines))

    frozen = inputs.STREAM.read_text().split()
    relabeled = inputs.sweep_stream(3)
    assert len(relabeled) == len(frozen) == 991
    assert relabeled != frozen
    assert shapes(relabeled) == shapes(frozen)


def test_frozen_stream_matches_its_generator():
    pytest.importorskip("networkx")
    sys.path.insert(0, str(ROOT / "tests"))
    from perfbench.freeze_stream import stream_lines

    assert stream_lines() == inputs.STREAM.read_text().split()


def test_sweep_requests_cut_the_stream_at_each_candidate():
    lines = inputs.sweep_stream(11)
    slices = workloads.sweep_requests(lines)
    assert [line for part in slices for line in part] == lines
    assert len(slices) == workloads.SWEEP_ROWS

    def candidates(part):
        return sum(
            workloads.candidate_filter(parse_graph6(line), workloads.SWEEP_K) is None
            for line in part
        )

    assert [candidates(part) for part in slices] == [1] * workloads.SWEEP_ROWS
    assert workloads.sweep_requests(["Dl{", "D??"]) == [["Dl{", "D??"]]


def test_reduced_sweep_passes_its_checks_traced_and_untraced():
    small = [line for line in inputs.sweep_stream(5) if parse_graph6(line).n <= 6]
    rows = verify_dirac_bound(SweepConfig(k=workloads.SWEEP_K), small)
    assert workloads.sweep_failures(rows, by_n={5: 1, 6: 2}, covers=3 * 1296) == 0
    _, traced, counts = workloads.sweep_traced(small, Tracer())
    assert [replace(r, seconds=0.0) for r in traced] == [replace(r, seconds=0.0) for r in rows]
    assert counts["accepted"] == 3


def test_sweep_check_rejects_a_wrong_count():
    rows = verify_dirac_bound(SweepConfig(k=workloads.SWEEP_K), ["Dl{"])
    assert workloads.sweep_failures(rows, by_n={5: 1}, covers=1296) == 0
    wrong = [replace(rows[0], covers_examined=1295)]
    assert workloads.sweep_failures(wrong, by_n={5: 1}, covers=1295) == 1
    assert workloads.sweep_failures(rows) == workloads.SWEEP_ROWS


def test_reduced_query_stream_passes_its_checks_traced_and_untraced():
    queries = inputs.query_stream(11, count=60)
    assert {q.kind for q in queries} == set(inputs.SCHEDULE)
    assert workloads.queries_pass(queries).failed == 0
    tr = Tracer()
    assert workloads.queries_pass(queries, tr).failed == 0
    assert len(tr.durations()["bench.query"]) == 60


def test_query_checks_reject_wrong_answers():
    queries = inputs.query_stream(12, count=12)
    planted = next(q for q in queries if q.kind == "planted")
    extra = next(q for q in queries if q.kind == "extra")
    out = workloads.run_query(planted, NullTracer(), [])
    assert workloads.check_query(planted, out)
    assert not workloads.check_query(planted, dict(out, critical=False))
    assert not workloads.check_query(planted, dict(out, encoded=out["encoded"] + " "))

    out = workloads.run_query(extra, NullTracer(), [])
    assert workloads.check_query(extra, out)
    # one vertex moved onto a color its neighbor's pick is matched to
    data = json.loads(extra.doc)
    key, pairs = next((k, p) for k, p in data["matchings"].items() if p)
    u, v = (int(x) for x in key.partition("#")[0].split("-"))
    picks = dict(out["coloring"].picks)
    picks[u], picks[v] = pairs[0]
    assert not workloads.check_query(extra, dict(out, coloring=PartialColoring(picks)))


def test_reduced_refutation_passes_and_counts_seed_free_nodes():
    covers = inputs.refute_covers(4)
    small = [covers[0], covers[-1]]
    assert workloads.refute_pass(small).failed == 0
    traced = workloads.refute_traced(small, Tracer())
    assert traced.failed == 0
    # the full search on the a = 1 Dirac cover expands the same nodes under any relabeling
    assert traced.searches[0] == (236676, 13)


def test_yardstick_scales_each_latency_by_the_loop_around_it(monkeypatch):
    timings = iter([0.010, 0.030, 0.020])
    monkeypatch.setattr(yardstick, "time_loop", lambda: next(timings))
    monkeypatch.setattr(yardstick, "EVERY_SECONDS", 0.0)
    stick = yardstick.Yardstick()
    stick.begin()
    stick.after(1.0)  # between the loop timings 0.010 and 0.030
    stick.after(2.0)  # between 0.030 and 0.020
    got = stick.end()
    ref = yardstick.REF_SECONDS
    assert got == pytest.approx([ref / 0.020, 2.0 * ref / 0.025])
    assert stick.loops == [0.010, 0.030, 0.020]


def test_disabled_yardstick_returns_latencies_unscaled():
    stick = yardstick.Yardstick(enabled=False)
    stick.begin()
    stick.after(1.5)
    stick.after(0.5)
    assert stick.end() == [1.5, 0.5]
    assert stick.loops == []


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    with tr.span("bench.outer"):
        tr.call("covers.inner", sum, range(10000))
        tr.call("solver.inner", sorted, range(10000))
    self_ns = tr.self_ns_by_layer()
    total = tr.end[0] - tr.start[0]
    assert sum(self_ns.values()) == total
    assert self_ns["covers"] == tr.end[1] - tr.start[1]


def test_setup_round_times_a_set_up_in_a_child_interpreter():
    assert 0 < run.setup_round("sweep-k3", 1) < 60


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    argv = [sys.executable, "perfbench/run.py", "--workload", "refute-deep"]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
