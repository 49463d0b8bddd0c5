"""End-to-end checks of the command-line front end."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dpcolor
from dpcolor import (
    MultiGraph,
    cover_from_json_text,
    cover_to_json_text,
    cover_from_lists,
    emit_graph6,
    is_colorable,
)
from dpcolor.cli import main
from dpcolor.construct import make_c4_covers, make_dirac, make_wheel
from dpcolor.graphs import SimpleGraph

from helpers import matched_pairs


C4_G6 = emit_graph6(SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
C5_G6 = emit_graph6(SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
K4_G6 = emit_graph6(SimpleGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))
W4_G6 = emit_graph6(make_wheel(4))


def cli_env() -> dict:
    """The environment of a fresh interpreter that imports this dpcolor."""
    src = str(Path(dpcolor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(*args, module="dpcolor.cli"):
    """Run the CLI in a fresh interpreter, so its logging set-up is its own."""
    argv = [sys.executable, "-m", module, *args]
    return subprocess.run(argv, capture_output=True, text=True, env=cli_env(), timeout=120)


def write_cover(tmp_path, cover, name="cover.json"):
    path = tmp_path / name
    path.write_text(cover_to_json_text(cover) + "\n")
    return str(path)


def coloring_satisfies(cover, pairs):
    picks = dict(pairs)
    assert sorted(picks) == list(range(cover.base.n))
    for u, v in cover.edge_pairs():
        assert (picks[u], picks[v]) not in matched_pairs(cover, u, v)


class TestSolve:
    def test_colorable(self, tmp_path, capsys):
        straight, _ = make_c4_covers()
        assert main(["solve", "--cover", write_cover(tmp_path, straight)]) == 0
        out = capsys.readouterr().out.strip()
        coloring_satisfies(straight, json.loads(out))

    def test_uncolorable_prints_null(self, tmp_path, capsys):
        _, twisted = make_c4_covers()
        assert main(["solve", "--cover", write_cover(tmp_path, twisted)]) == 0
        assert capsys.readouterr().out.strip() == "null"

    def test_stdin(self, monkeypatch, capsys):
        straight, _ = make_c4_covers()
        monkeypatch.setattr("sys.stdin", io.StringIO(cover_to_json_text(straight)))
        assert main(["solve", "--cover", "-"]) == 0
        coloring_satisfies(straight, json.loads(capsys.readouterr().out))

    def test_missing_file(self, capsys):
        assert main(["solve", "--cover", "/nonexistent/cover.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--cover", str(path)]) == 1


    @pytest.mark.parametrize(
        "doc",
        [
            '{"graph6":5,"k":2}',
            '{"multigraph":{"n":2},"k":2}',
            '{"graph6":"Cl","k":2,"matchings":{"0-1":5}}',
            '{"graph6":"Cl","k":2,"matchings":[1]}',
            '{"graph6":"A_","k":true}',
            '{"graph6":"A_","k":2,"matchings":{"0-1":[[true,0]]}}',
            '{"multigraph":{"n":3,"edges":[[0,true,2]]},"k":2}',
            # the numbers of a matching key are ASCII decimal digits
            '{"graph6":"A_","k":2,"matchings":{" 0-1":[]}}',
            '{"graph6":"A_","k":2,"matchings":{"+0-1":[]}}',
            '{"graph6":"A_","k":2,"matchings":{"0_0-1":[]}}',
            '{"graph6":"A_","k":2,"matchings":{"٠-١":[]}}',
            '{"graph6":"A_","k":2,"matchings":{"0-1#+0":[]}}',
            '{"graph6":"A_","k":2,"matchings":{"0-1# 0":[]}}',
            # deeper than the JSON reader can follow
            pytest.param("[" * 100000 + "]" * 100000, id="deep-array"),
        ],
    )
    def test_malformed_cover_exits_1(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert main(["solve", "--cover", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_of_memory_exits_1(self, tmp_path, monkeypatch, capsys):
        # as a list size too large to allocate would end
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr("dpcolor.cli.cover_from_json_text", exhausted)
        straight, _ = make_c4_covers()
        assert main(["solve", "--cover", write_cover(tmp_path, straight)]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize("command", ["solve", "critical", "verify-structure"])
    @pytest.mark.parametrize("g6", ["@", "A_"])
    def test_list_size_past_any_allocation_exits_1(self, tmp_path, capsys, command, g6):
        # too large to shift by ("@", one vertex) or to size a list by ("A_", one edge)
        path = tmp_path / "huge.json"
        path.write_text(f'{{"k":{10**20},"graph6":"{g6}","matchings":{{}}}}')
        assert main([command, "--cover", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: number too large: ")

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self, tmp_path, capsys):
        # one search level per vertex, past Python's default limit of 1,000 frames
        edges = [[i, i + 1, 1] for i in range(1499)]
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"multigraph": {"n": 1500, "edges": edges}, "k": 2}))
        assert main(["solve", "--cover", str(path)]) == 0
        picks = json.loads(capsys.readouterr().out)
        assert [v for v, _ in picks] == list(range(1500))


class TestCritical:
    def test_verdicts(self, tmp_path, capsys):
        straight, twisted = make_c4_covers()
        assert main(["critical", "--cover", write_cover(tmp_path, twisted, "t.json")]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["critical", "--cover", write_cover(tmp_path, straight, "s.json")]) == 0
        assert capsys.readouterr().out.strip() == "false"


class TestChiDp:
    def test_wheel(self, capsys):
        assert main(["chi-dp", "--graph", W4_G6]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_clique(self, capsys):
        assert main(["chi-dp", "--graph", K4_G6]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_max_k_cap(self, capsys):
        assert main(["chi-dp", "--graph", K4_G6, "--max-k", "3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_graph6(self, capsys):
        assert main(["chi-dp", "--graph", "C\x1f"]) == 1


class TestRecognize:
    def test_gallai(self, capsys):
        assert main(["recognize", "--what", "gallai", "--graph", C5_G6]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["recognize", "--what", "gallai", "--graph", C4_G6]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_gdp(self, capsys):
        assert main(["recognize", "--what", "gdp", "--graph", C4_G6]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_dirac(self, capsys):
        g6 = emit_graph6(make_dirac(3, 1))
        assert main(["recognize", "--what", "dirac", "--graph", g6, "--k", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert sorted(data) == ["V1", "V2", "V3", "attachment", "k"]
        assert main(["recognize", "--what", "dirac", "--graph", K4_G6, "--k", "3"]) == 0
        assert capsys.readouterr().out.strip() == "null"

    def test_dirac_requires_k(self, capsys):
        assert main(["recognize", "--what", "dirac", "--graph", K4_G6]) == 1

    def test_brick_from_multigraph_json(self, capsys):
        doc = json.dumps({"n": 3, "edges": [[0, 1, 2], [1, 2, 2], [0, 2, 2]]})
        assert main(["recognize", "--what", "brick", "--multigraph", doc, "--k", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["multiplicity"] == 2

    def test_brick_from_graph6(self, capsys):
        assert main(["recognize", "--what", "brick", "--graph", K4_G6, "--k", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["shape"] == "clique" and data["multiplicity"] == 1

    def test_brick_exact_multiplicity(self, capsys):
        doc = json.dumps({"n": 3, "edges": [[0, 1, 3], [1, 2, 2], [0, 2, 2]]})
        base = ["recognize", "--what", "brick", "--multigraph", doc, "--k", "4"]
        assert main(base) == 0
        assert json.loads(capsys.readouterr().out) is not None
        assert main(base + ["--exact-multiplicity"]) == 0
        assert capsys.readouterr().out.strip() == "null"

    def test_brick_requires_a_graph(self, capsys):
        assert main(["recognize", "--what", "brick", "--k", "3"]) == 1

    @pytest.mark.parametrize("what", ["gallai", "gdp", "dirac"])
    def test_requires_a_graph(self, what, capsys):
        assert main(["recognize", "--what", what, "--k", "3"]) == 1
        assert capsys.readouterr().err == f"error: recognize {what} requires --graph\n"

    @pytest.mark.parametrize("what", ["brick", "gdp"])
    def test_graph_beside_multigraph_is_refused(self, what, capsys):
        # each --what reads only one of the two, so the other would be dropped
        doc = json.dumps({"n": 4, "edges": [[0, 1, 2], [1, 2, 2], [2, 3, 2], [0, 3, 2]]})
        args = ["recognize", "--what", what, "--graph", K4_G6, "--multigraph", doc, "--k", "4"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: recognize takes --graph or --multigraph, not both\n"

    def test_brick_malformed_multigraph_exits_1(self, capsys):
        for doc in (
            '{"n":3}',
            "[3]",
            '{"n":3,"edges":[[0,1]]}',
            '{"n":true,"edges":[]}',
            '{"n":3,"edges":[[0,1,true]]}',
            # deeper than the JSON reader can follow
            "[" * 3000 + "]" * 3000,
        ):
            assert main(["recognize", "--what", "brick", "--multigraph", doc, "--k", "3"]) == 1
            assert capsys.readouterr().err.startswith("error: ")


class TestConstruct:
    def test_dirac(self, capsys):
        assert main(["construct", "dirac", "--k", "3", "--split", "2"]) == 0
        assert capsys.readouterr().out.strip() == emit_graph6(make_dirac(3, 2))

    def test_ks(self, capsys):
        assert main(["construct", "ks", "--k", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"graph6", "lists"}
        assert len(data["lists"]) == 8

    def test_c4_covers(self, capsys):
        assert main(["construct", "c4-covers"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        first, second = (cover_from_json_text(line) for line in lines)
        assert is_colorable(first) and not is_colorable(second)

    def test_wheel(self, capsys):
        assert main(["construct", "wheel", "--r", "5"]) == 0
        assert capsys.readouterr().out.strip() == emit_graph6(make_wheel(5))

    def test_multi_counterexample(self, capsys):
        assert main(["construct", "multi-counterexample", "--k", "3"]) == 0
        cover = cover_from_json_text(capsys.readouterr().out)
        assert isinstance(cover.base, MultiGraph)
        assert cover.k == 3

    def test_bad_parameters(self, capsys):
        assert main(["construct", "dirac", "--k", "2"]) == 1
        assert main(["construct", "multi-counterexample", "--k", "4"]) == 1
        assert main(["construct", "wheel", "--r", "2"]) == 1


class TestEnumerateCovers:
    def test_all_covers(self, capsys):
        assert main(["enumerate-covers", "--graph", C4_G6, "--k", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            cover_from_json_text(line)

    def test_limit(self, capsys):
        args = ["enumerate-covers", "--graph", C4_G6, "--k", "2", "--limit", "1"]
        assert main(args) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_partial_regime(self, capsys):
        edge = emit_graph6(SimpleGraph(2, [(0, 1)]))
        args = ["enumerate-covers", "--graph", edge, "--k", "1", "--regime", "partial"]
        assert main(args) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_closed_pipe_exits_1_quietly(self):
        # all 1,296 covers of Dl{ (about 300 kB) overrun any pipe buffer, so the
        # writer must meet the closed pipe
        argv = [sys.executable, "-m", "dpcolor", "enumerate-covers", "--graph", "Dl{", "--k", "3"]
        pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc = subprocess.Popen(argv, env=cli_env(), **pipes)
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert all(cover_from_json_text(line) for line in lines)
        assert proc.returncode == 1
        assert err == ""

    def test_disconnected_rejected(self, capsys):
        g6 = emit_graph6(SimpleGraph(2, []))
        assert main(["enumerate-covers", "--graph", g6, "--k", "2"]) == 1

    def test_empty_graph_rejected(self, capsys):
        assert main(["enumerate-covers", "--graph", "?", "--k", "2"]) == 1
        assert "at least one vertex" in capsys.readouterr().err


class TestVerifyDirac:
    def test_stdout_csv(self, tmp_path, capsys):
        graphs = tmp_path / "graphs.txt"
        graphs.write_text(W4_G6 + "\n")
        assert main(["verify-dirac", "--k", "3", "--graphs", str(graphs)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0].startswith("graph6,")
        assert len(lines) == 2 and lines[1].startswith(W4_G6 + ",")
        assert "candidates: 1" in captured.err

    def test_out_file_json(self, tmp_path, capsys):
        graphs = tmp_path / "graphs.txt"
        graphs.write_text(W4_G6 + "\n" + K4_G6 + "\n")
        out = tmp_path / "report.json"
        args = [
            "verify-dirac", "--k", "3", "--graphs", str(graphs),
            "--out", str(out), "--format", "json",
        ]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 1  # the clique is filtered out
        assert payload[0]["graph6"] == W4_G6
        assert payload[0]["covers_examined"] == 1296

    def test_stdin_stream(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(K4_G6 + "\n"))
        assert main(["verify-dirac", "--k", "3", "--graphs", "-"]) == 0
        assert "candidates: 0" in capsys.readouterr().err

    def test_control_byte_is_not_a_line_break(self, monkeypatch, capsys):
        # str.splitlines() would cut "C~\x1c" into K4 and a blank line
        monkeypatch.setattr("sys.stdin", io.StringIO(W4_G6 + "\nC~\x1c\n"))
        assert main(["verify-dirac", "--k", "3", "--graphs", "-"]) == 1
        assert "line 2: payload too long" in capsys.readouterr().err

    def test_max_n_rejects_larger_graph(self, tmp_path, capsys):
        graphs = tmp_path / "graphs.txt"
        graphs.write_text(W4_G6 + "\n")
        args = ["verify-dirac", "--k", "3", "--graphs", str(graphs), "--max-n", "4"]
        assert main(args) == 1
        assert "above the cap" in capsys.readouterr().err

    def test_max_n_accepts_graph_at_cap(self, tmp_path, capsys):
        graphs = tmp_path / "graphs.txt"
        graphs.write_text(W4_G6 + "\n")
        args = ["verify-dirac", "--k", "3", "--graphs", str(graphs), "--max-n", "5"]
        assert main(args) == 0

    def test_include_dirac_is_not_a_refutation(self, tmp_path, capsys):
        graphs = tmp_path / "graphs.txt"
        graphs.write_text(emit_graph6(make_dirac(3, 1)) + "\n")
        args = ["verify-dirac", "--k", "3", "--graphs", str(graphs), "--include-dirac"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "critical covers: 1, refutations: 0" in captured.err

    def test_bad_k(self, tmp_path, capsys):
        graphs = tmp_path / "graphs.txt"
        graphs.write_text(W4_G6 + "\n")
        assert main(["verify-dirac", "--k", "2", "--graphs", str(graphs)]) == 1

    def test_partial_regime_decides_the_wheel(self, monkeypatch, capsys):
        # every one of the 34^8 partial 3-fold covers of W4 is decided
        monkeypatch.setattr("sys.stdin", io.StringIO("D|s\n"))
        args = ["verify-dirac", "--k", "3", "--graphs", "-", "--regime", "partial"]
        assert main(args) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["regime"] == "partial"
        assert fields["critical_cover_found"] == "false"
        assert int(fields["covers_examined"]) == 34**8

    def test_verbose_logs_on_stderr_and_keeps_stdout(self, tmp_path):
        graphs = tmp_path / "graphs.txt"
        graphs.write_text("\n".join([W4_G6, K4_G6, emit_graph6(make_dirac(3, 1))]) + "\n")
        args = ["verify-dirac", "--k", "3", "--graphs", str(graphs), "--include-dirac"]
        quiet, loud = run_cli(*args), run_cli("-v", *args)
        assert quiet.returncode == loud.returncode == 0
        # the last CSV field is the row's wall time, the one field that may differ
        assert re.sub(r",[0-9.]+\n", ",\n", quiet.stdout) == re.sub(
            r",[0-9.]+\n", ",\n", loud.stdout
        )
        assert quiet.stdout.count("\n") == 3
        assert "accepted" not in quiet.stderr
        assert "3 graphs read, 2 accepted" in loud.stderr
        assert "'contains a clique of size k + 1': 1" in loud.stderr
        assert "critical cover found on" in loud.stderr


class TestVerifyStructure:
    def test_critical_cover_passes(self, tmp_path, capsys):
        g = SimpleGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        cover = cover_from_lists(g, [[0, 1, 2]] * 4)
        assert main(["verify-structure", "--cover", write_cover(tmp_path, cover)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["D"] == [0, 1, 2, 3]

    def test_below_scope_cover_passes(self, tmp_path, capsys):
        _, twisted = make_c4_covers()
        assert main(["verify-structure", "--cover", write_cover(tmp_path, twisted)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["in_scope"] is False and report["ok"] is True

    def test_non_critical_rejected(self, tmp_path, capsys):
        straight, _ = make_c4_covers()
        assert main(["verify-structure", "--cover", write_cover(tmp_path, straight)]) == 1
        assert "not critical" in capsys.readouterr().err


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("dpcolor ")

    def test_python_m_dpcolor_runs_the_cli(self):
        done = run_cli("--version", module="dpcolor")
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"dpcolor {dpcolor.__version__}\n"

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "args",
        [
            ["frobnicate"],
            ["recognize", "--graph", K4_G6],
            ["recognize", "--what", "dirac", "--k", "three"],
        ],
        ids=["unknown-command", "missing-what", "k-not-a-number"],
    )
    def test_usage_errors_exit_1(self, args):
        # status 2 is kept for a refutation, so a typo must not look like one
        done = run_cli(*args)
        assert done.returncode == 1, done.stderr
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert lines[0].startswith("usage: dpcolor")
        assert re.match(r"dpcolor( recognize)?: error: ", lines[-1]), lines[-1]

    def test_help_exits_0(self):
        done = run_cli("recognize", "-h")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: dpcolor recognize")
