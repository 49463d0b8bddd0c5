"""Regenerate ``data/criterion06.g6``, the frozen stream of the sweep-k3 workload.

The stream is the input of acceptance criterion 06: every connected graph
of the networkx atlas on 5..7 vertices, then the five connected cubic
graphs on 8 vertices, one graph6 line each (991 lines; 11 of them are
k = 3 candidates, with 66,096 perfect covers between them).  It was
generated once with this script and is checked in, so the benchmark needs
neither networkx nor the test helpers.  Run from the repository root:

    PYTHONPATH=src:tests python3 perfbench/freeze_stream.py > perfbench/data/criterion06.g6
"""

from dpcolor import emit_graph6
from helpers import atlas_connected, connected_cubic_8, from_nx


def stream_lines() -> list[str]:
    lines = [emit_graph6(from_nx(G)) for G in atlas_connected(range(5, 8))]
    lines += [emit_graph6(g) for g in connected_cubic_8()]
    return lines


if __name__ == "__main__":
    print("\n".join(stream_lines()))
