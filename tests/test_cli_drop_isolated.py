import numpy as np
import pytest

from rwtv.cli import main
from rwtv.fileio import read_sampling


def test_drop_isolated_changes_node_count(tmp_path):
    gp = tmp_path / "g.txt"
    gp.write_text("0 1\n1 2\n9 9\n")  # node 9 only appears as a self-loop
    out = tmp_path / "m.csv"
    code = main(
        [
            "sample", "--graph", str(gp), "--drop-isolated", "--method",
            "uniform", "--budget", "3", "--seed", "0", "--out", str(out),
        ]
    )
    assert code == 0
    m = read_sampling(open(out), 3)
    assert np.array_equal(m.nodes, [0, 1, 2])
    # without the flag, budget 4 is reachable because node 9 is kept
    out2 = tmp_path / "m2.csv"
    code = main(
        [
            "sample", "--graph", str(gp), "--method", "uniform",
            "--budget", "4", "--seed", "0", "--out", str(out2),
        ]
    )
    assert code == 0
    assert len(read_sampling(open(out2), 4)) == 4


@pytest.mark.parametrize(
    "command, args",
    [
        ("sample", ["--method", "uniform", "--budget", "3", "--out", "m.csv"]),
        ("check", ["--partition", "p.csv", "--samples", "s.csv"]),
        ("recover", ["--samples", "s.csv", "--signal", "x.csv", "--out", "r.csv"]),
        ("extract-subgraph", ["--walk-length", "2", "--out", "sub.txt"]),
    ],
)
def test_every_graph_command_accepts_drop_isolated(
    tmp_path, monkeypatch, command, args
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("0 1\n1 2\n0 2\n9 9\n")
    (tmp_path / "p.csv").write_text("node_id,cluster_id\n0,0\n1,0\n2,0\n")
    (tmp_path / "s.csv").write_text("node_id\n0\n2\n")
    (tmp_path / "x.csv").write_text("node_id,value\n0,1.0\n1,2.0\n2,1.0\n")
    # node 9 only appears as a self-loop; dropped, the partition and the
    # signal above cover every node of the graph
    assert main([command, "--graph", "g.txt", "--drop-isolated", *args]) == 0
