import filecmp
import subprocess
import sys

import numpy as np
import pytest

from rwtv import Graph, Partition, SamplingSet, SlpConfig, slp_recover
from rwtv.cli import main
from rwtv.fileio import (
    parse_edge_list,
    read_sampling,
    read_signal,
    write_edge_list,
    write_partition,
    write_sampling,
    write_signal,
)


def write_bridge_instance(tmp_path, sampled_nodes):
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    edges.append((3, 4))
    g = Graph(8, edges)
    part = Partition([0, 0, 0, 0, 1, 1, 1, 1])
    gp, pp, sp = tmp_path / "g.txt", tmp_path / "p.csv", tmp_path / "m.csv"
    with open(gp, "w") as fh:
        write_edge_list(g, fh)
    with open(pp, "w", newline="") as fh:
        write_partition(part, fh)
    m = SamplingSet(nodes=np.array(sampled_nodes), budget=len(sampled_nodes))
    with open(sp, "w", newline="") as fh:
        write_sampling(m, fh)
    return g, gp, pp, sp


def test_generate_appm_writes_consistent_files(tmp_path, capsys):
    gp, pp, sp = tmp_path / "g.txt", tmp_path / "p.csv", tmp_path / "x.csv"
    code = main(
        [
            "generate-appm", "--sizes", "6,6", "--p", "0.9", "--q", "0.2",
            "--seed", "5", "--out-graph", str(gp), "--out-partition", str(pp),
            "--out-signal", str(sp),
        ]
    )
    assert code == 0
    assert "generated graph" in capsys.readouterr().out
    with open(gp) as fh:
        g, _ = parse_edge_list(fh)
    assert g.node_count == 12
    x = read_signal(open(sp), 12)
    assert np.all((x >= 0) & (x < 1))


def test_generate_appm_require_connected_impossible_exits_2(tmp_path):
    gp = tmp_path / "g.txt"
    code = main(
        [
            "generate-appm", "--sizes", "3,3", "--p", "0", "--q", "0",
            "--seed", "1", "--out-graph", str(gp),
            "--out-partition", str(tmp_path / "p.csv"),
            "--out-signal", str(tmp_path / "x.csv"),
            "--require-connected",
        ]
    )
    assert code == 2
    assert not gp.exists()


def test_sample_walk_and_uniform(tmp_path):
    _, gp, _, _ = write_bridge_instance(tmp_path, [0])
    for method in ("walk", "uniform"):
        out = tmp_path / f"m_{method}.csv"
        code = main(
            [
                "sample", "--graph", str(gp), "--method", method,
                "--budget", "4", "--walk-length", "5", "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        m = read_sampling(open(out), 8)
        assert len(m) == 4


def test_sample_budget_too_large_exits_1(tmp_path):
    _, gp, _, _ = write_bridge_instance(tmp_path, [0])
    out = tmp_path / "out.csv"
    code = main(
        [
            "sample", "--graph", str(gp), "--method", "uniform",
            "--budget", "99", "--seed", "0", "--out", str(out),
        ]
    )
    assert code == 1
    assert not out.exists()


def test_check_satisfied_exits_0(tmp_path, capsys):
    _, gp, pp, sp = write_bridge_instance(tmp_path, [0, 1, 5, 6])
    code = main(["check", "--graph", str(gp), "--partition", str(pp), "--samples", str(sp)])
    assert code == 0
    assert "satisfied" in capsys.readouterr().out


def test_check_violated_exits_1_and_reports(tmp_path, capsys):
    _, gp, pp, sp = write_bridge_instance(tmp_path, [0, 1, 5])
    code = main(["check", "--graph", str(gp), "--partition", str(pp), "--samples", str(sp)])
    assert code == 1
    out = capsys.readouterr().out
    assert "violated" in out
    assert "needs 2" in out


def test_recover_fully_sampled_prints_nmse_zero(tmp_path, capsys):
    g, gp, _, _ = write_bridge_instance(tmp_path, list(range(8)))
    x = np.linspace(0.0, 1.0, 8)
    xp = tmp_path / "x.csv"
    with open(xp, "w", newline="") as fh:
        write_signal(x, fh)
    m_all = tmp_path / "mall.csv"
    with open(m_all, "w", newline="") as fh:
        write_sampling(SamplingSet(nodes=np.arange(8), budget=8), fh)
    out = tmp_path / "xhat.csv"
    code = main(
        [
            "recover", "--graph", str(gp), "--samples", str(m_all),
            "--signal", str(xp), "--out", str(out),
        ]
    )
    assert code == 0
    assert "NMSE 0" in capsys.readouterr().out
    assert np.array_equal(read_signal(open(out), 8), x)


def test_recover_with_observations_only_prints_no_nmse(tmp_path, capsys):
    _, gp, _, sp = write_bridge_instance(tmp_path, [0, 1, 5, 6])
    obs = tmp_path / "obs.csv"
    with open(obs, "w", newline="") as fh:
        fh.write("node_id,value\n0,1.0\n1,1.0\n5,0.0\n6,0.0\n")
    out = tmp_path / "xhat.csv"
    code = main(
        [
            "recover", "--graph", str(gp), "--samples", str(sp),
            "--signal", str(obs), "--max-iter", "20000", "--out", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "NMSE" not in printed
    x_hat = read_signal(open(out), 8)
    assert x_hat[:4] == pytest.approx(np.ones(4), abs=1e-2)
    assert x_hat[4:] == pytest.approx(np.zeros(4), abs=1e-2)


def test_recover_iteration_cap_far_above_iterations_run(tmp_path, capsys):
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    m = SamplingSet(nodes=np.array([0, 3]), budget=2)
    gp, sp, xp = tmp_path / "g.txt", tmp_path / "m.csv", tmp_path / "x.csv"
    with open(gp, "w") as fh:
        write_edge_list(g, fh)
    with open(sp, "w", newline="") as fh:
        write_sampling(m, fh)
    with open(xp, "w", newline="") as fh:
        write_signal([0.0, 1.0, 2.0, 3.0], fh)
    code = main(
        [
            "recover", "--graph", str(gp), "--samples", str(sp),
            "--signal", str(xp), "--max-iter", "1000000000000",
            "--out", str(tmp_path / "xhat.csv"),
        ]
    )
    assert code == 0
    assert "recovered in" in capsys.readouterr().out
    result = slp_recover(
        g, m, [0.0, 3.0], SlpConfig(max_iterations=10**12)
    )
    assert result.iterations_run < 10**12


def test_recover_with_partial_non_matching_signal_exits_1(tmp_path):
    _, gp, _, sp = write_bridge_instance(tmp_path, [0, 1, 5, 6])
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as fh:
        fh.write("node_id,value\n0,1.0\n1,1.0\n")
    code = main(
        [
            "recover", "--graph", str(gp), "--samples", str(sp),
            "--signal", str(bad), "--out", str(tmp_path / "xhat.csv"),
        ]
    )
    assert code == 1
    assert not (tmp_path / "xhat.csv").exists()


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rwtv", *map(str, args)], capture_output=True, text=True
    )


def assert_one_error_line(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def write_path_instance(tmp_path):
    gp, sp = tmp_path / "g.txt", tmp_path / "m.csv"
    gp.write_text("0 1\n1 2\n2 3\n")
    sp.write_text("node_id\n0\n2\n")
    return gp, sp


@pytest.mark.parametrize(
    "signal",
    [
        "node_id,value\n0\n2,1.0\n",
        "node_id,value\n0,1.0\n2,1.0,zzz\n",
        "node_id,value\n0,1.0\n\uff12,1.0\n",
    ],
)
def test_recover_malformed_signal_row_exits_1_with_error_line(tmp_path, signal):
    gp, sp = write_path_instance(tmp_path)
    xp = tmp_path / "x.csv"
    xp.write_text(signal)
    out = tmp_path / "xhat.csv"
    proc = run_cli(
        "recover", "--graph", gp, "--samples", sp, "--signal", xp, "--out", out
    )
    assert_one_error_line(proc)
    assert not out.exists()


@pytest.mark.parametrize(
    "partition, samples",
    [
        ("0,0\n1,0\n2,1\n3,99999999999999999999\n", "0\n2\n"),
        ("0,0\n1,0\n2,1\n3,1\n", "0\n99999999999999999999\n"),
    ],
)
def test_check_int64_overflow_exits_1_with_error_line(tmp_path, partition, samples):
    gp, sp = write_path_instance(tmp_path)
    pp = tmp_path / "p.csv"
    pp.write_text("node_id,cluster_id\n" + partition)
    sp.write_text("node_id\n" + samples)
    proc = run_cli("check", "--graph", gp, "--partition", pp, "--samples", sp)
    assert_one_error_line(proc)


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_experiment_workers_below_one_exits_1_with_error_line(tmp_path, workers):
    proc = run_cli(
        "experiment", "clusterstats", "--runs", "2", "--workers", workers,
        "--out-dir", tmp_path,
    )
    assert_one_error_line(proc)
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "option", [("--workers", "0"), ("--workers", "-2"), ("--runs", "0")]
)
def test_experiment_rejected_options_leave_no_out_dir(tmp_path, option):
    out_dir = tmp_path / "new" / "x"
    proc = run_cli(
        "experiment", "clusterstats", "--runs", "2", *option, "--out-dir", out_dir
    )
    assert_one_error_line(proc)
    assert not (tmp_path / "new").exists()


def test_experiment_table1_is_deterministic(tmp_path, capsys):
    for d in ("a", "b"):
        code = main(
            [
                "experiment", "table1", "--runs", "2", "--seed", "7",
                "--out-dir", str(tmp_path / d), "--workers", "1",
            ]
        )
        assert code == 0
    capsys.readouterr()
    names = ["table1_summary.csv"] + [
        f"table1_trials_budget{b}.csv" for b in (10, 20, 30, 40, 50)
    ]
    for name in names:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_experiment_clusterstats_outputs(tmp_path, capsys):
    code = main(
        [
            "experiment", "clusterstats", "--runs", "2", "--seed", "1",
            "--out-dir", str(tmp_path), "--workers", "1",
        ]
    )
    assert code == 0
    assert (tmp_path / "clusterstats_trials.csv").exists()
    lines = (tmp_path / "clusterstats_clusters.csv").read_text().strip().splitlines()
    assert lines[0] == "cluster,mean_samples,mean_cut"
    assert len(lines) == 5
    assert "mean NMSE" in capsys.readouterr().out


def test_extract_subgraph_writes_map_back_to_source_ids(tmp_path, capsys):
    gp = tmp_path / "g.txt"
    # external ids 100..103 on a path plus an off-walk pair 200-201
    gp.write_text("100 101\n101 102\n102 103\n200 201\n")
    out = tmp_path / "sub.txt"
    mp = tmp_path / "map.csv"
    code = main(
        [
            "extract-subgraph", "--graph", str(gp), "--walk-length", "8",
            "--seed", "2", "--out", str(out), "--out-map", str(mp),
        ]
    )
    assert code == 0
    rows = mp.read_text().strip().splitlines()
    assert rows[0] == "new_id,source_id"
    sources = {int(r.split(",")[1]) for r in rows[1:]}
    assert sources <= {100, 101, 102, 103, 200, 201}
    with open(out) as fh:
        sub, _ = parse_edge_list(fh)
    assert sub.node_count == len(sources)


def test_missing_input_file_exits_1(tmp_path):
    code = main(
        [
            "sample", "--graph", str(tmp_path / "nope.txt"), "--method",
            "uniform", "--budget", "1", "--seed", "0",
            "--out", str(tmp_path / "m.csv"),
        ]
    )
    assert code == 1


def test_usage_error_exits_1():
    assert main(["sample", "--definitely-not-a-flag"]) == 1
    assert main(["no-such-command"]) == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rwtv", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "experiment" in proc.stdout
