import filecmp
import hashlib
import logging
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rwtv.cli
from rwtv import Graph, Partition, SamplingSet, SlpConfig, slp_recover, total_variation
from rwtv.cli import _atomic_write, main
from rwtv.fileio import (
    parse_edge_list,
    read_sampling,
    read_signal,
    write_edge_list,
    write_partition,
    write_sampling,
    write_signal,
)

from lp_oracle import tv_min_lp
from reference_edge_list import reference_parse

DATA = Path(__file__).parent / "data"


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
    m = SamplingSet(nodes=np.array(sampled_nodes))
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


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o002, 0o664)], ids=["022", "002"]
)
def test_output_files_get_the_mode_open_would_give(tmp_path, umask, mode):
    paths = [tmp_path / "g.txt", tmp_path / "p.csv", tmp_path / "x.csv"]
    old = os.umask(umask)
    try:
        code = main(
            [
                "generate-appm", "--sizes", "6,6", "--p", "0.9", "--q", "0.2",
                "--seed", "5", "--out-graph", str(paths[0]),
                "--out-partition", str(paths[1]), "--out-signal", str(paths[2]),
            ]
        )
    finally:
        os.umask(old)
    assert code == 0
    assert [stat.S_IMODE(p.stat().st_mode) for p in paths] == [mode] * 3


def test_every_writer_succeeds_without_reading_the_umask(tmp_path, monkeypatch):
    # os.umask(0) would open a window in which every thread creates files
    # with no umask; no writer calls it
    def no_umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", no_umask)
    g, p, x = tmp_path / "g.txt", tmp_path / "p.csv", tmp_path / "x.csv"
    m, y, sub, mp = (tmp_path / n for n in ("m.csv", "y.csv", "sub.txt", "map.csv"))
    commands = [
        [
            "generate-appm", "--sizes", "6,6", "--p", "0.9", "--q", "0.2",
            "--seed", "5", "--out-graph", g, "--out-partition", p, "--out-signal", x,
        ],
        ["sample", "--graph", g, "--method", "walk", "--budget", "4", "--out", m],
        ["recover", "--graph", g, "--samples", m, "--signal", x, "--out", y],
        [
            "extract-subgraph", "--graph", g, "--walk-length", "3",
            "--out", sub, "--out-map", mp,
        ],
        ["experiment", "table1", "--runs", "1", "--out-dir", tmp_path / "t1"],
        ["experiment", "clusterstats", "--runs", "1", "--out-dir", tmp_path / "cs"],
    ]
    for command in commands:
        assert main(list(map(str, command))) == 0
    written = sorted(f.name for f in tmp_path.rglob("*") if f.is_file())
    assert [f for f in written if f.endswith(".tmp")] == []
    assert {"g.txt", "p.csv", "x.csv", "m.csv", "y.csv", "sub.txt", "map.csv"} <= set(written)
    assert {"table1_summary.csv", "clusterstats_clusters.csv"} <= set(written)


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


@pytest.mark.parametrize(
    "sizes", ["1,x", ",", "1_0,20", "10,\uff120", "3,,3", "3,3,", ",3"]
)
def test_generate_appm_malformed_sizes_exits_1_with_error_line(tmp_path, sizes):
    proc = run_cli(
        "generate-appm", f"--sizes={sizes}", "--p", "0.5", "--q", "0.1",
        "--seed", "1", "--out-graph", tmp_path / "g.txt",
        "--out-partition", tmp_path / "p.csv", "--out-signal", tmp_path / "x.csv",
    )
    assert_one_error_line(proc)


# arguments that parse for each command; the option under test comes last,
# so it overrides an earlier value of the same option
NUMERIC_OPTION_COMMANDS = {
    "generate-appm": [
        "--sizes", "3,3", "--p", "0.5", "--q", "0.1", "--out-graph", "g.txt",
        "--out-partition", "p.csv", "--out-signal", "x.csv",
    ],
    "sample": ["--graph", "g.txt", "--method", "walk", "--budget", "2", "--out", "m.csv"],
    "recover": [
        "--graph", "g.txt", "--samples", "m.csv", "--signal", "x.csv", "--out", "y.csv"
    ],
    "experiment": ["clusterstats", "--out-dir", "out"],
    "extract-subgraph": ["--graph", "g.txt", "--walk-length", "3", "--out", "s.txt"],
}
INTEGER_OPTIONS = [
    ("generate-appm", "--seed"), ("sample", "--budget"), ("sample", "--walk-length"),
    ("sample", "--seed"), ("recover", "--max-iter"), ("experiment", "--runs"),
    ("experiment", "--seed"), ("experiment", "--workers"),
    ("extract-subgraph", "--walk-length"), ("extract-subgraph", "--seed"),
]
FLOAT_OPTIONS = [("generate-appm", "--p"), ("generate-appm", "--q"), ("recover", "--tol")]


@pytest.mark.parametrize(
    "command, option, value, kind",
    [(c, o, v, "integer") for c, o in INTEGER_OPTIONS for v in ("1_0", "\uff13")]
    + [(c, o, v, "float") for c, o in FLOAT_OPTIONS for v in ("0_5", "\uff10.5")],
)
def test_numeric_options_follow_the_file_grammar(
    tmp_path, monkeypatch, capsys, command, option, value, kind
):
    monkeypatch.chdir(tmp_path)
    assert main([command, *NUMERIC_OPTION_COMMANDS[command], option, value]) == 1
    assert f"argument {option}: non-{kind} field {value!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_failure_leaves_target_unchanged(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def failing(fh):
        fh.write("partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        _atomic_write(target, failing)
    assert target.read_text() == "old\n"
    assert list(tmp_path.glob("*.tmp")) == []


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


@pytest.mark.parametrize(
    "patched, command",
    [
        ("random_walk_sampling", ["sample", "--method", "walk", "--budget", "2"]),
        ("extract_subgraph", ["extract-subgraph", "--walk-length", "5"]),
    ],
)
def test_memory_error_exits_2_with_error_line(
    tmp_path, capsys, monkeypatch, patched, command
):
    # a walk of 1e12 steps cannot allocate its uniforms; raising in place of
    # the allocation keeps the test independent of the host's overcommit
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(f"rwtv.cli.{patched}", out_of_memory)
    _, gp, _, _ = write_bridge_instance(tmp_path, [0])
    out = tmp_path / "out.txt"
    code = main([*command, "--graph", str(gp), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 7.28 TiB\n"
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
        write_sampling(SamplingSet(nodes=np.arange(8)), fh)
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
    m = SamplingSet(nodes=np.array([0, 3]))
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


@pytest.mark.parametrize("command", ["check", "recover"])
def test_a_field_over_the_csv_limit_exits_1_with_error_line(tmp_path, command):
    gp, sp = write_path_instance(tmp_path)
    # csv's default field size limit is 131072 characters
    long_field = "0," + "1" * 131073 + "\n"
    pp, xp, out = tmp_path / "p.csv", tmp_path / "x.csv", tmp_path / "xhat.csv"
    pp.write_text("node_id,cluster_id\n" + long_field)
    xp.write_text("node_id,value\n" + long_field)
    if command == "check":
        proc = run_cli("check", "--graph", gp, "--partition", pp, "--samples", sp)
    else:
        proc = run_cli(
            "recover", "--graph", gp, "--samples", sp, "--signal", xp, "--out", out
        )
    assert_one_error_line(proc)
    assert proc.stderr == "error: line 2: field larger than field limit (131072)\n"
    assert not out.exists()


def test_sample_on_an_id_holding_a_non_ascii_digit_exits_1_with_error_line(tmp_path):
    # np.loadtxt in numpy 2.4 read "2\u0968" as the id 2380
    gp, out = tmp_path / "g.txt", tmp_path / "m.csv"
    gp.write_text("0 1\n1 2\u0968\n2 0\n", encoding="utf-8")
    proc = run_cli(
        "sample", "--graph", gp, "--method", "uniform", "--budget", "2", "--out", out
    )
    assert_one_error_line(proc)
    assert proc.stderr == "error: line 2: non-integer node id in '1 2\u0968'\n"
    assert not out.exists()


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


def test_experiment_table2_writes_summary_and_one_dump_per_length(tmp_path, capsys):
    code = main(
        [
            "experiment", "table2", "--runs", "2", "--seed", "1",
            "--out-dir", str(tmp_path), "--workers", "1",
        ]
    )
    assert code == 0
    capsys.readouterr()
    lines = (tmp_path / "table2_summary.csv").read_text().strip().splitlines()
    assert lines[0].startswith("walk_length,")
    assert [line.split(",")[0] for line in lines[1:]] == ["20", "40", "80", "160", "320"]
    assert sorted(p.name for p in tmp_path.glob("table2_trials_*.csv")) == sorted(
        f"table2_trials_walk_length{n}.csv" for n in (20, 40, 80, 160, 320)
    )


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


def experiment_digests(tmp_path, capsys, which, runs):
    """SHA-256 of every file that `experiment WHICH --runs RUNS --seed 1
    --workers 1` writes, by name."""
    code = main(
        [
            "experiment", which, "--runs", str(runs), "--seed", "1",
            "--out-dir", str(tmp_path), "--workers", "1",
        ]
    )
    assert code == 0
    capsys.readouterr()
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }


# SHA-256 of every file written by `experiment table1|clusterstats --runs 4
# --seed 1 --workers 1` under BENCHMARK_SLP. Like PINNED_SOLVES in
# test_slp.py, these hold for the numpy build they were recorded with
# (2.4.6): bit exactness of seeded draws across numpy versions is not
# promised.
PINNED_CERTIFIED_EXPERIMENT_FILES = {
    "table1": {
        "table1_summary.csv": "ddbc1c2ffb0d8d44befadee6d747884b4d02e9c2ba6c4dbddc1fb1981e040ccc",
        "table1_trials_budget10.csv": "fce4c709f699d7cdc48d0c76385906afa619ff383da4acc442a1d24bae03fa24",
        "table1_trials_budget20.csv": "a4bb85fd96a17f5d2d1afbc56b0e819a3f321982e18194e3cf9e71a86543241f",
        "table1_trials_budget30.csv": "cf325386d25210a20dce9feb9e61baa807582f0e4120d8286cbcdcb3225a6dde",
        "table1_trials_budget40.csv": "e962f2e3fce443daad442c6672e12a37fa351b77ff4e0b0ad8e3dc3d205f7fc5",
        "table1_trials_budget50.csv": "bc5460d5927f4ed592b0fc4a5923f02098cc200aa7a875a8547e4fa5a991f84b",
    },
    "clusterstats": {
        "clusterstats_clusters.csv": "f23f09b4fb83e19de2c3100f4c921e4e13884408f91e78eeb784c6e9a0003b6c",
        "clusterstats_trials.csv": "b1c933e4a6f69d942cee7b394f7abf1cad4fa8bd1d895661e33a00d217fe328a",
    },
}


@pytest.mark.parametrize("which", sorted(PINNED_CERTIFIED_EXPERIMENT_FILES))
def test_seeded_certified_experiment_files_are_pinned(tmp_path, capsys, which):
    digests = experiment_digests(tmp_path, capsys, which, 4)
    assert digests == PINNED_CERTIFIED_EXPERIMENT_FILES[which]


# SHA-256 of every file written by `experiment table2 --runs 2 --seed 1
# --workers 1` under BENCHMARK_SLP: walks of length 20..320, where the
# walker does most of the drawing. Recorded with the same numpy build as
# PINNED_CERTIFIED_EXPERIMENT_FILES.
PINNED_CERTIFIED_TABLE2_FILES = {
    "table2_summary.csv": "2497f7d67319951c49e918bb6746057055d42d751c103ab7f34f11c2f253aca2",
    "table2_trials_walk_length20.csv": "c0fa053f3c3bf5b9eb84f727b8b8873d41cbfb3ac515be6e8d7b37a4ff20812c",
    "table2_trials_walk_length40.csv": "c43d0f44aceb6456db60bbc8925e190789230fe6c10750cc8f0b333da669b10d",
    "table2_trials_walk_length80.csv": "ab45cc82d9fca8c5a41b364f372d766a247e6ccbdc1616a38958cb57a004c1d6",
    "table2_trials_walk_length160.csv": "eb4576f70f838a3df09840670399ca50144dcb74a36d1688bdddd1f8a416138e",
    "table2_trials_walk_length320.csv": "c3716735c687a8fb83cf3a114a6e0eccae26acce5b6c81165e3afec5121bdd96",
}


def test_seeded_certified_table2_files_are_pinned(tmp_path, capsys):
    digests = experiment_digests(tmp_path, capsys, "table2", 2)
    assert digests == PINNED_CERTIFIED_TABLE2_FILES


def run_fixture_pipeline(tmp_path, capsys, drop_isolated):
    """Run `extract-subgraph --out-map`, `sample --method walk` and `recover
    --max-iter 5000 --tol 1e-5` on the co-purchase fixture. Returns the
    directory of the files they write and what they print."""
    fixture = DATA / "copurchase_graph.txt"
    graph = ["--graph", str(fixture)] + ["--drop-isolated"] * drop_isolated
    _, _, id_map = reference_parse(fixture.read_text(), drop_isolated)
    ratings = dict(
        line.split(",")
        for line in (DATA / "copurchase_ratings.csv").read_text().split()[1:]
    )
    # the truth signal in the graph's dense ids
    (tmp_path / "x.csv").write_text(
        "node_id,value\n"
        + "".join(f"{d},{ratings[str(e)]}\n" for e, d in id_map.items())
    )
    out = tmp_path / "out"
    out.mkdir()
    commands = [
        [
            "extract-subgraph", *graph, "--walk-length", "400", "--seed", "1",
            "--out", out / "sub.txt", "--out-map", out / "map.csv",
        ],
        [
            "sample", *graph, "--method", "walk", "--budget", "100",
            "--walk-length", "20", "--seed", "1", "--out", out / "m.csv",
        ],
        [
            "recover", *graph, "--samples", out / "m.csv", "--signal",
            tmp_path / "x.csv", "--max-iter", "5000", "--tol", "1e-5",
            "--out", out / "xhat.csv",
        ],
    ]
    for argv in commands:
        assert main(list(map(str, argv))) == 0
    return out, capsys.readouterr().out


def test_every_graph_file_is_read_by_parse_edge_list(tmp_path, capsys, monkeypatch):
    # the one public reader, which tracing and profiling wrap, reads each --graph
    calls = []

    def spy(fh, *args, **kwargs):
        calls.append(fh.name)
        return parse_edge_list(fh, *args, **kwargs)

    monkeypatch.setattr(rwtv.cli, "parse_edge_list", spy)
    out, _ = run_fixture_pipeline(tmp_path, capsys, False)
    fixture = str(DATA / "copurchase_graph.txt")
    with open(fixture) as fh:
        g, _ = parse_edge_list(fh)
    with open(tmp_path / "p.csv", "w", newline="") as fh:
        write_partition(Partition(np.zeros(g.node_count, dtype=int)), fh)
    check = [
        "check", "--graph", fixture, "--partition", str(tmp_path / "p.csv"),
        "--samples", str(out / "m.csv"),
    ]
    assert main(check) in (0, 1)
    assert calls == [fixture] * 4


@pytest.mark.parametrize("drop_isolated", [False, True])
def test_recover_stops_within_tol_of_the_lp_optimum(tmp_path, capsys, drop_isolated):
    # --tol is the certified relative duality gap, so the recovered total
    # variation exceeds the optimum by at most that fraction
    out, printed = run_fixture_pipeline(tmp_path, capsys, drop_isolated)
    with open(DATA / "copurchase_graph.txt") as fh:
        g, _ = parse_edge_list(fh, drop_isolated=drop_isolated)
    with open(out / "m.csv") as fh:
        m = read_sampling(fh, g.node_count)
    with open(out / "xhat.csv") as fh:
        x_hat = read_signal(fh, g.node_count)
    iterations = int(printed.split("recovered in ")[1].split()[0])
    assert iterations < 5000
    _, tv_opt = tv_min_lp(g, m.nodes, x_hat[m.nodes])
    assert total_variation(g, x_hat) <= tv_opt * (1 + 1e-5)


# SHA-256 of every file that run_fixture_pipeline writes, keyed by whether
# --drop-isolated is set (two fixture nodes appear only in self-loop lines).
# Recorded with the same numpy build as PINNED_CERTIFIED_EXPERIMENT_FILES.
PINNED_PIPELINE_FILES = {
    False: {
        "m.csv": "75dddc5f83ad09a8665f73b83b7b9ff06ba1c6f22e9890c21e97ea1fbd1396fe",
        "map.csv": "fa7ac37e8d4f63d5d9a2b009d431330ddd98b212829791bfdce9e1c57e9b652f",
        "sub.txt": "8ea157d362b6d53c679cf474b6dcfa50d797f6b34e1648dc71560e667b3365dc",
        "xhat.csv": "09246d737b7bb4a9cff058a27179834076a9ff83e26595248abe8e39d53c13a6",
    },
    True: {
        "m.csv": "5ddfb526336b233c5e26ef60d0f512416e677116caf240db981595cd7b627b83",
        "map.csv": "fa7ac37e8d4f63d5d9a2b009d431330ddd98b212829791bfdce9e1c57e9b652f",
        "sub.txt": "8ea157d362b6d53c679cf474b6dcfa50d797f6b34e1648dc71560e667b3365dc",
        "xhat.csv": "b51188126f7f707b03d9e9bf5a4f72d189e6e34da6e17ecd940e3a238b56cda2",
    },
}


@pytest.mark.parametrize("drop_isolated", sorted(PINNED_PIPELINE_FILES))
def test_seeded_pipeline_files_are_pinned(tmp_path, capsys, drop_isolated):
    out, _ = run_fixture_pipeline(tmp_path, capsys, drop_isolated)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
    }
    assert digests == PINNED_PIPELINE_FILES[drop_isolated]


def test_recover_warns_when_it_stops_at_the_cap(tmp_path, capsys):
    out, _ = run_fixture_pipeline(tmp_path, capsys, True)
    recover = [
        "recover", "--graph", DATA / "copurchase_graph.txt", "--drop-isolated",
        "--samples", out / "m.csv", "--signal", tmp_path / "x.csv",
        "--out", tmp_path / "capped.csv",
    ]
    capped = run_cli(*recover, "--max-iter", "10")
    assert capped.returncode == 0
    assert capped.stdout.startswith("recovered in 10 iterations\n")
    gap_line = capped.stdout.splitlines()[1]
    assert gap_line.startswith("certified gap ") and gap_line.endswith(" (stop: cap)")
    warned = [line for line in capped.stderr.splitlines() if "--max-iter" in line]
    assert warned == [warned[0]] and warned[0].startswith("WARNING stopped at")
    # the file is written as for a solve that met --tol
    assert (tmp_path / "capped.csv").exists()
    # the fixture pipeline's own solve meets --tol and does not warn
    met = run_cli(*recover, "--max-iter", "5000", "--tol", "1e-5")
    assert met.returncode == 0 and "--max-iter" not in met.stderr
    assert met.stdout.splitlines()[1].endswith(" (stop: gap)")


def recover_warnings(tmp_path, caplog, graph, sampled):
    """The warnings ``recover`` logs on the edge list ``graph`` sampled at
    the dense ids ``sampled``, with every node's value 1."""
    gp, sp, xp = tmp_path / "g.txt", tmp_path / "m.csv", tmp_path / "x.csv"
    gp.write_text(graph)
    with open(gp) as fh:
        n = parse_edge_list(fh)[0].node_count
    sp.write_text("node_id\n" + "".join(f"{i}\n" for i in sampled))
    xp.write_text("node_id,value\n" + "".join(f"{i},1.0\n" for i in range(n)))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="rwtv.cli"):
        code = main(
            [
                "recover", "--graph", str(gp), "--samples", str(sp),
                "--signal", str(xp), "--out", str(tmp_path / "y.csv"),
            ]
        )
    assert code == 0
    return [r.getMessage() for r in caplog.records if r.name == "rwtv.cli"]


def test_recover_warns_once_of_components_with_no_sampled_node(tmp_path, caplog):
    # components {0, 1, 2}, {3, 4} and the isolated node 5; only 0 is sampled
    warned = recover_warnings(tmp_path, caplog, "0 1\n1 2\n3 4\n5 5\n", [0])
    assert warned == [
        "3 node(s) in 2 connected component(s) hold no sampled node; "
        "no sample determines their recovered values"
    ]
    # the same graph sampled in every component
    assert recover_warnings(tmp_path, caplog, "0 1\n1 2\n3 4\n5 5\n", [1, 4, 5]) == []


def test_recover_on_a_connected_graph_logs_nothing(tmp_path, caplog):
    assert recover_warnings(tmp_path, caplog, "0 1\n1 2\n2 3\n", [0, 3]) == []


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


@pytest.mark.parametrize("graph", ["missing", "two components"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["recover", "--tol", "-1"], "gap_tol must be finite and >= 0"),
        (["recover", "--max-iter", "0"], "max_iterations must be >= 1"),
        (["sample", "--method", "uniform", "--seed", "-1"], "seed must be an integer"),
        (["sample", "--method", "walk", "--walk-length", "0"], "walk length must be"),
        (["extract-subgraph", "--walk-length", "3", "--seed", "-1"], "seed must be"),
    ],
    ids=["recover-tol", "recover-max-iter", "sample-seed", "sample-length", "extract-seed"],
)
def test_options_are_checked_before_any_file_is_read(
    tmp_path, capsys, caplog, graph, argv, message
):
    # on the two-component graph a recover would warn of the unsampled
    # component first, and on the missing one report the missing file
    gp, sp, xp = tmp_path / "g.txt", tmp_path / "m.csv", tmp_path / "x.csv"
    if graph == "two components":
        gp.write_text("0 1\n1 2\n3 4\n")
        sp.write_text("node_id\n0\n")
        xp.write_text("node_id,value\n" + "".join(f"{i},1.0\n" for i in range(5)))
    before = sorted(tmp_path.iterdir())
    inputs = {
        "recover": ["--samples", str(sp), "--signal", str(xp)],
        "sample": ["--budget", "1"],
    }.get(argv[0], [])
    out = ["--out", str(tmp_path / "out.csv")]
    with caplog.at_level(logging.WARNING):
        code = main(argv[:1] + ["--graph", str(gp), *inputs, *argv[1:], *out])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert sorted(tmp_path.iterdir()) == before


def test_sample_uniform_ignores_the_walk_length(tmp_path):
    gp, out = tmp_path / "g.txt", tmp_path / "m.csv"
    gp.write_text("0 1\n1 2\n")
    argv = ["sample", "--graph", str(gp), "--method", "uniform", "--budget", "2"]
    assert main(argv + ["--walk-length", "0", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_usage_error_exits_1():
    assert main(["sample", "--definitely-not-a-flag"]) == 1
    assert main(["no-such-command"]) == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rwtv", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "experiment" in proc.stdout
