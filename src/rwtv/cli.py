"""Command-line surface: generate, sample, check, recover, experiment, extract.

Exit codes: 0 success, 1 validation/input error, 2 runtime failure (for
example an unreachable sampling budget or a walk too long to allocate).
Each command checks its options before it reads any file, so a bad
option is the error reported, whatever the files hold. Output files are
written to a temporary name and renamed on success, so failures never
leave partial files behind.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from .experiments import (
    TABLE1_BUDGETS,
    TABLE2_BUDGET,
    TABLE2_LENGTHS,
    aggregate_rows,
    benchmark_trial_spec,
    run_sweep,
    write_cluster_summary_csv,
    write_summary_csv,
    write_trials_csv,
)
from .fileio import (
    _float_field,
    _int_field,
    extract_subgraph,
    parse_edge_list,
    read_observations,
    read_partition,
    read_sampling,
    write_edge_list,
    write_partition,
    write_sampling,
    write_signal,
)
from .graph import _check_count, _component_labels, is_connected
from .rng import RngSeed
from .sampling import (
    WalkConfig,
    check_nullspace_condition,
    random_walk_sampling,
    uniform_sampling,
)
from .slp import SlpConfig, nmse, slp_recover
from .synth import AppmSpec, generate_appm, random_clustered_signal

log = logging.getLogger(__name__)


# a fresh file, never one met through a symlink, closed in exec'd children
_TMP_FLAGS = (
    os.O_WRONLY | os.O_CREAT | os.O_EXCL
    | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_CLOEXEC", 0)
)


def _atomic_write(path, writer):
    path = Path(path)
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            # the kernel applies the umask, so the file gets the mode open()
            # would give it
            fd = os.open(tmp, _TMP_FLAGS, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_graph(path, drop_isolated=False):
    """The graph of an edge-list file and its external ids, ``ext[dense]``."""
    with open(path) as fh:
        return parse_edge_list(fh, drop_isolated)


def _number(parse, text):
    """A numeric option, read as rwtv reads a CSV field (argparse type)."""
    try:
        return parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


_INT, _FLOAT = partial(_number, _int_field), partial(_number, _float_field)


def _parse_sizes(text):
    try:
        return tuple(_int_field(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"--sizes must be comma-separated integers, got {text!r}")


def _cmd_generate_appm(args):
    spec = AppmSpec(_parse_sizes(args.sizes), args.p, args.q)
    master = RngSeed(args.seed)
    attempts = 1000 if args.require_connected else 1
    for attempt in range(attempts):
        gen = master.substream(attempt).generator()
        g, part = generate_appm(spec, gen)
        if not args.require_connected or is_connected(g):
            break
    else:
        raise RuntimeError(
            f"no connected draw in {attempts} attempts; raise p/q or drop "
            "--require-connected"
        )
    x = random_clustered_signal(part, gen)
    _atomic_write(args.out_graph, lambda fh: write_edge_list(g, fh))
    _atomic_write(args.out_partition, lambda fh: write_partition(part, fh))
    _atomic_write(args.out_signal, lambda fh: write_signal(x, fh))
    print(f"generated graph: {g.node_count} nodes, {g.edge_count} edges")
    return 0


def _cmd_sample(args):
    seed = RngSeed(args.seed)
    if args.method == "walk":
        cfg = WalkConfig(length=args.walk_length, budget=args.budget)
    g, _ = _load_graph(args.graph, args.drop_isolated)
    if args.method == "walk":
        m = random_walk_sampling(g, cfg, seed)
    else:
        m = uniform_sampling(g, args.budget, seed)
    _atomic_write(args.out, lambda fh: write_sampling(m, fh))
    print(f"sampled {len(m)} nodes")
    return 0


def _cmd_check(args):
    g, _ = _load_graph(args.graph, args.drop_isolated)
    with open(args.partition) as fh:
        part = read_partition(fh, g.node_count)
    with open(args.samples) as fh:
        m = read_sampling(fh, g.node_count)
    report = check_nullspace_condition(g, part, m)
    if report.satisfied:
        print("nullspace condition satisfied")
        return 0
    for v in report.violations:
        t, h = g.edges[v.edge]
        print(
            f"edge {v.edge} ({t},{h}): node {v.node} in cluster {v.cluster} "
            f"has {v.achieved} sampled same-cluster neighbor(s), needs 2"
        )
    print(f"nullspace condition violated ({len(report.violations)} violation(s))")
    return 1


def _cmd_recover(args):
    cfg = SlpConfig(max_iterations=args.max_iter, gap_tol=args.tol)
    g, _ = _load_graph(args.graph, args.drop_isolated)
    with open(args.samples) as fh:
        m = read_sampling(fh, g.node_count)
    with open(args.signal) as fh:
        observed, truth = read_observations(fh, m, g.node_count)

    _warn_unsampled_components(g, m)
    result = slp_recover(g, m, observed, cfg)
    _atomic_write(args.out, lambda fh: write_signal(result.recovered, fh))
    print(f"recovered in {result.iterations_run} iterations")
    print(f"certified gap {result.gap:.3g} (stop: {result.stop_reason})")
    if result.stop_reason == "cap":
        log.warning(
            "stopped at --max-iter %d with a certified relative gap of %.3g, "
            "above --tol %g",
            result.iterations_run,
            result.gap,
            cfg.gap_tol,
        )
    if truth is not None:
        print(f"NMSE {nmse(result.recovered, truth):.17g}")
    return 0


def _warn_unsampled_components(g, m):
    """Log one warning when a connected component holds no sampled node."""
    label = _component_labels(g)
    sampled = np.zeros(g.node_count, dtype=bool)
    sampled[label[m.nodes]] = True
    unsampled = ~sampled[label]
    if unsampled.any():
        roots = label == np.arange(g.node_count)
        log.warning(
            "%d node(s) in %d connected component(s) hold no sampled node; "
            "no sample determines their recovered values",
            np.count_nonzero(unsampled),
            np.count_nonzero(roots & unsampled),
        )


def _cmd_experiment(args):
    base = benchmark_trial_spec(runs=args.runs, seed=args.seed)
    workers = _check_count(args.workers, "workers")
    if args.which == "table1":
        param, values = "budget", TABLE1_BUDGETS
        walks = [WalkConfig(base.walk.length, b) for b in values]
    elif args.which == "table2":
        param, values = "walk_length", TABLE2_LENGTHS
        walks = [WalkConfig(length, TABLE2_BUDGET) for length in values]
    else:
        param, values, walks = None, [None], [base.walk]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_sweep(base, walks, workers=workers)
    summaries = [aggregate_rows(rows, failures=f) for _, rows, f in results]
    for value, (_, rows, _) in zip(values, results):
        suffix = f"_{param}{value}" if param else ""
        _atomic_write(
            out_dir / f"{args.which}_trials{suffix}.csv",
            lambda fh, rows=rows: write_trials_csv(fh, rows),
        )
    if param is None:
        (summary,) = summaries
        _atomic_write(
            out_dir / "clusterstats_clusters.csv",
            lambda fh: write_cluster_summary_csv(fh, summary),
        )
        print(f"mean NMSE {summary.mean_nmse:.6g} (std {summary.std_nmse:.6g})")
        for c, (s, cut) in enumerate(
            zip(summary.per_cluster_mean_samples, summary.per_cluster_mean_cut)
        ):
            print(f"cluster {c}: mean samples {s:.4g}, mean cut {cut:.4g}")
        return 0
    _atomic_write(
        out_dir / f"{args.which}_summary.csv",
        lambda fh: write_summary_csv(fh, param, values, summaries),
    )
    for value, s in zip(values, summaries):
        print(
            f"{param}={value}: mean NMSE {s.mean_nmse:.6g} "
            f"(std {s.std_nmse:.6g}, failures {s.failures})"
        )
    return 0


def _cmd_extract_subgraph(args):
    seed = RngSeed(args.seed)
    g, ext = _load_graph(args.graph, args.drop_isolated)
    sub, kept = extract_subgraph(g, args.walk_length, seed)
    _atomic_write(args.out, lambda fh: write_edge_list(sub, fh))
    if args.out_map:
        def write_map(fh):
            fh.write("new_id,source_id\n")
            for new, old in enumerate(ext[kept].tolist()):
                fh.write(f"{new},{old}\n")

        _atomic_write(args.out_map, write_map)
    print(f"extracted subgraph: {sub.node_count} nodes, {sub.edge_count} edges")
    return 0


@cache
def _build_parser():
    """The argument parser, built once per process: :func:`main` only
    parses with it, and nothing mutates it."""
    parser = argparse.ArgumentParser(
        prog="rwtv",
        description="Random-walk sampling and total-variation recovery "
        "of clustered graph signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # edge-list input shared by the commands that read a graph file
    graph_input = argparse.ArgumentParser(add_help=False)
    graph_input.add_argument("--graph", required=True)
    graph_input.add_argument(
        "--drop-isolated",
        action="store_true",
        help="drop nodes whose only edge-list lines were self-loops",
    )

    p = sub.add_parser("generate-appm", help="draw a planted-partition graph")
    p.add_argument("--sizes", required=True, help="comma-separated cluster sizes")
    p.add_argument("--p", type=_FLOAT, required=True, help="intra-cluster edge probability")
    p.add_argument("--q", type=_FLOAT, required=True, help="inter-cluster edge probability")
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-partition", required=True)
    p.add_argument("--out-signal", required=True)
    p.add_argument(
        "--require-connected",
        action="store_true",
        help="resample (up to 1000 draws) until the graph is connected",
    )
    p.set_defaults(func=_cmd_generate_appm)

    p = sub.add_parser("sample", help="build a sampling set", parents=[graph_input])
    p.add_argument("--method", choices=["walk", "uniform"], required=True)
    p.add_argument("--budget", type=_INT, required=True)
    p.add_argument("--walk-length", type=_INT, default=10)
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "check", help="verify the exact-recovery condition", parents=[graph_input]
    )
    p.add_argument("--partition", required=True)
    p.add_argument("--samples", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "recover", help="recover a signal from samples", parents=[graph_input]
    )
    p.add_argument("--samples", required=True)
    p.add_argument(
        "--signal",
        required=True,
        help="full signal (truth) or values on exactly the sampled nodes",
    )
    p.add_argument(
        "--max-iter",
        type=_INT,
        default=SlpConfig().max_iterations,
        help="stop after this many iterations at the latest (default: %(default)s)",
    )
    p.add_argument(
        "--tol",
        type=_FLOAT,
        default=SlpConfig().gap_tol,
        help="stop once the certified relative duality gap of the recovered "
        "signal is at most this (default: %(default)s)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("experiment", help="run a Monte-Carlo benchmark")
    p.add_argument("which", choices=["table1", "table2", "clusterstats"])
    p.add_argument("--runs", type=_INT, default=1000)
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--workers", type=_INT, default=os.cpu_count() or 1,
        help="trial worker processes (default: all cores)",
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "extract-subgraph",
        help="induced neighborhood of one random walk",
        parents=[graph_input],
    )
    p.add_argument("--walk-length", type=_INT, required=True)
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--out-map", help="optional CSV mapping new ids to source ids")
    p.set_defaults(func=_cmd_extract_subgraph)

    return parser


def main(argv=None):
    logging.basicConfig(format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are validation failures here
        return 1 if exc.code == 2 else (exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
