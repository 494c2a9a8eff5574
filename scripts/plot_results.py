#!/usr/bin/env python3
"""Render `rwtv experiment table1|table2|clusterstats` CSVs as PNG figures.

Not part of the test surface; requires matplotlib.
"""

import argparse
import csv
from pathlib import Path

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit("plotting requires matplotlib (pip install matplotlib)")


def read_summary(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


def plot_sweep(path, param, out):
    rows = read_summary(path)
    x = [float(r[param]) for r in rows]
    mean = [float(r["mean_nmse"]) for r in rows]
    std = [float(r["std_nmse_population"]) for r in rows]
    fig, ax = plt.subplots(figsize=(5, 3.2))
    ax.errorbar(x, mean, yerr=std, marker="o", capsize=3)
    ax.set_xlabel(param.replace("_", " "))
    ax.set_ylabel("mean NMSE")
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def plot_clusters(path, out):
    rows = read_summary(path)
    clusters = [int(r["cluster"]) for r in rows]
    samples = [float(r["mean_samples"]) for r in rows]
    cuts = [float(r["mean_cut"]) for r in rows]
    fig, ax1 = plt.subplots(figsize=(5, 3.2))
    ax2 = ax1.twinx()
    ax1.bar([c - 0.2 for c in clusters], samples, width=0.4, label="mean samples")
    ax2.bar(
        [c + 0.2 for c in clusters], cuts, width=0.4, color="C1", label="mean cut"
    )
    ax1.set_xlabel("cluster")
    ax1.set_ylabel("mean samples")
    ax2.set_ylabel("mean cut size")
    ax1.set_xticks(clusters)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--in-dir", type=Path, default=Path("benchmark_results"))
    parser.add_argument("--out-dir", type=Path, default=None)
    args = parser.parse_args()
    out_dir = args.out_dir or args.in_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("table1_summary.csv", lambda p: plot_sweep(p, "budget", out_dir / "table1.png")),
        ("table2_summary.csv", lambda p: plot_sweep(p, "walk_length", out_dir / "table2.png")),
        ("clusterstats_clusters.csv", lambda p: plot_clusters(p, out_dir / "clusterstats.png")),
    ]
    for name, fn in jobs:
        path = args.in_dir / name
        if path.exists():
            fn(path)
        else:
            print(f"skipping {name}: not found in {args.in_dir}")


if __name__ == "__main__":
    main()
