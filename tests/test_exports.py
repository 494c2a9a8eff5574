import importlib
import pkgutil

import rwtv
import rwtv.experiments
import rwtv.fileio


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition goes breaks `import *`
    modules = [rwtv] + [
        importlib.import_module(f"rwtv.{m.name}")
        for m in pkgutil.iter_modules(rwtv.__path__)
        if m.name != "__main__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 5
    assert missing == []


def test_public_surface_is_pinned():
    # adding or removing an export is an edit here
    assert sorted(rwtv.__all__) == [
        "AppmSpec",
        "Graph",
        "NullspaceReport",
        "NullspaceViolation",
        "Partition",
        "RngSeed",
        "SamplingBudgetError",
        "SamplingSet",
        "SlpConfig",
        "SlpResult",
        "WalkConfig",
        "check_nullspace_condition",
        "clip",
        "clustered_signal",
        "cut_size",
        "expected_cut_size",
        "expected_degree",
        "generate_appm",
        "incidence_apply",
        "incidence_transpose_apply",
        "is_connected",
        "nmse",
        "random_clustered_signal",
        "random_walk",
        "random_walk_sampling",
        "slp_recover",
        "total_variation",
        "uniform_sampling",
    ]


def test_file_and_experiment_surfaces_are_pinned():
    # the modules the CLI imports from; adding or removing an export is an edit here
    assert sorted(rwtv.fileio.__all__) == [
        "extract_subgraph",
        "parse_edge_list",
        "read_observations",
        "read_partition",
        "read_sampling",
        "read_signal",
        "read_signal_rows",
        "write_edge_list",
        "write_partition",
        "write_sampling",
        "write_signal",
    ]
    assert sorted(rwtv.experiments.__all__) == [
        "BENCHMARK_CLUSTER_SIZES",
        "BENCHMARK_P_INTRA",
        "BENCHMARK_Q_INTER",
        "BENCHMARK_SLP",
        "BENCHMARK_WALK_LENGTH",
        "CLUSTER_STATS_BUDGET",
        "TABLE1_BUDGETS",
        "TABLE2_BUDGET",
        "TABLE2_LENGTHS",
        "TrialRow",
        "TrialSpec",
        "TrialSummary",
        "aggregate_rows",
        "benchmark_trial_spec",
        "run_sweep",
        "run_trial",
        "write_cluster_summary_csv",
        "write_summary_csv",
        "write_trials_csv",
    ]
