import numpy as np
import pytest

import rwtv.synth
from reference_appm import reference_generate_appm
from rwtv import (
    AppmSpec,
    RngSeed,
    cut_size,
    expected_cut_size,
    expected_degree,
    generate_appm,
    random_clustered_signal,
)

BENCH = AppmSpec((10, 20, 30, 40), 0.3, 0.05)


def test_spec_validation():
    with pytest.raises(ValueError):
        AppmSpec((), 0.3, 0.05)
    with pytest.raises(ValueError):
        AppmSpec((5,), 1.5, 0.0)
    with pytest.raises(ValueError):
        AppmSpec((5, 0), 0.3, 0.05)


def test_deterministic_limit_two_disjoint_triangles():
    g, part = generate_appm(AppmSpec((3, 3), 1.0, 0.0), RngSeed(0))
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]
    assert part.labels.tolist() == [0, 0, 0, 1, 1, 1]


def test_deterministic_limit_edgeless():
    g, _ = generate_appm(AppmSpec((4, 4), 0.0, 0.0), RngSeed(0))
    assert g.edge_count == 0


def assert_draw_matches_reference(spec, seed):
    # the same edges, the same partition, and the generator left where the
    # reference draw leaves it
    gen, ref = RngSeed(seed).generator(), RngSeed(seed).generator()
    g, part = generate_appm(spec, gen)
    g_ref, part_ref = reference_generate_appm(spec, ref)
    assert g.node_count == g_ref.node_count
    assert np.array_equal(g.edges, g_ref.edges)
    assert np.array_equal(part.labels, part_ref.labels)
    assert gen.random() == ref.random()


def test_draw_matches_reference_draw():
    for seed in range(50):
        assert_draw_matches_reference(BENCH, seed)


@pytest.mark.parametrize(
    "spec",
    [
        AppmSpec((10, 20, 30, 40), 0.0, 0.05),
        AppmSpec((10, 20, 30, 40), 0.3, 0.0),
        AppmSpec((10, 20, 30, 40), 0.0, 0.0),
        AppmSpec((3, 4, 5), 1.0, 1.0),
        AppmSpec((1, 1, 4, 1), 0.5, 0.3),
        AppmSpec((12,), 0.4, 0.2),
        AppmSpec((1,), 0.5, 0.5),
    ],
)
def test_draw_matches_reference_draw_at_edge_cases(spec):
    for seed in range(5):
        assert_draw_matches_reference(spec, seed)


def test_draw_in_chunks_within_rows_matches_reference_draw(monkeypatch):
    # chunk boundaries then fall inside blocks and inside their rows
    monkeypatch.setattr(rwtv.synth, "_DRAW", 7)
    for spec in (BENCH, AppmSpec((1, 1, 4, 1), 0.5, 0.3), AppmSpec((9,), 0.4, 0.0)):
        for seed in range(5):
            assert_draw_matches_reference(spec, seed)


def test_draws_of_one_spec_share_a_read_only_partition():
    _, part = generate_appm(BENCH, RngSeed(1))
    _, again = generate_appm(BENCH, RngSeed(2))
    assert again is part
    assert not part.labels.flags.writeable
    assert not any(c.flags.writeable for c in part.clusters)


def test_same_seed_reproduces_identical_draw():
    g1, _ = generate_appm(BENCH, RngSeed(99))
    g2, _ = generate_appm(BENCH, RngSeed(99))
    assert g1 == g2


def test_draws_satisfy_graph_invariants():
    g, part = generate_appm(BENCH, RngSeed(5))
    assert int(g.degrees.sum()) == 2 * g.edge_count
    assert np.all(g.tails < g.heads)
    assert part.node_count == g.node_count == 100


def test_intra_pair_edge_frequency_matches_p():
    # Monte-Carlo estimate of the intra-cluster edge probability
    intra_pairs = sum(s * (s - 1) // 2 for s in BENCH.cluster_sizes)
    edges_seen = 0
    draws = 2000
    master = RngSeed(2024)
    for t in range(draws):
        g, part = generate_appm(BENCH, master.substream(t))
        la = part.labels
        edges_seen += int(np.count_nonzero(la[g.tails] == la[g.heads]))
    freq = edges_seen / (draws * intra_pairs)
    assert freq == pytest.approx(0.3, abs=0.01)


def test_expected_degree_reference_values():
    assert expected_degree(BENCH, 0) == pytest.approx(7.2)  # 0.3*9 + 0.05*90
    single = AppmSpec((25,), 0.4, 0.0)
    assert expected_degree(single, 0) == pytest.approx(0.4 * 24)
    flat = AppmSpec((10, 30), 0.2, 0.2)
    assert expected_degree(flat, 0) == pytest.approx(0.2 * 39)
    assert expected_degree(flat, 1) == pytest.approx(0.2 * 39)


def test_expected_cut_size_reference_values():
    assert expected_cut_size(AppmSpec((10, 90), 0.3, 0.0), 0) == 0.0
    assert expected_cut_size(BENCH, 0) == pytest.approx(45.0)  # 0.05*10*90
    assert expected_cut_size(BENCH, 3) == pytest.approx(120.0)  # 0.05*40*60


def test_unknown_cluster_rejected():
    with pytest.raises(ValueError, match="unknown cluster"):
        expected_degree(BENCH, 4)
    with pytest.raises(ValueError, match="unknown cluster"):
        expected_cut_size(BENCH, -1)


def test_empirical_degree_and_cut_match_model_within_three_se():
    draws = 300
    master = RngSeed(77)
    mean_deg = np.zeros((draws, 4))
    cuts = np.zeros((draws, 4))
    for t in range(draws):
        g, part = generate_appm(BENCH, master.substream(t))
        for c in range(4):
            mean_deg[t, c] = g.degrees[part.clusters[c]].mean()
            cuts[t, c] = cut_size(g, part, c)
    for c in range(4):
        se = mean_deg[:, c].std(ddof=1) / np.sqrt(draws)
        assert abs(mean_deg[:, c].mean() - expected_degree(BENCH, c)) <= 3 * se
        se = cuts[:, c].std(ddof=1) / np.sqrt(draws)
        assert abs(cuts[:, c].mean() - expected_cut_size(BENCH, c)) <= 3 * se


def test_random_clustered_signal_properties():
    _, part = generate_appm(BENCH, RngSeed(1))
    x = random_clustered_signal(part, RngSeed(8))
    assert np.all((x >= 0.0) & (x < 1.0))
    for cluster in part.clusters:
        assert np.unique(x[cluster]).size == 1
    again = random_clustered_signal(part, RngSeed(8))
    assert np.array_equal(x, again)
