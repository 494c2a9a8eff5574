import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rwtv.sampling
from rwtv import (
    AppmSpec,
    Graph,
    Partition,
    RngSeed,
    SamplingBudgetError,
    SamplingSet,
    WalkConfig,
    check_nullspace_condition,
    cut_size,
    generate_appm,
    random_walk,
    random_walk_sampling,
    uniform_sampling,
)
from rwtv.fileio import extract_subgraph, parse_edge_list
from rwtv.sampling import _step_row, _step_table
from strategies import graphs, partitions

DATA = Path(__file__).parent / "data"

BENCH = AppmSpec((10, 20, 30, 40), 0.3, 0.05)


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def two_cliques_with_bridge():
    # clusters {0..3} and {4..7}, bridge (3,4)
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    edges.append((3, 4))
    return Graph(8, edges), Partition([0, 0, 0, 0, 1, 1, 1, 1])


# -------------------------------------------------------------- random walks

def test_walk_on_single_node_stays_put():
    path = random_walk(Graph(1, []), 0, 5, RngSeed(0))
    assert path.tolist() == [0, 0, 0, 0, 0]


def test_walk_length_one_is_seed():
    path = random_walk(complete_graph(4), 2, 1, RngSeed(0))
    assert path.tolist() == [2]


def test_walk_steps_follow_edges():
    g = complete_graph(5)
    path = random_walk(g, 0, 50, RngSeed(1))
    for a, b in zip(path[:-1], path[1:]):
        assert b in g.neighbors(a)


def test_walk_invalid_seed():
    with pytest.raises(ValueError, match="out of range"):
        random_walk(complete_graph(3), 3, 5, RngSeed(0))
    with pytest.raises(ValueError, match="length"):
        random_walk(complete_graph(3), 0, 0, RngSeed(0))


def test_walk_visit_frequency_on_triangle():
    path = random_walk(complete_graph(3), 0, 100_000, RngSeed(5))
    freq = np.bincount(path, minlength=3) / path.size
    assert np.all(np.abs(freq - 1 / 3) <= 0.01)


def test_walk_deterministic_per_seed():
    g = complete_graph(6)
    p1 = random_walk(g, 0, 100, RngSeed(9))
    p2 = random_walk(g, 0, 100, RngSeed(9))
    assert np.array_equal(p1, p2)


def reference_walk(g, seed_node, length, gen):
    # the walk's definition over neighbor lists built from g.edges: one
    # uniform draw per step, scaled to the current node's degree
    nbrs = [[] for _ in range(g.node_count)]
    for t, h in g.edges.tolist():
        nbrs[t].append(h)
        nbrs[h].append(t)
    path = [seed_node]
    for u in gen.random(length - 1):
        nb = sorted(nbrs[path[-1]])
        path.append(nb[min(int(u * len(nb)), len(nb) - 1)] if nb else path[-1])
    return path


def test_walk_matches_reference_walk():
    graphs_ = [
        complete_graph(5),
        two_cliques_with_bridge()[0],
        Graph(7, [(0, 1), (1, 2), (2, 0), (4, 5)]),  # nodes 3 and 6 isolated
        generate_appm(BENCH, RngSeed(4).generator())[0],
    ]
    for g in graphs_:
        for seed in range(6):
            start = seed % g.node_count
            for length in (1, 2, 17, 200):
                expected = reference_walk(
                    g, start, length, RngSeed(seed).generator()
                )
                path = random_walk(g, start, length, RngSeed(seed).generator())
                assert path.dtype == np.int64
                assert path.tolist() == expected


def test_walks_longer_than_two_blocks_match_reference_walk():
    # the uniforms are drawn in blocks of rwtv.sampling._BLOCK; the blocks
    # must read the stream exactly as one draw, and leave it where one would
    g = Graph(7, [(0, 1), (1, 2), (2, 0), (2, 4), (4, 5)])  # 3 and 6 isolated
    length = 2 * rwtv.sampling._BLOCK + 7
    for seed in range(3):
        ref = RngSeed(seed).generator()
        expected = reference_walk(g, 0, length, ref)
        gen = RngSeed(seed).generator()
        assert random_walk(g, 0, length, gen).tolist() == expected
        assert gen.random() == ref.random()

        ref = RngSeed(seed).generator()
        start = int(ref.integers(g.node_count))
        end = reference_walk(g, start, length, ref)[-1]
        gen = RngSeed(seed).generator()
        m = random_walk_sampling(g, WalkConfig(length, 1), gen)
        assert m.nodes.tolist() == [end]
        assert gen.random() == ref.random()


def test_step_table_fills_the_rows_a_walk_would():
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (4, 7)]  # 0, 5, 6, 8 isolated
    g = Graph(9, edges)
    table = _step_table(g)
    assert table == [_step_row(g.neighbors(v).tolist(), v) for v in range(9)]
    assert table[4] == [3.0, 1, 3, 7, 7]
    assert [table[v] for v in (0, 5, 6, 8)] == [[1.0, v, v] for v in (0, 5, 6, 8)]


def test_walks_leave_the_graph_unchanged():
    g = Graph(7, [(0, 1), (1, 2), (2, 0), (4, 5)])  # nodes 3 and 6 isolated
    before = dict(vars(g))
    random_walk(g, 0, 50, RngSeed(0))
    random_walk_sampling(g, WalkConfig(10, 4), RngSeed(1))
    after = vars(g)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_one_walk_never_builds_the_whole_step_table(monkeypatch):
    # random_walk fills only the rows it visits, which keeps one walk on a
    # large graph (extract-subgraph) from paying for the whole table
    with open(DATA / "copurchase_graph.txt") as fh:
        g, _ = parse_edge_list(fh)
    path = random_walk(g, 0, 400, RngSeed(5))
    sub, kept = extract_subgraph(g, 400, RngSeed(6))

    def whole_table(g):
        raise AssertionError("the whole step table was built")

    monkeypatch.setattr(rwtv.sampling, "_step_table", whole_table)
    assert random_walk(g, 0, 400, RngSeed(5)).tolist() == path.tolist()
    sub_again, kept_again = extract_subgraph(g, 400, RngSeed(6))
    assert sub_again == sub
    assert np.array_equal(kept_again, kept)
    with pytest.raises(AssertionError, match="whole step table"):
        random_walk_sampling(g, WalkConfig(3, 1), RngSeed(0))


# ----------------------------------------------------------- walk sampling

def reference_sampler(g, cfg, gen):
    # the sampler's definition: endpoints of reference walks from uniformly
    # drawn seeds until the budget is met
    chosen = set()
    while len(chosen) < cfg.budget:
        start = int(gen.integers(g.node_count))
        chosen.add(reference_walk(g, start, cfg.length, gen)[-1])
    return sorted(chosen)


# nodes 20, 21 and 24-29 are isolated
SPARSE = Graph(30, [(i, i + 1) for i in range(19)] + [(0, 10), (5, 15), (22, 23)])


def sampler_paths(monkeypatch):
    """The names of the sampler's paths, appended as each call takes one."""
    taken = []
    for name in ("_loop_sampling", "_lockstep_sampling"):
        real = getattr(rwtv.sampling, name)

        def spy(*args, real=real, name=name):
            taken.append(name)
            return real(*args)

        monkeypatch.setattr(rwtv.sampling, name, spy)
    return taken


def assert_sampler_matches_reference(g, cfg, make_gen, prior_draws=0):
    # the sampler's set, and the generator it leaves, against the reference
    # sampler's; an odd number of prior integers draws enters with a held
    # 32-bit half
    ref, gen = make_gen(), make_gen()
    for _ in range(prior_draws):
        assert ref.integers(1000) == gen.integers(1000)
    expected = reference_sampler(g, cfg, ref)
    assert random_walk_sampling(g, cfg, gen).nodes.tolist() == expected
    if type(ref.bit_generator) is np.random.PCG64:
        assert gen.bit_generator.state == ref.bit_generator.state
    assert gen.integers(1000) == ref.integers(1000)
    assert gen.random() == ref.random()
    assert gen.integers(1000) == ref.integers(1000)


def test_walk_sampling_matches_reference_sampler():
    # budgets on both sides of the lockstep walker's crossover, entered
    # with and without a held 32-bit half
    crossover = rwtv.sampling._LOCKSTEP_BUDGET
    graphs_ = [
        Graph(1, []),
        Graph(7, [(0, 1), (1, 2), (2, 0), (4, 5)]),  # nodes 3 and 6 isolated
        Graph(9, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 7)]),  # 0, 5, 6, 8 isolated
        SPARSE,
        generate_appm(BENCH, RngSeed(4).generator())[0],
    ]
    for g in graphs_:
        n = g.node_count
        budgets = {1, crossover - 1, crossover, (crossover + n) // 2, min(n, 40)}
        for budget in sorted(b for b in budgets if b <= n):
            for seed in range(3):
                for length in (1, 2, 17, 200):
                    for prior_draws in (0, 1, 3):
                        assert_sampler_matches_reference(
                            g,
                            WalkConfig(length, budget),
                            RngSeed(seed, 10 * budget + prior_draws).generator,
                            prior_draws,
                        )


def test_walk_sampling_takes_the_lockstep_path_where_it_pays(monkeypatch):
    # the lockstep walker needs numpy's PCG64, 2 <= n < 2**32, a budget at
    # or above the crossover, and a batch of `budget` walks inside the word
    # cap (see the test below); every other call runs the loop
    taken = sampler_paths(monkeypatch)
    crossover = rwtv.sampling._LOCKSTEP_BUDGET
    g = generate_appm(BENCH, RngSeed(4).generator())[0]

    def sfc64():
        return np.random.Generator(np.random.SFC64(0))

    cases = [
        (g, 10, crossover - 1, RngSeed(0).generator, "_loop_sampling"),
        # table2's budget, where the loop is faster at every walk length
        (g, 20, 10, RngSeed(0).generator, "_loop_sampling"),
        (g, 320, 10, RngSeed(0).generator, "_loop_sampling"),
        (g, 10, crossover, RngSeed(0).generator, "_lockstep_sampling"),
        (g, 10, 100, RngSeed(0).generator, "_lockstep_sampling"),
        (Graph(1, []), 10, 1, RngSeed(0).generator, "_loop_sampling"),
        (g, 10, crossover, sfc64, "_loop_sampling"),
    ]
    for graph, length, budget, make_gen, path in cases:
        random_walk_sampling(graph, WalkConfig(length, budget), make_gen())
        assert taken.pop() == path, (length, budget)


def test_walks_over_the_word_cap_match_reference_sampler(monkeypatch):
    # a batch of `budget` walks must fit in rwtv.sampling._WORDS raw words;
    # a length one over that runs the loop, and both give the reference sets
    taken = sampler_paths(monkeypatch)
    crossover = rwtv.sampling._LOCKSTEP_BUDGET
    longest = rwtv.sampling._WORDS // crossover
    for length in (longest, longest + 1):
        for prior_draws in (0, 1):
            assert_sampler_matches_reference(
                SPARSE, WalkConfig(length, crossover), RngSeed(5).generator, prior_draws
            )
    assert taken == ["_lockstep_sampling"] * 2 + ["_loop_sampling"] * 2


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM],
)
def test_other_bit_generators_walk_the_loop_and_match_reference(
    monkeypatch, bit_generator
):
    taken = sampler_paths(monkeypatch)
    crossover = rwtv.sampling._LOCKSTEP_BUDGET
    g = generate_appm(BENCH, RngSeed(4).generator())[0]
    for seed in range(2):
        for length, budget in ((2, crossover), (17, 40), (80, crossover)):
            assert_sampler_matches_reference(
                g,
                WalkConfig(length, budget),
                lambda: np.random.Generator(bit_generator(seed)),
                prior_draws=seed,
            )
    assert set(taken) == {"_loop_sampling"}


def numpy_seeds(words, n, k, steps, held, half):
    # Generator.integers(n) on PCG64, one walk at a time: a fresh word's
    # low half then its high half, Lemire's method, and a walk's uniforms
    # after its seed
    at, buffer, seeds = 0, half if held else None, []
    for _ in range(k):
        if buffer is None:
            word = int(words[at])
            at += 1
            h, buffer = word & 0xFFFFFFFF, word >> 32
        else:
            h, buffer = buffer, None
        if (h * n) & 0xFFFFFFFF < 2**32 % n:
            break
        seeds.append(h * n >> 32)
        at += steps
    return seeds


def test_seed_decoder_reads_numpys_halves():
    words = np.random.default_rng(8).integers(0, 2**64, 400, np.uint64, endpoint=False)
    for n in (2, 100, 3 * 2**30, 2**32 - 1):
        for k in (1, 4, 5):
            for steps in (0, 1, 3):
                for held, half in ((0, 0), (1, 7), (1, 2**32 - 1)):
                    seeds, halves = rwtv.sampling._walk_seeds(
                        words, n, k, steps, held, half
                    )
                    assert seeds.tolist() == numpy_seeds(words, n, k, steps, held, half)
                    assert halves.size >= k


def test_seed_decoder_stops_at_a_rejected_half():
    # with n = 100, Lemire's method rejects a half h while (h * 100) mod
    # 2**32 < 2**32 % 100 = 96; the half 0 gives 0
    decode = rwtv.sampling._walk_seeds
    steps = 3
    words = np.full(40, 2**32 + 1, np.uint64)  # halves 1, 1: seed 0
    words[7] = 0  # walk 2's fresh seed word, its low half rejected
    assert decode(words, 100, 5, steps, 0, 0)[0].tolist() == [0, 0]
    words[7] = 1  # now walk 3's held half, the high one, is rejected
    assert decode(words, 100, 5, steps, 0, 0)[0].tolist() == [0, 0, 0]
    assert decode(words, 100, 4, steps, 0, 0)[0].tolist() == [0, 0, 0]
    assert decode(words, 100, 3, steps, 0, 0)[0].tolist() == [0, 0, 0]
    # a held half of 0 rejects the first walk
    assert decode(words, 100, 5, steps, 1, 0)[0].tolist() == []
    assert decode(words, 100, 5, steps, 1, 1)[0].tolist() == [0] * 5


class CountingGenerator(np.random.Generator):
    """A numpy Generator that counts its ``integers`` and ``random`` calls."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.calls = []

    def integers(self, *args, **kwargs):
        self.calls.append("integers")
        return super().integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls.append("random")
        return super().random(*args, **kwargs)


def test_a_rejected_seed_draw_walks_through_the_generator(monkeypatch):
    # numpy redraws a rejected half; the sampler then runs that walk
    # through the generator and resumes. A decoder patched to reject walk
    # r of the first batch must leave the set and the stream unchanged,
    # and walk r must draw from the generator itself, unless the walks
    # before it already met the budget.
    real = rwtv.sampling._walk_seeds
    g = generate_appm(BENCH, RngSeed(4).generator())[0]
    batches = []
    for length in (1, 10):
        cfg = WalkConfig(length, 30)
        for prior_draws in (0, 1):
            ref = RngSeed(prior_draws).generator()
            for _ in range(prior_draws):
                ref.integers(1000)
            chosen, met = set(), 0
            while len(chosen) < cfg.budget:
                start = int(ref.integers(g.node_count))
                chosen.add(reference_walk(g, start, length, ref)[-1])
                met += 1
            for r in (0, 1, 7, met - 1, met):

                def reject_walk_r(words, n, k, steps, held, half):
                    seeds, halves = real(words, n, k, steps, held, half)
                    batches.append(k)
                    return (seeds[:r] if len(batches) == 1 else seeds), halves

                monkeypatch.setattr(rwtv.sampling, "_walk_seeds", reject_walk_r)
                batches.clear()
                assert_sampler_matches_reference(
                    g, cfg, RngSeed(prior_draws).generator, prior_draws
                )
                assert batches[0] > met
                # walk met - 1 is the last walk the budget needs
                assert len(batches) == (1 if r >= met - 1 else 2)

                gen = CountingGenerator(RngSeed(prior_draws).generator().bit_generator)
                for _ in range(prior_draws):
                    gen.integers(1000)
                gen.calls.clear()
                batches.clear()
                random_walk_sampling(g, cfg, gen)
                assert gen.calls == ([] if r == met else ["integers", "random"])


# SHA-256 over the sampling sets of 4 reference draws at each Table 2 walk
# length, budget 50, each followed by the generator's next draw. Like
# PINNED_SOLVES in test_slp.py, it holds for the numpy build it was recorded
# with (2.4.6).
PINNED_WALK_SETS = "b36388f15a4c6d593e48090f18c255df46643d0367e6070e1b110c325817ed39"


def test_seeded_walk_sampling_sets_are_pinned():
    h = hashlib.sha256()
    master = RngSeed(17)
    for k, length in enumerate((20, 40, 80, 160, 320)):
        for t in range(4):
            gen = master.substream(4 * k + t).generator()
            g, _ = generate_appm(BENCH, gen)
            m = random_walk_sampling(g, WalkConfig(length, 50), gen)
            h.update(m.nodes.tobytes())
            h.update(gen.random(1).tobytes())
    assert h.hexdigest() == PINNED_WALK_SETS


def test_full_budget_exhausts_nodes():
    m = random_walk_sampling(complete_graph(3), WalkConfig(4, 3), RngSeed(0))
    assert m.nodes.tolist() == [0, 1, 2]
    assert len(m) == 3


def test_budget_one_singleton():
    m = random_walk_sampling(complete_graph(5), WalkConfig(3, 1), RngSeed(0))
    assert len(m) == 1


def test_budget_above_node_count_rejected():
    with pytest.raises(ValueError, match="budget"):
        random_walk_sampling(complete_graph(3), WalkConfig(4, 4), RngSeed(0))


def test_walk_sampling_deterministic():
    g, _ = generate_appm(BENCH, RngSeed(3))
    m1 = random_walk_sampling(g, WalkConfig(10, 30), RngSeed(11))
    m2 = random_walk_sampling(g, WalkConfig(10, 30), RngSeed(11))
    assert np.array_equal(m1.nodes, m2.nodes)


def test_unreachable_budget_raises(monkeypatch):
    # force every walk to the same endpoint so a budget of 2 can never fill:
    # a step table whose every row (see rwtv.sampling._step_row) leads to node 0
    monkeypatch.setattr(
        rwtv.sampling, "_step_table", lambda g: [[1.0, 0, 0]] * g.node_count
    )
    g = complete_graph(4)
    with pytest.raises(SamplingBudgetError, match="unreachable"):
        random_walk_sampling(g, WalkConfig(3, 2), RngSeed(0))


def test_unreachable_budget_raises_on_the_lockstep_path(monkeypatch):
    # a lockstep table (see rwtv.sampling._padded_table) whose every entry
    # leads to node 0: the lockstep path must stop where the loop does, after
    # 100 * budget walks, with the same message
    def to_node_0(g):
        n = g.node_count
        return np.zeros(n + 2, np.int64), np.full(n + 2, n, np.intp), np.ones(n + 2)

    monkeypatch.setattr(rwtv.sampling, "_padded_table", to_node_0)
    monkeypatch.setattr(
        rwtv.sampling, "_step_table", lambda g: [[1.0, 0, 0]] * g.node_count
    )
    taken = sampler_paths(monkeypatch)
    budget = rwtv.sampling._LOCKSTEP_BUDGET
    g = complete_graph(budget + 4)
    message = (
        f"sampling budget unreachable: 1/{budget} distinct endpoints "
        f"after {100 * budget} walks"
    )
    def mt19937():
        return np.random.Generator(np.random.MT19937(0))

    for make_gen in (RngSeed(0).generator, mt19937):
        gen = make_gen()
        with pytest.raises(SamplingBudgetError) as err:
            random_walk_sampling(g, WalkConfig(3, budget), gen)
        assert str(err.value) == message
        ref = make_gen()
        for _ in range(100 * budget):
            ref.integers(g.node_count)
            ref.random(2)
        assert gen.random() == ref.random()
    assert taken == ["_lockstep_sampling", "_loop_sampling"]


def test_per_cluster_counts_track_cut_sizes():
    # endpoints should concentrate where the cut (hence degree mass) is larger
    master = RngSeed(21)
    trials = 300
    counts = np.zeros(4)
    cuts = np.zeros(4)
    for t in range(trials):
        gen = master.substream(t).generator()
        g, part = generate_appm(BENCH, gen)
        m = random_walk_sampling(g, WalkConfig(10, 50), gen)
        counts += np.bincount(part.labels[m.nodes], minlength=4)
        cuts += [cut_size(g, part, c) for c in range(4)]
    r = np.corrcoef(counts, cuts)[0, 1]
    assert r >= 0.9


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WalkConfig(0, 3), "walk length must be >= 1"),
        (lambda: SamplingSet(nodes=[1, 1]), "distinct"),
        (lambda: SamplingSet(nodes=[-1]), "nonnegative"),
        (lambda: SamplingSet(nodes=[[0, 1], [2, 3]]), "must be a 1-d sequence"),
        (lambda: SamplingSet(nodes=5), "must be a 1-d sequence"),
    ],
)
def test_invalid_walk_config_and_sampling_set_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_sampling_set_is_just_its_nodes():
    # the budget is len(m); there is no second field to disagree with it
    with pytest.raises(TypeError):
        SamplingSet(nodes=[0], budget=1)
    m = SamplingSet(nodes=[4, 2])
    assert len(m) == 2 and m.nodes.tolist() == [2, 4]


# --------------------------------------------------------- uniform sampling

def test_uniform_full_budget():
    m = uniform_sampling(complete_graph(4), 4, RngSeed(0))
    assert m.nodes.tolist() == [0, 1, 2, 3]


def test_uniform_zero_budget_rejected():
    with pytest.raises(ValueError, match="budget"):
        uniform_sampling(complete_graph(4), 0, RngSeed(0))
    with pytest.raises(ValueError):
        WalkConfig(5, 0)


def test_uniform_deterministic():
    g = complete_graph(30)
    m1 = uniform_sampling(g, 10, RngSeed(4))
    m2 = uniform_sampling(g, 10, RngSeed(4))
    assert np.array_equal(m1.nodes, m2.nodes)
    assert len(m1) == 10


# ------------------------------------------------------- nullspace condition

def brute_force_violations(g, part, m):
    """Naive triple-loop recount of the per-endpoint neighbor condition."""
    sampled = set(int(v) for v in m.nodes)
    out = []
    for e in range(g.edge_count):
        i, j = (int(v) for v in g.edges[e])
        if part.labels[i] == part.labels[j]:
            continue
        for node in (i, j):
            achieved = 0
            for v in range(g.node_count):
                if (
                    v in sampled
                    and part.labels[v] == part.labels[node]
                    and any(int(w) == v for w in g.neighbors(node))
                ):
                    achieved += 1
            if achieved < 2:
                out.append((e, node, int(part.labels[node]), achieved))
    return out


def test_single_cluster_vacuously_satisfied():
    g = complete_graph(4)
    m = SamplingSet(nodes=np.array([0]))
    report = check_nullspace_condition(g, Partition([0] * 4), m)
    assert report.satisfied and report.violations == ()


def test_bridge_example_satisfied():
    g, part = two_cliques_with_bridge()
    m = SamplingSet(nodes=np.array([0, 1, 5, 6]))
    assert check_nullspace_condition(g, part, m).satisfied


def test_bridge_example_violated_with_achieved_count():
    g, part = two_cliques_with_bridge()
    m = SamplingSet(nodes=np.array([0, 1, 5]))
    report = check_nullspace_condition(g, part, m)
    assert not report.satisfied
    assert len(report.violations) == 1
    v = report.violations[0]
    assert (v.node, v.cluster, v.achieved) == (4, 1, 1)
    assert g.edges[v.edge].tolist() == [3, 4]


def test_unknown_sample_nodes_rejected():
    g, part = two_cliques_with_bridge()
    m = SamplingSet(nodes=np.array([0, 99]))
    with pytest.raises(ValueError, match="unknown"):
        check_nullspace_condition(g, part, m)


def test_matches_brute_force_on_random_instances():
    master = RngSeed(31)
    for t in range(40):
        gen = master.substream(t).generator()
        n = int(gen.integers(4, 31))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = gen.random(len(pairs)) < 0.2
        g = Graph(n, [p for p, keep in zip(pairs, mask) if keep])
        raw = gen.integers(0, 3, n)
        _, labels = np.unique(raw, return_inverse=True)
        part = Partition(labels)
        budget = int(gen.integers(1, n + 1))
        m = uniform_sampling(g, budget, gen)
        report = check_nullspace_condition(g, part, m)
        expected = brute_force_violations(g, part, m)
        got = [(v.edge, v.node, v.cluster, v.achieved) for v in report.violations]
        assert got == expected
        assert all(type(x) is int for row in got for x in row)
        assert report.satisfied == (not expected)


@settings(max_examples=40)
@given(graphs(min_nodes=3, max_nodes=10), st.data())
def test_adding_samples_never_breaks_satisfied(g, data):
    part = data.draw(partitions(g.node_count))
    base = data.draw(
        st.sets(st.integers(0, g.node_count - 1), min_size=1)
    )
    extra = data.draw(st.sets(st.integers(0, g.node_count - 1)))
    m = SamplingSet(nodes=np.array(sorted(base)))
    if check_nullspace_condition(g, part, m).satisfied:
        grown = sorted(base | extra)
        m2 = SamplingSet(nodes=np.array(grown))
        assert check_nullspace_condition(g, part, m2).satisfied


def test_an_empty_1d_sampling_set_stays_valid():
    for nodes in ([], np.array([], dtype=np.int64)):
        m = SamplingSet(nodes=nodes)
        assert len(m) == 0 and m.nodes.dtype == np.int64
