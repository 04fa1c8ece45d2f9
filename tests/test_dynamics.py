from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcd import dynamics
from mcd.dynamics import (
    cm_step,
    glauber_step,
    gnp_component_sizes,
    percolate_within_classes,
    recolor_clusters,
    run_chain,
    sample_gnp,
    sw_size_step,
    sw_step,
)
from mcd.model import (
    EdgeConfig,
    ModelParams,
    SpinConfig,
    cluster_decompose,
)
from mcd.rng import RngStream


def rng_for(test_name, replica=0):
    return RngStream(314159, test_name, replica).generator()


# ---------------------------------------------------------------------------
# G(n, p) sampling

def test_gnp_degenerate_probabilities():
    rng = rng_for("gnp-degenerate")
    assert sample_gnp(20, 0.0, rng).edge_count == 0
    assert sample_gnp(20, 1.0, rng).edge_count == 20 * 19 // 2


def test_gnp_mean_edge_count():
    rng = rng_for("gnp-mean-skip")
    n, p, reps = 60, 0.08, 400
    total_pairs = n * (n - 1) // 2
    counts = [sample_gnp(n, p, rng).edge_count for _ in range(reps)]
    mean = np.mean(counts)
    se = np.sqrt(total_pairs * p * (1 - p) / reps)
    assert abs(mean - total_pairs * p) < 5 * se


@given(st.integers(2, 30), st.floats(0.0, 0.5), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_gnp_output_is_canonical(n, p, seed):
    edges = sample_gnp(n, p, np.random.default_rng(seed))
    assert np.array_equal(EdgeConfig(n=n, pairs=edges.pairs).pairs, edges.pairs)


def _check_gnp_sizes(ms, gens, p, seed):
    # against each block's own sample_gnp draw, made in block order on
    # clones of the generators (blocks may share one, as a replica's color
    # classes do in sw_size_step)
    rngs = [np.random.default_rng([seed, g]) for g in range(max(gens) + 1)]
    clones = [np.random.default_rng([seed, g]) for g in range(max(gens) + 1)]
    sizes, bounds = gnp_component_sizes(
        [(m, rngs[g]) for m, g in zip(ms, gens)], p)
    assert len(bounds) == len(ms) + 1
    assert bounds[0] == 0 and bounds[-1] == sizes.size
    for b, (m, g) in enumerate(zip(ms, gens)):
        want = cluster_decompose(sample_gnp(m, p, clones[g]))
        # sizes in ascending order of smallest member
        assert np.array_equal(sizes[bounds[b]:bounds[b + 1]], want.sizes)
    assert [r.random() for r in rngs] == [r.random() for r in clones]


def test_gnp_component_sizes_equal_per_block_decompose():
    # unequal block sizes (as cm_drift_map draws them), single vertices,
    # blocks without vertices (an empty color class in sw_size_step),
    # blocks sharing a generator, and edgeless and complete draws
    _check_gnp_sizes([40, 3, 0, 27, 40, 1, 12, 0, 9],
                     [0, 0, 0, 1, 2, 2, 3, 4, 4], 1.5 / 40, 11)
    _check_gnp_sizes([1], [0], 0.5, 11)
    _check_gnp_sizes([0], [0], 0.5, 11)
    _check_gnp_sizes([300], [0], 2.0 / 300, 11)
    _check_gnp_sizes([5, 6, 0], [0, 1, 1], 0.0, 11)
    _check_gnp_sizes([5, 6, 0], [0, 1, 1], 1.0, 11)


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3)),
                min_size=1, max_size=8),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_gnp_component_sizes_equal_per_block_decompose_random(blocks, p, seed):
    ms, gens = zip(*blocks)
    _check_gnp_sizes(ms, gens, p, seed)


# ---------------------------------------------------------------------------
# Swendsen-Wang pieces

@given(st.integers(3, 25), st.integers(2, 4), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_percolation_stays_within_classes(n, q, p, seed):
    rng = np.random.default_rng(seed)
    spins = SpinConfig(colors=rng.integers(1, q + 1, n), q=q)
    omega = percolate_within_classes(spins, p, rng)
    for i, j in omega.pairs:
        assert spins.colors[i] == spins.colors[j]


@given(st.lists(st.integers(1, 5), min_size=1, max_size=40),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
@example([3, 1, 3, 5, 3, 1, 3], 1.0, 0)  # empty classes 2 and 4, class 5 single
@settings(max_examples=60, deadline=None)
def test_percolation_is_in_lexicographic_order(colors, p, seed):
    _check_percolation(colors, 5, p, seed)


def _check_percolation(colors, q, p, seed):
    # scattered classes, including empty and single-vertex ones, against
    # each class's own G(m, p) draw mapped to its vertices and sorted, on a
    # clone of the generator
    spins = SpinConfig(colors=np.array(colors), q=q)
    rng = np.random.default_rng(seed)
    omega = percolate_within_classes(spins, p, rng)
    clone = np.random.default_rng(seed)
    us, vs = [], []
    for color in range(1, q + 1):
        verts = np.flatnonzero(spins.colors == color)
        local = sample_gnp(verts.size, p, clone).pairs
        us.append(verts[local[:, 0]])
        vs.append(verts[local[:, 1]])
    u, v = np.concatenate(us), np.concatenate(vs)
    order = np.lexsort((v, u))
    assert np.array_equal(omega.pairs, np.column_stack([u, v])[order])
    assert np.array_equal(EdgeConfig(n=spins.n, pairs=omega.pairs).pairs,
                          omega.pairs)
    assert rng.random() == clone.random()


def test_recoloring_is_constant_on_clusters():
    edges = EdgeConfig(n=7, pairs=np.array([[0, 2], [2, 4], [1, 5]]))
    part = cluster_decompose(edges)
    spins = recolor_clusters(part, 3, rng_for("recolor"))
    assert spins.colors[0] == spins.colors[2] == spins.colors[4]
    assert spins.colors[1] == spins.colors[5]
    assert set(np.unique(spins.colors)) <= {1, 2, 3}


def test_sw_step_omega_joins_like_spins():
    rng = rng_for("sw-step")
    spins = SpinConfig(colors=np.tile([1, 2, 3], 20), q=3)
    params = ModelParams(n=60, q=3.0, lam=2.0)
    new_spins, omega = sw_step(spins, params, rng)
    for i, j in omega.pairs:
        assert spins.colors[i] == spins.colors[j]  # drawn under old spins
        assert new_spins.colors[i] == new_spins.colors[j]
    assert new_spins.q == 3


def test_sw_step_requires_integer_q():
    spins = SpinConfig(colors=np.array([1, 2, 1, 2]), q=2)
    with pytest.raises(ValueError):
        sw_step(spins, ModelParams(n=4, q=2.5, lam=1.0), rng_for("sw-badq"))
    with pytest.raises(ValueError):
        sw_size_step([4], 0.25, [rng_for("sw-badq")])


@pytest.mark.parametrize("colors,q,lam", [
    ([1] * 10 + [2] * 10 + [3] * 10, 3, 2.772588722239781),  # balanced
    ([1] * 40 + [2] * 5 + [3] * 5, 3, 4.0),                   # majority
    ([1], 2, 0.5),                                            # n = 1
    ([1] * 3 + [4] * 60, 4, 0.2),                             # empty classes
])
def test_batched_sw_steps_equal_sw_step(colors, q, lam):
    # the size-level step over a batch of generators against sw_step, on
    # classes laid out as consecutive vertex ranges in color order
    spins = SpinConfig(colors=np.array(colors), q=q)
    params = ModelParams(n=spins.n, q=float(q), lam=lam)
    batch = [rng_for("sw-batch", r) for r in range(25)]
    alone = [rng_for("sw-batch", r) for r in range(25)]
    sizes, colors, clusters = sw_size_step(spins.counts, params.p, batch)
    assert sizes.size == colors.size == clusters.sum()
    bounds = np.concatenate([[0], np.cumsum(clusters)])
    for r, (rng_b, rng_a) in enumerate(zip(batch, alone)):
        want, omega = sw_step(spins, params, rng_a)
        sizes_r = sizes[bounds[r]:bounds[r + 1]]
        colors_r = colors[bounds[r]:bounds[r + 1]]
        assert np.array_equal(np.bincount(colors_r, sizes_r, q + 1)[1:],
                              want.counts)
        assert np.array_equal(sizes_r, cluster_decompose(omega).sizes)
        # the batch consumed exactly the draws sw_step consumed
        assert rng_b.random() == rng_a.random()


def _check_sw_size_step(counts, p, seed, replicas=3):
    # against each class's own sample_gnp draw and one batch of colors per
    # generator, made on clones of the generators
    q = len(counts)
    rngs = [np.random.default_rng([seed, r]) for r in range(replicas)]
    clones = [np.random.default_rng([seed, r]) for r in range(replicas)]
    sizes, colors, clusters = sw_size_step(counts, p, rngs)
    at = 0
    for rng, clone, c in zip(rngs, clones, clusters.tolist()):
        want = np.concatenate([cluster_decompose(sample_gnp(m, p, clone)).sizes
                               for m in counts])
        assert np.array_equal(sizes[at:at + c], want)
        assert np.array_equal(colors[at:at + c],
                              clone.integers(1, q + 1, size=c, dtype=np.int64))
        assert rng.random() == clone.random()
        at += c
    assert at == sizes.size


def _short_batches(slots, p):
    # one to three gaps per batch: nearly every walk needs more batches
    return 1 + slots % 3


@pytest.mark.parametrize("p", [0.05, 0.2, 1 / 3, 0.7, 1e-300, 0.0, 1.0])
def test_short_first_batches_replay_the_sequential_walk(p, monkeypatch):
    # p below 1/3 and from 1/3 up take numpy's inversion and search
    # samplers; 1e-300 saturates the draws; 0 and 1 draw nothing
    monkeypatch.setattr(dynamics, "_batch_size", _short_batches)
    _check_gnp_sizes([40, 3, 0, 27, 40, 1, 12, 0, 9],
                     [0, 0, 0, 1, 2, 2, 3, 4, 4], p, 11)
    _check_gnp_sizes([9, 0, 1, 30, 6], [0, 1, 0, 1, 0], p, 12)  # interleaved
    _check_percolation([3, 1, 3, 5, 3, 1, 3] + [1, 2, 3] * 9, 5, p, 13)
    _check_sw_size_step([20, 1, 0, 9], p, 14)


def test_walks_whose_prefix_sums_could_wrap():
    # a block of 2**60 slots clamps every gap to 2**60 + 1, so 40-odd draws
    # could wrap int64: every block is walked one by one instead
    counts, p = [2 ** 60, 50, 0, 1] * 4, 1e-17
    rngs = [np.random.default_rng([15, g]) for g in range(2)]
    clones = [np.random.default_rng([15, g]) for g in range(2)]
    ks, kept = dynamics._gnp_walks(
        counts, [rngs[b % 2] for b in range(len(counts))], p)
    want = [dynamics._gnp_indices(c, p, clones[b % 2])
            for b, c in enumerate(counts)]
    assert kept.tolist() == [w.size for w in want] and kept[0] > 0
    assert np.array_equal(ks, np.concatenate(want))
    assert [r.random() for r in rngs] == [r.random() for r in clones]


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), float("inf")])
def test_bad_p_is_rejected_without_any_pair(p):
    rng = rng_for("bad-p")
    for blocks in ([(1, rng), (0, rng)], [(5, rng)]):
        with pytest.raises(ValueError, match="p must lie"):
            gnp_component_sizes(blocks, p)
    with pytest.raises(ValueError, match="p must lie"):
        percolate_within_classes(SpinConfig(colors=np.array([1, 2]), q=2), p, rng)
    with pytest.raises(ValueError, match="p must lie"):
        sw_size_step([1, 0, 1], p, [rng, rng_for("bad-p", 1)])


# ---------------------------------------------------------------------------
# edge chains

def test_glauber_step_touches_at_most_one_pair():
    rng = rng_for("glauber-onepair")
    params = ModelParams(n=8, q=2.0, lam=1.5)
    edges = sample_gnp(8, 0.3, rng)
    for _ in range(100):
        nxt = glauber_step(edges, params, rng)
        diff = set(map(tuple, edges.pairs)) ^ set(map(tuple, nxt.pairs))
        assert len(diff) <= 1
        edges = nxt


def test_glauber_step_consumes_fixed_stream_amount():
    # two runs from states differing elsewhere stay aligned afterwards
    params = ModelParams(n=6, q=2.0, lam=1.0)
    r1, r2 = rng_for("glauber-stream", 1), rng_for("glauber-stream", 1)
    e1 = EdgeConfig.empty(6)
    e2 = EdgeConfig(n=6, pairs=np.array([[0, 1]]))
    glauber_step(e1, params, r1)
    glauber_step(e2, params, r2)
    assert r1.random() == r2.random()


def _connected_avoiding_bfs(pairs, x, y):
    # a breadth-first search over adjacency lists, without the pair {x, y}
    adj = {}
    for a, b in pairs.tolist():
        if (a, b) != (x, y):
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    seen, queue = {x}, deque([x])
    while queue:
        for z in adj.get(queue.popleft(), ()):
            if z == y:
                return True
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return False


@given(st.integers(2, 30), st.floats(0.0, 0.4), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_connected_avoiding_matches_bfs(n, density, seed):
    # random configurations, asking about absent pairs and about present
    # ones, whose own pair must not count
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < density
    edges = EdgeConfig(n=n, pairs=np.column_stack([i[keep], j[keep]]))
    queries = list(zip(i[:20].tolist(), j[:20].tolist()))
    queries += [tuple(pair) for pair in edges.pairs[:20].tolist()]
    for _ in range(20):
        x, y = sorted(rng.choice(n, size=2, replace=False).tolist())
        queries.append((x, y))
    for x, y in queries:
        assert dynamics._connected_avoiding(edges, x, y) \
            == _connected_avoiding_bfs(edges.pairs, x, y)


def test_cm_step_runs_and_keeps_canonical_form():
    rng = rng_for("cm-canonical")
    params = ModelParams(n=30, q=2.5, lam=2.0)
    edges = EdgeConfig.empty(30)
    for _ in range(25):
        edges = cm_step(edges, params, rng)
        assert np.array_equal(EdgeConfig(n=30, pairs=edges.pairs).pairs,
                              edges.pairs)


# ---------------------------------------------------------------------------
# trajectories

def test_run_chain_observation_cadence():
    rng = rng_for("chain-cadence")
    params = ModelParams(n=40, q=3.0, lam=2.0)
    init = SpinConfig(colors=np.tile([1, 2, 3], 14)[:40], q=3)
    traj = run_chain("sw", init, params, steps=10, rng=rng, observe_every=3)
    assert [r.step for r in traj.records] == [0, 3, 6, 9]
    assert traj.records[0].edge_count == 0  # no percolation before step 1
    assert traj.records[0].counts_sorted is not None
    assert traj.final_spins is not None


def test_run_chain_edge_kinds_observe_state():
    rng = rng_for("chain-glauber")
    params = ModelParams(n=10, q=2.0, lam=1.0)
    traj = run_chain("glauber", EdgeConfig.empty(10), params, steps=5, rng=rng)
    assert len(traj.records) == 6
    assert traj.records[0].counts_sorted is None
    assert traj.final_edges is not None
    with pytest.raises(TypeError):
        run_chain("cm", SpinConfig(np.array([1, 2]), 2), params, 1, rng)


@pytest.mark.parametrize("kind", ["sw", "cm", "glauber"])
def test_run_chain_decomposes_each_state_once(kind, monkeypatch):
    calls = []

    def counting(edges):
        calls.append(edges.n)
        return cluster_decompose(edges)

    monkeypatch.setattr(dynamics, "cluster_decompose", counting)
    params = ModelParams(n=30, q=3.0, lam=2.0)
    init = SpinConfig(colors=np.tile([1, 2, 3], 10), q=3) if kind == "sw" \
        else EdgeConfig.empty(30)
    run_chain(kind, init, params, 50, rng_for("chain-decompose"))
    assert len(calls) <= 51


def test_chain_determinism_same_seed():
    params = ModelParams(n=50, q=3.0, lam=2.5)
    init = SpinConfig(colors=np.tile([1, 2, 3], 17)[:50], q=3)
    t1 = run_chain("sw", init, params, 20, rng_for("det", 5))
    t2 = run_chain("sw", init, params, 20, rng_for("det", 5))
    assert np.array_equal(t1.final_spins.colors, t2.final_spins.colors)
    assert [r.l1_frac for r in t1.records] == [r.l1_frac for r in t2.records]
