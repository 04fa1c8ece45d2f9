import ast
import dataclasses
import importlib
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from mcd.analytic import a_fixed_point
from mcd.countlevel import class_color_laws, one_step_law
from mcd.dynamics import sample_gnp, sw_step
from mcd.experiments import bimodality_scan, escape_time, one_step_exit, sw_drift_map
from mcd.indexing import (
    all_pairs,
    num_pairs,
    pair_from_index,
    pair_index,
    pair_indices_of,
    pairs_from_indices,
)
from mcd.model import (
    EdgeConfig,
    ModelParams,
    SpinConfig,
    _edge_config_presorted,
    cluster_decompose,
    in_balanced_set,
    in_ordered_set,
    is_ordered,
    s_m_vertices,
)
from mcd.oracle import build_kernel, enumerate_potts_measure, es_coupling_check
from mcd.rng import RngStream, _generators, replica_generators, replica_seed


def random_edges(n, density, rng):
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < density
    return EdgeConfig(n=n, pairs=np.column_stack([i[keep], j[keep]]).astype(np.int64))


# ---------------------------------------------------------------------------
# pair indexing

@given(st.integers(2, 40))
def test_pair_index_bijection(n):
    ai, aj = all_pairs(n)
    ks = np.array([pair_index(int(i), int(j), n) for i, j in zip(ai, aj)])
    assert np.array_equal(ks, np.arange(num_pairs(n)))
    assert np.array_equal(pair_indices_of(ai, aj, n), ks)
    i2, j2 = pairs_from_indices(np.arange(num_pairs(n)), n)
    assert np.array_equal(i2, ai)
    assert np.array_equal(j2, aj)


def test_all_pairs_is_lex_sorted():
    ai, aj = all_pairs(6)
    as_tuples = list(zip(ai.tolist(), aj.tolist()))
    assert as_tuples == sorted(as_tuples)


def test_pair_index_rejects_bad_input():
    with pytest.raises(ValueError):
        pair_index(3, 3, 5)
    with pytest.raises(ValueError):
        pair_index(2, 1, 5)
    with pytest.raises(ValueError):
        pair_index(0, 5, 5)


def test_pairs_from_indices_rejects_bad_input():
    # 10 at n = 5 decoded to (4, 5) and -1 to (-1, -11) before
    for k in (10, -1, 11, -2 ** 40):
        with pytest.raises(ValueError, match="outside"):
            pairs_from_indices(np.array([k]), 5)
        with pytest.raises(ValueError, match="outside"):
            pair_from_index(k, 5)
    with pytest.raises(ValueError, match="outside"):
        pairs_from_indices(np.array([0]), 1)  # no pair at all
    with pytest.raises(ValueError, match="outside"):
        pair_from_index(0, 1)
    with pytest.raises(ValueError, match="outside"):
        pairs_from_indices(np.array([0, 3, 2]), np.array([4, 3, 3]))
    for n in (2 ** 31, 2 ** 40, -1):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            pairs_from_indices(np.array([0]), n)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            pairs_from_indices(np.array([0, 0]), np.array([5, n]))
        with pytest.raises(ValueError, match="2\\*\\*31"):
            pair_from_index(0, n)


def test_pair_from_index_inverts_pair_index_for_every_index():
    for n in range(65):
        for k in range(num_pairs(n)):
            i, j = pair_from_index(k, n)
            assert type(i) is int and type(j) is int
            assert pair_index(i, j, n) == k


def _searchsorted_decode(ks, n):
    # the row-offset table and binary search the closed form replaced
    i = np.arange(n, dtype=np.int64)
    offsets = i * (n - 1) - i * (i - 1) // 2
    rows = np.searchsorted(offsets, ks, side="right") - 1
    return rows, ks - offsets[rows] + rows + 1


@given(st.integers(2, 2000))
@settings(max_examples=60, deadline=None)
@example(2)
@example(2000)
def test_pairs_from_indices_matches_searchsorted_every_index(n):
    ks = np.arange(num_pairs(n))
    i, j = pairs_from_indices(ks, n)
    want_i, want_j = _searchsorted_decode(ks, n)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


@given(st.lists(st.integers(0, 80), min_size=1, max_size=12),
       st.integers(0, 2 ** 32 - 1))
@example([0], 0)
@example([1, 0, 2, 0, 1], 0)
@settings(max_examples=60, deadline=None)
def test_pairs_from_indices_per_index_n(ms, seed):
    # a few indices of each block (every index of the small ones), decoded
    # in one call with one n per index, as gnp_component_sizes does
    rng = np.random.default_rng(seed)
    ks = [np.sort(rng.choice(num_pairs(m), min(num_pairs(m), 40),
                             replace=False)) for m in ms]
    i, j = pairs_from_indices(np.concatenate(ks),
                              np.repeat(ms, [k.size for k in ks]))
    at = 0
    for m, k in zip(ms, ks):
        want_i, want_j = _searchsorted_decode(k, m)
        assert np.array_equal(i[at:at + k.size], want_i)
        assert np.array_equal(j[at:at + k.size], want_j)
        at += k.size
    assert at == i.size


@given(st.integers(1, 2 ** 31 - 4))  # rows with at least two pairs
@example(1)
@example(2 ** 31 - 4)
@example(2 ** 30)
@settings(max_examples=200, deadline=None)
def test_pairs_from_indices_exact_at_the_largest_n(row):
    # n = 2**31 - 1: (2n-1)**2 is just below 2**64, and no offset table
    # fits in memory, so the reference is the pair arithmetic itself; the
    # scalar pair_from_index must agree
    n = 2 ** 31 - 1
    last = num_pairs(n) - 1
    start = row * (2 * n - 1 - row) // 2  # first index of the row
    ks = np.array([0, last, start - 1, start, start + 1])
    i, j = pairs_from_indices(ks, n)
    assert list(zip(i.tolist(), j.tolist())) == [
        (0, 1), (n - 2, n - 1), (row - 1, n - 1), (row, row + 1),
        (row, row + 2)]
    per_index = pairs_from_indices(ks, np.full(ks.size, n))
    assert np.array_equal(per_index[0], i) and np.array_equal(per_index[1], j)
    for k, a, b in zip(ks.tolist(), i.tolist(), j.tolist()):
        assert pair_index(a, b, n) == k
        assert pair_from_index(k, n) == (a, b)


# ---------------------------------------------------------------------------
# configurations

def test_edge_config_canonicalizes_and_validates():
    flipped = EdgeConfig(n=4, pairs=np.array([[2, 1], [1, 0]]))
    assert flipped.pairs.tolist() == [[0, 1], [1, 2]]
    with pytest.raises(ValueError):
        EdgeConfig(n=4, pairs=np.array([[0, 1], [1, 0]]))  # duplicate
    with pytest.raises(ValueError):
        EdgeConfig(n=4, pairs=np.array([[2, 2]]))  # self-loop
    with pytest.raises(ValueError):
        EdgeConfig(n=4, pairs=np.array([[0, 4]]))  # out of range
    assert EdgeConfig(n=4, pairs=np.array([[0, 1], [1, 2]])).edge_count == 2


@given(st.integers(2, 15), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_edge_config_sorts_shuffled_pairs(n, density, seed):
    rng = np.random.default_rng(seed)
    want = random_edges(n, density, rng).pairs
    shuffled = rng.permuted(want[rng.permutation(want.shape[0])], axis=1)
    assert np.array_equal(EdgeConfig(n=n, pairs=shuffled).pairs, want)
    if want.shape[0]:
        repeated = np.insert(shuffled, rng.integers(0, want.shape[0] + 1),
                             want[rng.integers(0, want.shape[0])][::-1], axis=0)
        with pytest.raises(ValueError, match="duplicate"):
            EdgeConfig(n=n, pairs=repeated)


def test_spin_config_counts():
    spins = SpinConfig(colors=np.array([1, 1, 2, 3, 3, 3]), q=3)
    assert spins.n == 6
    assert spins.counts.tolist() == [2, 1, 3]
    assert spins.sorted_counts().tolist() == [3, 2, 1]
    assert int(spins.counts.sum()) == spins.n


def test_model_params_beta_lambda_roundtrip():
    params = ModelParams(n=100, q=3.0, lam=-100 * math.expm1(-2.5 / 100))
    assert params.beta == pytest.approx(2.5, abs=1e-12)
    assert params.p == pytest.approx(params.lam / 100)
    with pytest.raises(ValueError):
        ModelParams(n=10, q=2.5, lam=1.0).q_int


@pytest.mark.parametrize("q", [math.nan, math.inf, 0.5])
def test_model_params_refuse_q_outside_one_to_inf(q):
    with pytest.raises(ValueError, match="finite and >= 1"):
        ModelParams(n=10, q=q, lam=1.0)


# ---------------------------------------------------------------------------
# the integer-q rule: every path defined only at integer q takes 3.0 and
# np.int64(3) as 3 and refuses anything else

_LAM3 = 2.772588722239781  # lambda_c(3)


def _sw_step(q):
    spins = SpinConfig(colors=np.array([1, 2, 3, 1, 2, 3]), q=3)
    return sw_step(spins, ModelParams(n=6, q=q, lam=1.0),
                   np.random.Generator(np.random.PCG64(7)))


INTEGER_Q_PATHS = {  # name: (least q, the path run at q)
    "SpinConfig": (1, lambda q: SpinConfig(colors=np.array([1, 3, 3]), q=q)),
    "sw_step": (2, _sw_step),
    "class_color_laws": (2, lambda q: class_color_laws(4, 0.3, q)),
    "one_step_law": (2, lambda q: one_step_law([2, 1, 2], 1.5, q)),
    "build_kernel_sw": (2, lambda q: build_kernel("sw", 3, q, 1.0)),
    "enumerate_potts_measure": (1, lambda q: enumerate_potts_measure(3, q, 1.0)),
    "es_coupling_check": (1, lambda q: es_coupling_check(3, 1.0, q)),
    "a_fixed_point": (3, lambda q: a_fixed_point(_LAM3, q)),
    "one_step_exit": (2, lambda q: one_step_exit(
        [30], _LAM3, q, 0.08, "balanced", 5, 1)),
    "escape_time": (2, lambda q: escape_time(
        [30], _LAM3, q, 0.08, "balanced", 5, 1, cap=20)),
    "sw_drift_map": (2, lambda q: sw_drift_map(60, _LAM3, q, [0.5], 5, 1)),
    "bimodality_scan": (3, lambda q: bimodality_scan(30, _LAM3, q, 2, 5, 1)),
}


def _canonical(x):
    """x as nested tuples of typed plain values, for exact comparison."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            (f.name, _canonical(getattr(x, f.name)))
            for f in dataclasses.fields(x))
    if sp.issparse(x):
        x = x.toarray()
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return tuple((k, _canonical(v)) for k, v in sorted(x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_canonical(v) for v in x)
    return (type(x).__name__, repr(x))


@pytest.mark.parametrize("name", list(INTEGER_Q_PATHS))
def test_integer_q_paths_take_integral_floats_and_refuse_the_rest(name):
    least, path = INTEGER_Q_PATHS[name]
    want = _canonical(path(3))
    assert _canonical(path(3.0)) == want
    assert _canonical(path(np.int64(3))) == want
    bad = [2.5, least - 1]
    if name != "sw_step":  # ModelParams refuses inf and nan first
        bad += [math.inf, math.nan]
    for q in bad:
        with pytest.raises(ValueError, match=f"integer q >= {least}, got"):
            path(q)


# ---------------------------------------------------------------------------
# cluster decomposition

@given(st.integers(2, 12), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_decompose_invariant_under_vertex_relabeling(n, density, seed):
    rng = np.random.default_rng(seed)
    edges = random_edges(n, density, rng)
    part = cluster_decompose(edges)
    assert int(part.sizes.sum()) == n

    perm = rng.permutation(n)
    if edges.pairs.shape[0]:
        u, v = perm[edges.pairs[:, 0]], perm[edges.pairs[:, 1]]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        order = np.lexsort((hi, lo))
        mapped = EdgeConfig(n=n, pairs=np.column_stack([lo, hi])[order])
    else:
        mapped = EdgeConfig.empty(n)
    assert sorted(cluster_decompose(mapped).sizes) == sorted(part.sizes)


def test_cluster_ids_are_minimum_members():
    edges = EdgeConfig(n=6, pairs=np.array([[1, 4], [2, 5]]))
    part = cluster_decompose(edges)
    for v in range(6):
        members = np.flatnonzero(part.assignment == part.assignment[v])
        assert part.assignment[v] == members.min()


def test_clusters_are_in_ascending_id_order():
    # two clusters of size 2 and two singletons, interleaved
    edges = EdgeConfig(n=6, pairs=np.array([[0, 3], [1, 4]]))
    part = cluster_decompose(edges)
    assert part.ids.tolist() == [0, 1, 2, 5]
    assert part.sizes.tolist() == [2, 2, 1, 1]
    assert part.cluster_of.tolist() == [0, 1, 2, 0, 1, 3]
    assert part.cluster_count == 4 and part.largest_size == 2
    for c, cid in enumerate(part.ids):
        assert cid == np.flatnonzero(part.cluster_of == c).min()
    assert np.array_equal(part.assignment, part.ids[part.cluster_of])


def test_n_of_2_31_is_refused_before_allocation():
    # the CSR indices are int32 and the pair indices int64: refuse before
    # anything of size n exists
    with pytest.raises(ValueError, match="n=2147483648"):
        cluster_decompose(EdgeConfig.empty(2 ** 31))
    with pytest.raises(ValueError, match="n=2147483648"):
        EdgeConfig(n=2 ** 31, pairs=np.array([[0, 1]]))


def _reference_decompose(edges):
    # components by scipy's COO route, canonical ids by np.unique
    n = edges.n
    if edges.edge_count:
        u, v = edges.pairs[:, 0], edges.pairs[:, 1]
        g = coo_matrix((np.ones(u.size), (u, v)), shape=(n, n))
        _, raw = connected_components(g, directed=False)
    else:
        raw = np.arange(n)
    # relabel the components by smallest member, so ids ascend
    _, first, inv = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first)
    index = np.argsort(order)
    return first[order], np.bincount(inv)[order], index[inv]


def _same_partition(part, want):
    ids, sizes, cluster_of = want
    assert np.array_equal(part.ids, ids)
    assert np.array_equal(part.sizes, sizes)
    assert np.array_equal(part.cluster_of, cluster_of)
    assert np.array_equal(part.assignment, ids[cluster_of])
    assert part.cluster_count == ids.size
    assert part.largest_size == sizes.max()


@pytest.mark.parametrize("n", [1, 2, 100, 800, 10 ** 4, 10 ** 5])
def test_decompose_matches_reference(n):
    rng = np.random.default_rng(n)
    for lam in (0.0, 0.7, 1.0, 1.5, 4.0):
        edges = sample_gnp(n, min(lam / n, 1.0), rng)
        _same_partition(cluster_decompose(edges), _reference_decompose(edges))


@given(st.integers(1, 40), st.floats(0.0, 0.3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_decompose_matches_reference_on_random_graphs(n, density, seed):
    edges = random_edges(n, density, np.random.default_rng(seed))
    _same_partition(cluster_decompose(edges), _reference_decompose(edges))


def test_decompose_of_the_empty_union():
    # gnp_component_sizes decomposes a union of n = 0 vertices when every
    # block is empty; EdgeConfig itself refuses n = 0
    edges = _edge_config_presorted(0, np.empty(0, dtype=np.int64),
                                   np.empty(0, dtype=np.int64))
    part = cluster_decompose(edges)
    ids, sizes, cluster_of = _reference_decompose(edges)
    assert part.cluster_count == 0
    for got, want in ((part.ids, ids), (part.sizes, sizes),
                      (part.cluster_of, cluster_of)):
        assert got.size == 0 and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# observables and stability sets

@given(st.integers(2, 12), st.floats(0.0, 0.6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_s_m_monotone_in_threshold(n, density, seed):
    edges = random_edges(n, density, np.random.default_rng(seed))
    part = cluster_decompose(edges)
    values = [s_m_vertices(part, m) for m in range(n + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == n
    assert values[n] == 0


def test_s_m_threshold_is_strict():
    part = cluster_decompose(EdgeConfig(n=4, pairs=np.array([[0, 1]])))
    assert s_m_vertices(part, 1) == 2
    assert s_m_vertices(part, 2) == 0


@given(st.integers(2, 5), st.integers(6, 40), st.integers(0, 2 ** 32 - 1),
       st.floats(0.01, 0.5))
@settings(max_examples=40, deadline=None)
def test_balanced_set_invariant_under_color_permutation(q, n, seed, rho):
    rng = np.random.default_rng(seed)
    colors = rng.integers(1, q + 1, n)
    spins = SpinConfig(colors=colors, q=q)
    perm = rng.permutation(q) + 1
    relabeled = SpinConfig(colors=perm[colors - 1], q=q)
    assert in_balanced_set(spins, rho) == in_balanced_set(relabeled, rho)


def test_ordered_set_checks_majority_and_remainder():
    spins = SpinConfig(colors=np.array([1] * 8 + [2, 2, 3, 3]), q=3)
    assert in_ordered_set(spins, rho=0.05, a_lambda=8 / 12)
    assert not in_ordered_set(spins, rho=0.05, a_lambda=0.5)
    lopsided = SpinConfig(colors=np.array([1] * 8 + [2] * 4), q=3)
    assert not in_ordered_set(lopsided, rho=0.05, a_lambda=8 / 12)
    # the count-level predicate, row by row over stacked count vectors
    rows = np.array([spins.counts, lopsided.counts])
    assert is_ordered(rows, 0.05, 8 / 12).tolist() == [True, False]


# ---------------------------------------------------------------------------
# seeding

_MASK64 = (1 << 64) - 1


def _splitmix64_ref(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def _fnv1a64_ref(text):
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = (h ^ b) * 0x100000001B3 & _MASK64
    return h


def _seed_ref(master, name, replica):
    """The documented seed mix, in Python integers."""
    s0 = _splitmix64_ref((master & _MASK64) ^ _fnv1a64_ref(name))
    return _splitmix64_ref(s0 ^ (replica & _MASK64))


def test_replica_seeds_are_deterministic_and_distinct():
    a = replica_seed(123, "exp", 0)
    assert a == replica_seed(123, "exp", 0)
    seeds = {replica_seed(123, name, r)
             for name in ("exp", "exp2", "") for r in range(50)}
    assert len(seeds) == 150
    # the documented mix, written out
    s0 = _splitmix64_ref(123 ^ _fnv1a64_ref("exp"))
    assert a == _splitmix64_ref(s0 ^ 0)


@given(st.integers(-2 ** 70, 2 ** 70), st.text(max_size=16),
       st.integers(0, 2 ** 40), st.integers(0, 30))
@example(-1, "", 0, 5)
@example(2 ** 64, "one_step_exit:balanced:n=800", 1995, 5)
@example(2 ** 64 + 7, "taille \u00e9tendue \u6587\u5b57 \U0001f600", 3, 4)
@example(-2 ** 63, "\u00e9", 0, 0)
@settings(max_examples=200, deadline=None)
def test_replica_seed_is_the_documented_mix(master, name, r0, count):
    replicas = range(r0, r0 + count)
    assert [replica_seed(master, name, r) for r in replicas] == [
        _seed_ref(master, name, r) for r in replicas]


def test_replica_seed_pins():
    assert replica_seed(123, "exp", 0) == 8973591013674446874
    assert replica_seed(-1, "", 2 ** 64 + 5) == 11991256177952080034


def test_stream_reproducibility():
    x = RngStream(9, "chain", 3).generator().random(5)
    y = RngStream(9, "chain", 3).generator().random(5)
    z = RngStream(9, "chain", 4).generator().random(5)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)


# the range path rebuilds numpy's SeedSequence hashing, so a failure names
# the numpy it was checked against
NUMPY = f"numpy {np.__version__}"


def _states(generators):
    return [g.bit_generator.state for g in generators]


def test_range_seeding_matches_pcg64_at_the_edge_seeds():
    # one entropy word and two, either side of 2**32, and the largest seed
    seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
    got = _generators(np.array(seeds, dtype=np.uint64))
    want = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    for seed, g, w in zip(seeds, got, want):
        assert g.bit_generator.state == w.bit_generator.state, (seed, NUMPY)


@given(st.integers(-2 ** 70, 2 ** 70), st.text(max_size=16),
       st.integers(0, 2 ** 40), st.integers(0, 12))
@example(-1, "", 0, 1)
@example(-2 ** 63, "one_step_exit:balanced:n=800", 1995, 5)
@example(2 ** 64 + 7, "taille \u00e9tendue", 3, 4)
@settings(max_examples=200, deadline=None)
def test_replica_generators_match_their_streams(master, name, r0, count):
    got = replica_generators(master, name, r0, r0 + count)
    want = [RngStream(master, name, r).generator()
            for r in range(r0, r0 + count)]
    assert _states(got) == _states(want), NUMPY


def test_range_generator_survives_pickling():
    g = replica_generators(11, "pickle", 4, 7)[1]
    g.random(3)
    clone = pickle.loads(pickle.dumps(g))
    assert np.array_equal(clone.random(8), g.random(8)), NUMPY
    assert clone.bit_generator.state == g.bit_generator.state, NUMPY


def test_one_replica_range_is_the_stream():
    (g,) = replica_generators(9, "chain", 3, 4)
    want = RngStream(9, "chain", 3).generator()
    assert g.bit_generator.state == want.bit_generator.state, NUMPY
    assert np.array_equal(g.random(5), want.random(5)), NUMPY


# ---------------------------------------------------------------------------
# the benchmark's imports

def test_benchmark_imports_exist():
    # perfbench imports from the package without running here; a name it
    # imports that the package lost would only fail the benchmark
    scripts = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    imported = [(node.module, alias.name)
                for script in scripts
                for node in ast.walk(ast.parse(script.read_text()))
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "mcd"
                for alias in node.names]
    assert imported
    missing = [(module, name) for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
