"""The three cluster dynamics: Swendsen-Wang, Chayes-Machta, FK heat bath.

Reproducibility contract. Every step consumes randomness from the supplied
generator in a fixed documented order, so a (seed, initial state) pair
pins the whole trajectory:

* G(n, p) draws walk the lexicographic pair order (see indexing.py) with
  geometric gaps between accepted pairs, batched.
* Swendsen-Wang percolates inside color classes in ascending color order,
  then recolors clusters with a single uniform-color batch in ascending
  cluster-id order (the order of ClusterPartition). sw_size_step makes
  the same draws from the class sizes alone.
* Chayes-Machta draws cluster activations in ascending cluster-id order,
  then one G(|active|, p) stream over the active vertex set in ascending
  vertex order.
* The heat bath draws one pair index and one uniform per step, always in
  that order, whether or not the uniform ends up deciding anything.

Percolation and the Chayes-Machta resampling draw their pairs as a few
runs that are each in lexicographic order already (one per color class;
the kept and the resampled pairs). indexing.lex_order merges them on the
pair index into the canonical edge order, after the draws and without
changing any of them.

Several G(m, p) blocks are drawn together (percolation's color classes,
and gnp_component_sizes and sw_size_step over a replica range, where each
replica's blocks sit on its own generator): one geometric call per
generator per step draws the first batch of every block on it, back to
back in block order. numpy draws geometric variates one at a time from
the bit stream and buffers nothing between calls, so geometric(size=a+b)
gives geometric(size=a) followed by geometric(size=b), and the one call
reads the same stream as one call per block. A block whose first batch
does not reach its last slot needs a second batch before the next block's
first: its generator then replays the per-block walk over all its blocks,
the drawn gaps first and fresh draws after them, so the draws and the
generator's final state stay those of block-by-block sampling. The rest is
done once for all blocks: one prefix sum, one search and one gather
recover the walks, one closed-form decode gives all pairs, and (for
sizes) one components call on the blocks' union gives flat sizes with
per-block (or per-generator) bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import breadth_first_order

from .indexing import (
    lex_order,
    num_pairs,
    pair_from_index,
    pair_indices_of,
    pairs_from_indices,
)
from .model import (
    ClusterPartition,
    EdgeConfig,
    ModelParams,
    SpinConfig,
    _adjacency,
    _component_labels,
    _edge_config_presorted,
    cluster_decompose,
    integer_q,
    s_m_vertices,
)


def _batch_size(slots, p: float):
    """How many geometric gaps a walk over `slots` undecided slots draws
    at once: a quarter more than the expected successes (the float64
    product, truncated), plus 16. slots is a count or an int64 array of
    counts."""
    return np.asarray(slots * p * 1.25).astype(np.int64) + 16


def _gnp_indices(count: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of the successes among `count` independent Bernoulli(p)
    slots, in increasing order, jumping between successes with geometric
    gaps (O(count * p) draws)."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if count == 0 or p == 0.0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(count, dtype=np.int64)

    out = []
    pos = -1  # last decided slot
    while True:
        batch = _batch_size(count - pos - 1, p)
        gaps = rng.geometric(p, size=batch)
        # geometric draws saturate at 2**63 - 1 for tiny p, so accumulate
        # in float64: prefix sums below 2**53 (hence below any feasible
        # count) stay exact, and overflowing walks compare correctly
        positions = pos + np.cumsum(gaps, dtype=np.float64)
        stop = int(np.searchsorted(positions, float(count), side="left"))
        out.append(positions[:stop].astype(np.int64))
        if stop < batch:
            break
        pos = int(positions[-1])
    return np.concatenate(out)


class _Drawn:
    """A generator's geometric stream with its first gaps already drawn:
    those first, then fresh draws (the same stream, see the module
    docstring)."""

    def __init__(self, rng: np.random.Generator, gaps: np.ndarray):
        self.rng, self.gaps = rng, gaps

    def geometric(self, p: float, size: int) -> np.ndarray:
        head, self.gaps = self.gaps[:size], self.gaps[size:]
        if head.size == size:
            return head
        fresh = self.rng.geometric(p, size=size - head.size)
        return np.concatenate([head, fresh])


def _gnp_walks(counts: list[int], rngs: list,
               p: float) -> tuple[np.ndarray, np.ndarray]:
    """_gnp_indices(counts[b], p, rngs[b]) for every block b in block
    order, 0 < p < 1, as (indices, per-block index counts), with one
    geometric call per run of consecutive blocks on one generator and the
    replay through _Drawn where a block needs a second batch (see the
    module docstring)."""
    slots = np.array(counts, dtype=np.int64)
    batch = np.where(slots > 0, _batch_size(slots, p), 0)
    heads = [0] + [b for b in range(1, len(rngs)) if rngs[b] is not rngs[b - 1]]
    draws = [rngs[b].geometric(p, size=size) for b, size
             in zip(heads, np.add.reduceat(batch, heads).tolist())]
    gaps = draws[0] if len(draws) == 1 else np.concatenate(draws)
    ends = np.add.accumulate(batch)
    starts = ends - batch
    cap = max(counts) + 1
    if (gaps.size + 1) * cap < 2 ** 63:
        # clamped to cap, a gap still passes every block's last slot, so no
        # walk changes, and the prefix sums stay exact in int64 (the draws
        # saturate at 2**63 - 1 for tiny p)
        walk = np.add.accumulate(np.minimum(gaps, cap, out=gaps), out=gaps)
        # draw i of block b lands on slot walk[i] - base[b]: the block keeps
        # its draws before the first with walk[i] reaching base[b] +
        # counts[b], and is short if it keeps its whole batch
        base = walk[starts - 1] * (starts > 0) + 1
        stop = np.searchsorted(walk, base + slots)
        stop = np.minimum(stop, ends)
        kept, lost = stop - starts, ends - stop
        spans = np.array([kept, lost]).T.ravel()  # kept draws, then dropped
        keep = np.repeat(np.arange(spans.size) % 2 == 0, spans)
        ks = walk[keep]
        ks -= np.repeat(base, kept)
        short = (lost == 0) & (kept > 0)
        if not short.any():
            return ks, kept
        walks = np.split(ks, np.cumsum(kept)[:-1])
        gaps = np.diff(walk, prepend=0)  # the clamped gaps, for the replay
    else:  # the prefix sums could wrap: walk every block one by one
        short = np.ones(len(counts), dtype=bool)
        walks = [None] * len(counts)
    own = {}  # each generator's blocks, in block order
    for b, rng in enumerate(rngs):
        own.setdefault(id(rng), []).append(b)
    for blocks in own.values():
        if short[blocks].any():
            stream = _Drawn(rngs[blocks[0]], np.concatenate(
                [gaps[starts[b]:ends[b]] for b in blocks]))
            for b in blocks:
                walks[b] = _gnp_indices(counts[b], p, stream)
    return np.concatenate(walks), np.array([w.size for w in walks])


def _gnp_pairs(n: int, p: float,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The open pairs (u, v) of one G(n, p) draw, in lexicographic order."""
    return pairs_from_indices(_gnp_indices(num_pairs(n), p, rng), n)


def _gnp_union(blocks, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_gnp_pairs's draws for each (m, rng) in blocks, in block order, with
    the blocks side by side and all indices decoded in one pass. Returns
    (u, v, offsets): block b holds vertices offsets[b] .. offsets[b+1] - 1,
    and the pairs come in lexicographic order."""
    ms = [int(m) for m, _ in blocks]  # numpy integers are slower here
    counts = [num_pairs(m) for m in ms]
    if 0.0 < p < 1.0 and any(counts):
        ks, edges = _gnp_walks(counts, [rng for _, rng in blocks], p)
    else:  # nothing to draw; _gnp_indices also rejects a p outside [0, 1]
        walks = [_gnp_indices(c, p, None) for c in counts]
        ks, edges = np.concatenate(walks), [w.size for w in walks]
    offsets = np.cumsum([0] + ms, dtype=np.int64)
    u, v = pairs_from_indices(ks, np.repeat(ms, edges))
    shift = np.repeat(offsets[:-1], edges)
    u += shift
    v += shift
    return u, v, offsets


def sample_gnp(n: int, p: float, rng: np.random.Generator) -> EdgeConfig:
    """One draw of the Erdos-Renyi graph G(n, p)."""
    return _edge_config_presorted(n, *_gnp_pairs(n, p, rng))


def gnp_component_sizes(blocks, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The component sizes of one G(m, p) draw per (m, rng) in blocks, as
    (sizes, bounds): block b's sizes are sizes[bounds[b]:bounds[b+1]], in
    canonical order (the order of ClusterPartition, in which per-cluster
    randomness is drawn). Each block makes sample_gnp's draws on its
    generator, batched as the module docstring sets out. One components
    call serves the union of all blocks.
    """
    u, v, offsets = _gnp_union(blocks, p)
    n = int(offsets[-1])
    labels, _ = _component_labels(n, u, v)
    sizes = np.bincount(labels)
    # the union is canonical because every block is and the blocks follow
    # each other, so block b owns the union's clusters from the one holding
    # its first vertex (or past the last cluster, if it has no vertex)
    bounds = np.full(offsets.size, sizes.size)
    inside = offsets < n
    bounds[inside] = labels[offsets[inside]]
    return sizes, bounds


def percolate_within_classes(spins: SpinConfig, p: float,
                             rng: np.random.Generator) -> EdgeConfig:
    """Open each monochromatic pair independently with probability p.

    Classes are processed in ascending color order; within a class the pair
    slots follow the lexicographic order of the class's vertex list.
    """
    n = spins.n
    u, v, _ = _gnp_union([(m, rng) for m in spins.counts], p)
    if not u.size:
        return EdgeConfig.empty(n)
    # the classes' vertex lists, one after another in color order: a
    # stable sort, which numpy runs as a radix sort on small integer types
    colors = spins.colors.astype(np.min_scalar_type(spins.q))
    verts = np.argsort(colors, kind="stable")
    u, v = verts[u], verts[v]
    order = lex_order(u, v, n)
    return _edge_config_presorted(n, u[order], v[order])


def recolor_clusters(clusters: ClusterPartition, q: int,
                     rng: np.random.Generator) -> SpinConfig:
    """Assign each cluster an independent uniform color in 1..q.

    One batch of q-sided draws, indexed by ascending cluster id.
    """
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    draws = rng.integers(1, q + 1, size=clusters.cluster_count, dtype=np.int64)
    return SpinConfig(colors=draws[clusters.cluster_of], q=q)


def _sw_q(spins: SpinConfig, params: ModelParams) -> int:
    q = integer_q(params.q, 2, "Swendsen-Wang")
    if spins.n != params.n or spins.q != q:
        raise ValueError("spin configuration does not match params")
    return q


def sw_step(spins: SpinConfig, params: ModelParams,
            rng: np.random.Generator) -> tuple[SpinConfig, EdgeConfig]:
    """One Swendsen-Wang update. Returns (new spins, the intermediate
    percolation configuration that produced them)."""
    return _sw_step(spins, params, rng)[:2]


def _sw_step(spins: SpinConfig, params: ModelParams, rng: np.random.Generator
             ) -> tuple[SpinConfig, EdgeConfig, ClusterPartition]:
    """sw_step, also returning the clusters of the percolation configuration."""
    q = _sw_q(spins, params)
    omega = percolate_within_classes(spins, params.p, rng)
    clusters = cluster_decompose(omega)
    return recolor_clusters(clusters, q, rng), omega, clusters


def sw_size_step(counts, p: float,
                 rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Swendsen-Wang step from color-class sizes, on each generator in
    rngs. Returns (sizes, colors, clusters): generator r owns the next
    clusters[r] entries of the flat cluster sizes and colors, its clusters
    in ascending order of smallest member.

    Class i percolates as G(counts[i], p) in ascending color order, then
    the clusters draw one batch of q-sided colors. These are sw_step's
    draws when the classes are consecutive vertex ranges in color order,
    as balanced_spins and spins_with_majority lay them out. One decode and
    one components call serve every generator (gnp_component_sizes).
    """
    q = len(counts)
    if q < 2:
        raise ValueError(f"Swendsen-Wang needs q >= 2 classes, got {q}")
    sizes, bounds = gnp_component_sizes(
        [(m, rng) for rng in rngs for m in counts], p)
    clusters = np.diff(bounds[::q])
    colors = np.concatenate([rng.integers(1, q + 1, size=c, dtype=np.int64)
                             for rng, c in zip(rngs, clusters.tolist())])
    return sizes, colors, clusters


def cm_step(edges: EdgeConfig, params: ModelParams,
            rng: np.random.Generator) -> EdgeConfig:
    """One Chayes-Machta update of the edge configuration.

    Clusters activate independently with probability 1/q (ascending
    cluster-id order); edges inside active clusters are discarded and all
    pairs within the active vertex set are resampled at density p.
    Valid for any real q >= 1.
    """
    return _cm_step(edges, cluster_decompose(edges), params, rng)


def _cm_step(edges: EdgeConfig, clusters: ClusterPartition,
             params: ModelParams, rng: np.random.Generator) -> EdgeConfig:
    """cm_step from the clusters of the edge configuration."""
    if params.q < 1:
        raise ValueError(f"Chayes-Machta needs q >= 1, got {params.q!r}")
    if edges.n != params.n:
        raise ValueError("edge configuration does not match params")
    n, p, q = params.n, params.p, params.q
    active_cluster = rng.random(clusters.cluster_count) < 1.0 / q
    active = active_cluster[clusters.cluster_of]  # per vertex

    pairs = edges.pairs
    if pairs.shape[0]:
        au = active[pairs[:, 0]]
        if not np.array_equal(au, active[pairs[:, 1]]):
            raise AssertionError("edge straddles clusters with distinct activation")
        keep_u = pairs[~au, 0]
        keep_v = pairs[~au, 1]
    else:
        keep_u = keep_v = np.empty(0, dtype=np.int64)

    verts = np.flatnonzero(active)
    li, lj = _gnp_pairs(verts.size, p, rng)
    u = np.concatenate([keep_u, verts[li]])
    v = np.concatenate([keep_v, verts[lj]])
    order = lex_order(u, v, n)
    return _edge_config_presorted(n, u[order], v[order])


def _connected_avoiding(edges: EdgeConfig, x: int, y: int) -> bool:
    """Whether x and y, x < y, are connected in the configuration with the
    pair {x, y} removed (if present)."""
    pairs = edges.pairs
    pairs = pairs[(pairs[:, 0] != x) | (pairs[:, 1] != y)]
    if not ((pairs == x).any() and (pairs == y).any()):
        return False  # the common case at small n, decided without a graph
    # each pair in both directions, so a directed search from x sees every
    # neighbor without scipy transposing the graph (several times the cost
    # of the search at small n); a stable sort on the smallest unsigned
    # type groups the arcs by first endpoint, which numpy does by radix sort
    arcs = np.concatenate([pairs, pairs[:, ::-1]])
    first = arcs[:, 0].astype(np.min_scalar_type(edges.n))
    arcs = arcs[np.argsort(first, kind="stable")]
    g = _adjacency(edges.n, arcs[:, 0], arcs[:, 1])
    reached = breadth_first_order(g, x, return_predecessors=False)
    return bool((reached == y).any())


def glauber_step(edges: EdgeConfig, params: ModelParams,
                 rng: np.random.Generator) -> EdgeConfig:
    """One heat-bath update of a uniformly chosen pair.

    The pair joins two distinct clusters with probability p/(p + q(1-p))
    and is open with probability p otherwise. Connectivity is recomputed
    from scratch on the configuration minus the chosen pair each step; no
    incremental structure is maintained. Always consumes exactly one pair
    index and one uniform.
    """
    if params.q <= 0:
        raise ValueError(f"heat bath needs q > 0, got {params.q!r}")
    if edges.n != params.n:
        raise ValueError("edge configuration does not match params")
    n, p, q = params.n, params.p, params.q
    k = int(rng.integers(0, num_pairs(n)))
    u01 = float(rng.random())
    x, y = pair_from_index(k, n)

    enc = pair_indices_of(edges.pairs[:, 0], edges.pairs[:, 1], n) \
        if edges.pairs.shape[0] else np.empty(0, dtype=np.int64)
    slot = int(np.searchsorted(enc, k))
    present = slot < enc.size and enc[slot] == k

    if _connected_avoiding(edges, x, y):
        r = p
    else:
        r = p / (p + q * (1.0 - p))
    want = u01 < r
    if want == present:
        return edges
    pu, pv = edges.pairs[:, 0], edges.pairs[:, 1]
    if want:
        return _edge_config_presorted(edges.n, np.insert(pu, slot, x),
                                      np.insert(pv, slot, y))
    return _edge_config_presorted(edges.n, np.delete(pu, slot),
                                  np.delete(pv, slot))


@dataclass(frozen=True)
class ObservationRecord:
    """Cluster statistics at one observed step.

    l1_frac is the largest-cluster fraction, sm_frac the fraction of
    vertices in clusters larger than the tracked threshold M, and
    counts_sorted the non-increasing color-class counts (spin chains only).
    """

    step: int
    l1_frac: float
    sm_frac: float
    edge_count: int
    counts_sorted: tuple[int, ...] | None = None


@dataclass
class Trajectory:
    kind: str
    params: ModelParams
    m_threshold: int
    records: list[ObservationRecord] = field(default_factory=list)
    final_spins: SpinConfig | None = None
    final_edges: EdgeConfig | None = None


_KINDS = ("sw", "cm", "glauber")


def _observe(step: int, edges: EdgeConfig, part: ClusterPartition,
             m_threshold: int,
             counts_sorted: tuple[int, ...] | None) -> ObservationRecord:
    return ObservationRecord(
        step=step,
        l1_frac=part.largest_size / edges.n,
        sm_frac=s_m_vertices(part, m_threshold) / edges.n,
        edge_count=edges.edge_count,
        counts_sorted=counts_sorted,
    )


def run_chain(kind: str, init, params: ModelParams, steps: int,
              rng: np.random.Generator, observe_every: int = 1,
              m_threshold: int | None = None) -> Trajectory:
    """Run `steps` updates of one of the three chains, recording cluster
    statistics at steps 0, observe_every, 2*observe_every, ...

    For "sw" the initial state is a SpinConfig and each observation is
    taken on the intermediate percolation configuration of the step that
    produced the current spins (step 0 observes the empty configuration,
    there being no percolation draw yet). For "cm" and "glauber" the state
    is an EdgeConfig and is observed directly. m_threshold defaults to
    round(ln(n)^2), the usual small/large cluster cutoff.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if steps < 0 or observe_every < 1:
        raise ValueError("need steps >= 0 and observe_every >= 1")
    n = params.n
    if m_threshold is None:
        m_threshold = int(round(np.log(n) ** 2))
    if not isinstance(init, SpinConfig if kind == "sw" else EdgeConfig):
        raise TypeError(f"{kind} chain starts from "
                        + ("a SpinConfig" if kind == "sw" else "an EdgeConfig"))
    traj = Trajectory(kind=kind, params=params, m_threshold=m_threshold)
    spins = init if kind == "sw" else None
    edges = EdgeConfig.empty(n) if kind == "sw" else init
    clusters = cluster_decompose(edges)
    for t in range(steps + 1):
        if t and kind == "sw":
            spins, edges, clusters = _sw_step(spins, params, rng)
        elif t:
            edges = (_cm_step(edges, clusters, params, rng) if kind == "cm"
                     else glauber_step(edges, params, rng))
            # the next cm step reuses them; glauber needs them only to observe
            if kind == "cm" or t % observe_every == 0:
                clusters = cluster_decompose(edges)
        if t % observe_every == 0:
            counts = None if spins is None else tuple(
                int(c) for c in spins.sorted_counts())
            traj.records.append(_observe(t, edges, clusters, m_threshold,
                                         counts))
    traj.final_spins, traj.final_edges = spins, edges
    return traj
