"""Clustering-based block assembly.

The round leader groups its mempool by user similarity (k-means over
the source users' count vectors), scores every transaction by a linear
priority over waiting time, fee, and closeness to its cluster center,
and packs the top R into a block laid out cluster by cluster. A flag
bitfield in the header marks where each cluster starts, so verifiers
can recount clusters without re-running the clustering.

The waiting-time and fee terms keep the rule fair: any transaction
eventually outbids pure similarity if it waits long enough or pays
enough.
"""
from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from hashlib import sha256
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import MalformedFlagError, RejectedInputError
from .similarity import Transaction, UserVector

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PriorityWeights:
    """Scaling parameters of the priority rule P = a*D + b*Fee + c*Sim."""

    a: float = 0.5
    b: float = 2.0
    c: float = 1.0

    def __post_init__(self):
        if not all(0.0 <= w < math.inf for w in (self.a, self.b, self.c)):
            raise RejectedInputError("priority weights must be finite and nonnegative")
        if self.a == self.b == self.c == 0:
            raise RejectedInputError("at least one priority weight must be positive")


@dataclass(frozen=True)
class Cluster:
    """One user-similarity cluster of mempool transactions."""

    id: int
    tx_ids: tuple[int, ...]
    centroid: np.ndarray
    users: tuple[int, ...]
    tx_dist: dict[int, float]  # tx id -> its user's distance to the centroid

    def __post_init__(self):
        if not self.tx_ids:
            raise RejectedInputError("clusters cannot be empty")


@dataclass(frozen=True)
class BlockHeader:
    prev_hash: bytes
    merkle_root: bytes
    flag: bytes
    capacity: int
    round_index: int
    producer: int


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    body: tuple[Transaction, ...]


# ---------------------------------------------------------------------------
# k-means


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    wcss_history: Optional[list] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd iteration with distance-weighted seeding.

    Runs at most 100 rounds or until the largest centroid shift drops
    below 1e-6. An emptied cluster is reseeded to the point currently
    farthest from its assigned center, which keeps all k clusters
    alive. Returns (labels, centers).
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        raise RejectedInputError("cannot cluster zero points")
    if not 1 <= k <= n:
        raise RejectedInputError(f"k={k} outside 1..{n}")
    rng = np.random.default_rng(seed)

    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[i:] = points[rng.integers(n, size=k - i)]
            break
        centers[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centers[i]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=int)
    for _ in range(100):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dists.argmin(axis=1)
        if wcss_history is not None:
            wcss_history.append(float(dists[np.arange(n), labels].sum()))
        new_centers = np.empty_like(centers)
        for c in range(k):
            mask = labels == c
            if mask.any():
                new_centers[c] = points[mask].mean(axis=0)
            else:
                new_centers[c] = points[dists.min(axis=1).argmax()]
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < 1e-6:
            break
    dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = dists.argmin(axis=1)
    return labels, centers


def _vector_map(user_vectors) -> dict[int, np.ndarray]:
    if isinstance(user_vectors, Mapping):
        return {int(u): np.asarray(v, dtype=float) for u, v in user_vectors.items()}
    out = {}
    for uv in user_vectors:
        if isinstance(uv, UserVector):
            out[uv.user] = np.asarray(uv.counts, dtype=float)
        else:
            raise RejectedInputError("user_vectors must be a mapping or UserVector list")
    return out


def cluster_users(points, k: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means over user vectors with k clamped to the point count.

    The one clustering step of block packing. Returns (labels, centers,
    dist), where ``dist`` is each point's distance to its center.
    """
    points = np.asarray(points, dtype=float)
    labels, centers = kmeans(points, min(k, len(points)), seed)
    return labels, centers, np.sqrt(((points - centers[labels]) ** 2).sum(axis=1))


def cluster_mempool(
    mempool: Sequence[Transaction],
    user_vectors,
    k: int = 3,
    seed: int = 0,
) -> list[Cluster]:
    """Cluster transactions through their source users.

    The k-means instance runs over the distinct source-user vectors;
    each transaction lands in its user's cluster. Requesting more
    clusters than distinct users clamps k with a warning.
    """
    if not mempool:
        raise RejectedInputError("cannot cluster an empty mempool")
    vecs = _vector_map(user_vectors)
    users = sorted({tx.source_user for tx in mempool})
    missing = [u for u in users if u not in vecs]
    if missing:
        raise RejectedInputError(f"no vectors for users {missing[:5]}")
    if k > len(users):
        log.warning("k=%d exceeds %d distinct users; clamping", k, len(users))

    labels, centers, dist = cluster_users(np.stack([vecs[u] for u in users]), k, seed)
    user_label = dict(zip(users, labels.tolist()))
    user_dist = dict(zip(users, dist.tolist()))
    clusters = []
    for c, centroid in enumerate(centers):
        members = [tx for tx in mempool if user_label[tx.source_user] == c]
        if members:
            clusters.append(Cluster(
                id=c,
                tx_ids=tuple(tx.id for tx in members),
                centroid=centroid,
                users=tuple(u for u in users if user_label[u] == c),
                tx_dist={tx.id: user_dist[tx.source_user] for tx in members},
            ))
    return clusters


def priority(now, submit, fee, dist, weights: PriorityWeights):
    """The priority rule over scalars or columns: waiting time, fee, and
    similarity as inverse distance to the cluster center."""
    return weights.a * (now - submit) + weights.b * fee + weights.c / (1.0 + dist)


def rank(prio, submit, ids) -> np.ndarray:
    """Indices in packing order: higher priority first, ties to the
    earlier submitter, then to the lower id."""
    return np.lexsort((ids, submit, -np.asarray(prio)))


def tx_priority(
    tx: Transaction,
    now: float,
    cluster: Cluster,
    weights: PriorityWeights = PriorityWeights(),
) -> float:
    """:func:`priority` of one transaction within its cluster."""
    if tx.id not in cluster.tx_dist:
        raise RejectedInputError(f"tx {tx.id} not assigned to cluster {cluster.id}")
    return float(priority(now, tx.submit_time, tx.fee, cluster.tx_dist[tx.id], weights))


# ---------------------------------------------------------------------------
# flag codec


def encode_flag(start_offsets: Iterable[int], capacity: int) -> bytes:
    """Bitfield of ``capacity`` bits with ones at cluster starts.

    Offsets are 1-based transaction positions inside the block body;
    the first must be 1. Packed big-endian, bit 1 at the high bit of
    byte 0.
    """
    offsets = sorted(set(int(o) for o in start_offsets))
    if capacity < 1:
        raise MalformedFlagError("capacity must be positive")
    if not offsets:
        raise MalformedFlagError("flag needs at least one set bit")
    if offsets[0] != 1:
        raise MalformedFlagError("first flag bit must be set")
    if offsets[-1] > capacity:
        raise MalformedFlagError(f"offset {offsets[-1]} beyond capacity {capacity}")
    buf = bytearray((capacity + 7) // 8)
    for off in offsets:
        bit = off - 1
        buf[bit // 8] |= 0x80 >> (bit % 8)
    return bytes(buf)


def decode_flag(header: BlockHeader) -> tuple[int, ...]:
    """Set-bit positions (1-based) of the header flag.

    Rejects flags whose first bit is clear, with no bits at all, or
    with stray bits past the capacity.
    """
    capacity = header.capacity
    if len(header.flag) != (capacity + 7) // 8:
        raise MalformedFlagError("flag length does not match capacity")
    offsets = []
    for bit in range(8 * len(header.flag)):
        if header.flag[bit // 8] & (0x80 >> (bit % 8)):
            if bit >= capacity:
                raise MalformedFlagError(f"set bit {bit + 1} beyond capacity {capacity}")
            offsets.append(bit + 1)
    if not offsets:
        raise MalformedFlagError("flag has no set bits")
    if offsets[0] != 1:
        raise MalformedFlagError("first flag bit must be set")
    return tuple(offsets)


def cluster_sizes(offsets: Sequence[int], body_len: int) -> list[int]:
    """Segment lengths implied by start offsets over a body."""
    if not offsets or offsets[0] != 1:
        raise MalformedFlagError("offsets must start at 1")
    bounds = list(offsets) + [body_len + 1]
    sizes = [bounds[i + 1] - bounds[i] for i in range(len(offsets))]
    if any(s < 1 for s in sizes) or sum(sizes) != body_len:
        raise MalformedFlagError("offsets inconsistent with body length")
    return sizes


# ---------------------------------------------------------------------------
# merkle


def tx_leaf(tx: Transaction) -> bytes:
    blob = (
        struct.pack("<QId", tx.id, tx.source_user, tx.fee)
        + tx.tx_class.encode()
        + struct.pack("<dI", tx.submit_time, tx.size_bytes)
    )
    return sha256(blob).digest()


def merkle_root(txs: Sequence[Transaction]) -> bytes:
    """Binary SHA256 tree over transaction leaves; odd levels repeat
    their last node."""
    if not txs:
        raise RejectedInputError("merkle tree needs at least one leaf")
    level = [tx_leaf(tx) for tx in txs]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [sha256(level[i] + level[i + 1]).digest() for i in range(0, len(level), 2)]
    return level[0]


# ---------------------------------------------------------------------------
# packing


def pack_block(
    clusters: Sequence[Cluster],
    weights: PriorityWeights,
    capacity: int,
    now: float,
    prev_hash: bytes,
    tx_lookup: Mapping[int, Transaction],
    round_index: int = 0,
    producer: int = 0,
) -> Optional[Block]:
    """Select the top-``capacity`` transactions by :func:`rank` and lay
    them out cluster-contiguously.

    The tie-breaks let any verifier reproduce the identical block.
    Clusters appear in order of their best member; the flag marks each
    cluster's first position. Returns None when there is nothing to
    pack.
    """
    if capacity < 1:
        raise RejectedInputError("block capacity must be positive")
    members = [(tx_lookup[tid], cl) for cl in clusters for tid in cl.tx_ids]
    if not members:
        return None
    order = rank(
        [tx_priority(tx, now, cl, weights) for tx, cl in members],
        [tx.submit_time for tx, _cl in members],
        [tx.id for tx, _cl in members],
    )

    # grouped by first appearance in rank order, so each cluster's
    # segment follows its best member
    by_cluster: dict[int, list[Transaction]] = {}
    for i in order[:capacity]:
        tx, cl = members[i]
        by_cluster.setdefault(cl.id, []).append(tx)

    body: list[Transaction] = []
    offsets: list[int] = []
    for group in by_cluster.values():
        offsets.append(len(body) + 1)
        body.extend(group)

    header = BlockHeader(
        prev_hash=prev_hash,
        merkle_root=merkle_root(body),
        flag=encode_flag(offsets, capacity),
        capacity=capacity,
        round_index=round_index,
        producer=producer,
    )
    return Block(header=header, body=tuple(body))


# ---------------------------------------------------------------------------
# projection for inspection plots


def pca_project(user_vectors) -> np.ndarray:
    """Mean-centered projection onto the top two principal components.

    Components come from the eigendecomposition of the sample
    covariance, eigenvalues descending; each eigenvector is flipped so
    its largest-magnitude entry is positive, and directions with no
    variance project to zeros.
    """
    if isinstance(user_vectors, Mapping) or (
        isinstance(user_vectors, (list, tuple))
        and user_vectors
        and isinstance(user_vectors[0], UserVector)
    ):
        vecs = _vector_map(user_vectors)
        X = np.stack([vecs[u] for u in sorted(vecs)])
    else:
        X = np.asarray(user_vectors, dtype=float)
    if X.ndim != 2 or len(X) < 2:
        raise RejectedInputError("projection needs at least two vectors")
    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / (len(X) - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    comps = []
    for idx in order[:2]:
        if evals[idx] < 1e-12:
            comps.append(np.zeros(X.shape[1]))
            continue
        v = evecs[:, idx]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        comps.append(v)
    while len(comps) < 2:
        comps.append(np.zeros(X.shape[1]))
    return Xc @ np.stack(comps, axis=1)


def mean_centroid_distance(clusters: Sequence[Cluster], tx_ids: Optional[set] = None) -> float:
    """Average distance from transactions' user vectors to their
    cluster centers, optionally restricted to a transaction subset."""
    dists = [cl.tx_dist[tid] for cl in clusters for tid in cl.tx_ids
             if tx_ids is None or tid in tx_ids]
    if not dists:
        raise RejectedInputError("no transactions to measure")
    return float(np.mean(dists))
