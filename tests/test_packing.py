"""Clustering, priorities, flag codec, merkle tree, and block assembly."""
import hashlib
import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pous.errors import MalformedFlagError, RejectedInputError
from pous.packing import (
    BlockHeader,
    Cluster,
    PriorityWeights,
    cluster_mempool,
    cluster_sizes,
    decode_flag,
    encode_flag,
    kmeans,
    merkle_root,
    pack_block,
    pca_project,
    priority,
    rank,
    tx_leaf,
    tx_priority,
)
from pous.similarity import Transaction, UserVector


def tx(i, user=1, fee=0.0, submit=0.0, cls="A"):
    return Transaction(id=i, source_user=user, tx_class=cls, fee=fee,
                       submit_time=submit)


# ---------------------------------------------------------------------------
# k-means


def two_blobs(n_per=4, sep=50.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n_per, 3))
    b = rng.normal(sep, 1.0, size=(n_per, 3))
    return np.vstack([a, b])


def brute_force_two_means(points):
    n = len(points)
    best_w, best_mask = None, None
    for mask in range(1, (1 << n) - 1):
        idx_a = [i for i in range(n) if mask >> i & 1]
        idx_b = [i for i in range(n) if not mask >> i & 1]
        a, b = points[idx_a], points[idx_b]
        w = ((a - a.mean(0)) ** 2).sum() + ((b - b.mean(0)) ** 2).sum()
        if best_w is None or w < best_w:
            best_w, best_mask = w, mask
    return best_w, frozenset(
        frozenset(i for i in range(n) if (best_mask >> i & 1) == side)
        for side in (0, 1)
    )


def test_kmeans_single_cluster_is_mean():
    pts = two_blobs()
    labels, centers = kmeans(pts, 1, seed=0)
    assert (labels == 0).all()
    assert np.allclose(centers[0], pts.mean(axis=0))


def test_kmeans_matches_brute_force_two_means():
    pts = two_blobs(n_per=5, seed=3)  # 10 points, exhaustive is cheap
    labels, _ = kmeans(pts, 2, seed=1)
    got = frozenset(
        frozenset(np.flatnonzero(labels == c).tolist()) for c in (0, 1)
    )
    _, want = brute_force_two_means(pts)
    assert got == want


def test_kmeans_objective_never_increases():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 4))
    hist = []
    kmeans(pts, 4, seed=2, wcss_history=hist)
    assert len(hist) >= 1
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))


def test_kmeans_identical_points():
    pts = np.ones((6, 2))
    labels, centers = kmeans(pts, 3, seed=0)
    assert np.allclose(centers, 1.0)
    assert len(labels) == 6


def test_kmeans_deterministic():
    pts = two_blobs(seed=7)
    a = kmeans(pts, 2, seed=9)
    b = kmeans(pts, 2, seed=9)
    assert (a[0] == b[0]).all()
    assert np.array_equal(a[1], b[1])


def test_kmeans_rejects_bad_k():
    pts = two_blobs()
    with pytest.raises(RejectedInputError):
        kmeans(pts, 0, seed=0)
    with pytest.raises(RejectedInputError):
        kmeans(pts, len(pts) + 1, seed=0)
    with pytest.raises(RejectedInputError):
        kmeans(np.empty((0, 2)), 1, seed=0)


# ---------------------------------------------------------------------------
# mempool clustering


def test_single_user_single_cluster():
    mempool = [tx(i, user=1) for i in range(1, 6)]
    clusters = cluster_mempool(mempool, {1: np.array([1.0, 2.0])}, k=1)
    assert len(clusters) == 1
    assert clusters[0].tx_ids == (1, 2, 3, 4, 5)
    assert np.allclose(clusters[0].centroid, [1.0, 2.0])


def test_two_groups_match_optimal_partition():
    pts = two_blobs(n_per=4, seed=11)  # users 1..8
    vecs = {u + 1: pts[u] for u in range(8)}
    mempool = [tx(i, user=(i - 1) % 8 + 1) for i in range(1, 17)]
    clusters = cluster_mempool(mempool, vecs, k=2, seed=5)
    got = frozenset(
        frozenset(u - 1 for u in cl.users) for cl in clusters
    )
    _, want = brute_force_two_means(pts)
    assert got == want


def cluster_fields(clusters):
    return [(cl.id, cl.tx_ids, cl.users, cl.tx_dist, cl.centroid.tolist())
            for cl in clusters]


def test_transactions_follow_their_user():
    pts = two_blobs(n_per=3, seed=13)
    pts -= pts.min()  # counts are non-negative
    vecs = {u + 1: pts[u] for u in range(6)}
    rng = random.Random(4)
    mempool = [tx(i, user=rng.randrange(1, 7)) for i in range(1, 30)]
    clusters = cluster_mempool(mempool, vecs, k=2, seed=5)
    # the list form is what build_user_vectors returns
    as_list = [UserVector(u, v) for u, v in vecs.items()]
    assert cluster_fields(cluster_mempool(mempool, as_list, k=2, seed=5)) == \
        cluster_fields(clusters)
    source = {t.id: t.source_user for t in mempool}
    assert sorted(tid for cl in clusters for tid in cl.tx_ids) == sorted(source)
    for cl in clusters:
        assert set(cl.tx_dist) == set(cl.tx_ids)
        for tid in cl.tx_ids:
            assert source[tid] in cl.users
            want = np.sqrt(((vecs[source[tid]] - cl.centroid) ** 2).sum())
            assert cl.tx_dist[tid] == pytest.approx(want)


def test_k_clamped_with_warning(caplog):
    mempool = [tx(1, user=1), tx(2, user=2)]
    vecs = {1: np.zeros(2), 2: np.ones(2)}
    with caplog.at_level(logging.WARNING, logger="pous.packing"):
        clusters = cluster_mempool(mempool, vecs, k=5)
    assert len(clusters) <= 2
    assert any("clamp" in r.message for r in caplog.records)


def test_cluster_mempool_rejects_bad_input():
    with pytest.raises(RejectedInputError):
        cluster_mempool([], {1: np.zeros(2)}, k=1)
    with pytest.raises(RejectedInputError):
        cluster_mempool([tx(1, user=1)], {2: np.zeros(2)}, k=1)
    with pytest.raises(RejectedInputError):
        cluster_mempool([tx(1, user=1)], {1: np.zeros(2)}, k=0)
    with pytest.raises(RejectedInputError):
        cluster_mempool([tx(1, user=1)], [np.zeros(2)], k=1)
    with pytest.raises(RejectedInputError):
        Cluster(id=0, tx_ids=(), centroid=np.zeros(2), users=(), tx_dist={})


# ---------------------------------------------------------------------------
# priority


def one_cluster(vectors, mempool, seed=0):
    return cluster_mempool(mempool, vectors, k=1, seed=seed)[0]


def test_priority_centroid_tx_scores_c():
    mempool = [tx(1, user=1, fee=0.0, submit=30.0)]
    cl = one_cluster({1: np.array([2.0, 2.0])}, mempool)
    w = PriorityWeights(a=0.5, b=2.0, c=1.0)
    assert tx_priority(mempool[0], 30.0, cl, w) == pytest.approx(1.0)


def test_priority_hand_example():
    # two users two apart: centroid sits at distance 1 from each
    vecs = {1: np.array([0.0, 0.0]), 2: np.array([2.0, 0.0])}
    mempool = [tx(1, user=1, fee=0.5, submit=0.0), tx(2, user=2, fee=0.0, submit=0.0)]
    cl = one_cluster(vecs, mempool)
    w = PriorityWeights(a=0.5, b=2.0, c=1.0)
    assert tx_priority(mempool[0], 10.0, cl, w) == pytest.approx(6.5)


def test_priority_weights_scale_linearly():
    rng = np.random.default_rng(6)
    vecs = {u: rng.normal(size=3) for u in range(1, 6)}
    mempool = [
        tx(i, user=int(rng.integers(1, 6)), fee=float(rng.uniform(0, 1)),
           submit=float(rng.uniform(0, 40)))
        for i in range(1, 20)
    ]
    cl = one_cluster(vecs, mempool)
    w1 = PriorityWeights(0.5, 2.0, 1.0)
    w2 = PriorityWeights(1.0, 4.0, 2.0)
    p1 = [tx_priority(t, 50.0, cl, w1) for t in mempool]
    p2 = [tx_priority(t, 50.0, cl, w2) for t in mempool]
    assert np.allclose(p2, np.array(p1) * 2)
    assert (np.argsort(p1) == np.argsort(p2)).all()


def test_priority_unbounded_in_waiting_and_fee():
    vecs = {1: np.zeros(2), 2: np.array([9.0, 9.0])}
    mempool = [tx(1, user=1, fee=0.0, submit=0.0), tx(2, user=2, fee=0.0, submit=0.0)]
    cl = one_cluster(vecs, mempool)
    w = PriorityWeights(0.5, 2.0, 1.0)
    rich = tx(3, user=2, fee=100.0, submit=100.0)
    cl2 = one_cluster(vecs, mempool + [rich])
    # enough fee beats any similarity edge
    assert tx_priority(rich, 100.0, cl2, w) > tx_priority(mempool[0], 100.0, cl2, w)
    # enough waiting time does too
    later = [tx_priority(mempool[1], now, cl, w) for now in (0.0, 10.0, 1000.0)]
    assert later[0] < later[1] < later[2]
    assert later[2] > tx_priority(mempool[0], 0.0, cl, w)


def test_priority_requires_membership():
    mempool = [tx(1, user=1)]
    cl = one_cluster({1: np.zeros(2)}, mempool)
    with pytest.raises(RejectedInputError):
        tx_priority(tx(99, user=1), 0.0, cl, PriorityWeights())


def test_weights_validation():
    with pytest.raises(RejectedInputError):
        PriorityWeights(a=-1.0)
    with pytest.raises(RejectedInputError):
        PriorityWeights(a=0.0, b=0.0, c=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(RejectedInputError, match="finite"):
            PriorityWeights(bad, 1.0, 1.0)


# ---------------------------------------------------------------------------
# flag codec


def header_with(flag, capacity):
    return BlockHeader(
        prev_hash=b"\x00" * 32, merkle_root=b"\x00" * 32, flag=flag,
        capacity=capacity, round_index=0, producer=1,
    )


def test_flag_four_clusters_eleven_slots():
    flag = encode_flag([1, 6, 9, 11], capacity=11)
    assert flag == bytes([0b10000100, 0b10100000])
    offsets = decode_flag(header_with(flag, 11))
    assert offsets == (1, 6, 9, 11)
    assert cluster_sizes(offsets, 11) == [5, 3, 2, 1]


def test_flag_single_cluster():
    flag = encode_flag([1], capacity=11)
    assert flag == bytes([0b10000000, 0b00000000])
    assert decode_flag(header_with(flag, 11)) == (1,)
    assert cluster_sizes((1,), 3) == [3]


def test_flag_roundtrip_many_random_layouts():
    rng = random.Random(8)
    for _ in range(10_000):
        capacity = rng.randrange(1, 200)
        extra = rng.sample(range(2, capacity + 1), k=rng.randrange(0, min(8, capacity)))
        offsets = tuple(sorted({1, *extra}))
        flag = encode_flag(offsets, capacity)
        assert len(flag) == (capacity + 7) // 8
        assert decode_flag(header_with(flag, capacity)) == offsets


@settings(max_examples=200)
@given(
    st.integers(1, 200).flatmap(
        lambda cap: st.tuples(st.just(cap), st.sets(st.integers(2, max(2, cap)), max_size=6))
    )
)
def test_flag_roundtrip_property(cap_offsets):
    capacity, extra = cap_offsets
    offsets = tuple(sorted({1, *(o for o in extra if o <= capacity)}))
    flag = encode_flag(offsets, capacity)
    assert decode_flag(header_with(flag, capacity)) == offsets


def test_flag_rejects_malformed():
    with pytest.raises(MalformedFlagError):
        encode_flag([2, 5], capacity=8)  # first bit unset
    with pytest.raises(MalformedFlagError):
        encode_flag([], capacity=8)
    with pytest.raises(MalformedFlagError):
        encode_flag([1, 9], capacity=8)  # beyond capacity
    with pytest.raises(MalformedFlagError, match="capacity must be positive"):
        encode_flag([1], capacity=0)
    with pytest.raises(MalformedFlagError):
        decode_flag(header_with(b"\x00", 8))  # no bits
    with pytest.raises(MalformedFlagError):
        decode_flag(header_with(b"\x40", 8))  # first bit clear
    with pytest.raises(MalformedFlagError):
        decode_flag(header_with(b"\x80\x00", 8))  # wrong length
    with pytest.raises(MalformedFlagError):
        decode_flag(header_with(b"\x81", 7))  # stray bit past capacity


def test_cluster_sizes_rejects_inconsistent():
    with pytest.raises(MalformedFlagError):
        cluster_sizes((1, 9), 8)  # start beyond body
    with pytest.raises(MalformedFlagError):
        cluster_sizes((2, 3), 5)


# ---------------------------------------------------------------------------
# merkle


def test_merkle_single_leaf():
    t = tx(1, fee=0.1)
    assert merkle_root([t]) == tx_leaf(t)


def test_merkle_odd_count_duplicates_last():
    txs = [tx(i, fee=0.01 * i) for i in range(1, 4)]
    l1, l2, l3 = (tx_leaf(t) for t in txs)
    h = hashlib.sha256
    want = h(h(l1 + l2).digest() + h(l3 + l3).digest()).digest()
    assert merkle_root(txs) == want


def test_merkle_sensitive_to_any_change():
    txs = [tx(i, fee=0.01) for i in range(1, 9)]
    base = merkle_root(txs)
    for i in range(8):
        mutated = txs[:]
        mutated[i] = tx(txs[i].id, fee=0.02)
        assert merkle_root(mutated) != base
    assert merkle_root(list(reversed(txs))) != base


def test_merkle_rejects_empty():
    with pytest.raises(RejectedInputError):
        merkle_root([])


# ---------------------------------------------------------------------------
# packing


def staged_clusters():
    """Four clusters with sizes 5,3,2,1 whose best priorities descend."""
    vec = np.array([1.0, 1.0])
    clusters = []
    txs = {}
    tid = 1
    now = 100.0
    for cid, (size, first_submit) in enumerate([(5, 0.0), (3, 10.0), (2, 20.0), (1, 30.0)]):
        ids = []
        for j in range(size):
            t = tx(tid, user=cid + 1, fee=0.0, submit=first_submit + j)
            txs[tid] = t
            ids.append(tid)
            tid += 1
        clusters.append(
            Cluster(id=cid, tx_ids=tuple(ids), centroid=vec, users=(cid + 1,),
                    tx_dist=dict.fromkeys(ids, 0.0))
        )
    return clusters, txs, now


def test_pack_four_clusters_flag_layout():
    clusters, txs, now = staged_clusters()
    block = pack_block(clusters, PriorityWeights(), 11, now, b"\x01" * 32, txs,
                       round_index=2, producer=3)
    assert block is not None
    assert len(block.body) == 11
    assert block.header.flag == bytes([0b10000100, 0b10100000])
    assert decode_flag(block.header) == (1, 6, 9, 11)
    assert block.header.producer == 3
    assert block.header.round_index == 2
    assert merkle_root(block.body) == block.header.merkle_root


def test_pack_single_small_cluster():
    clusters, txs, now = staged_clusters()
    block = pack_block(clusters[1:2], PriorityWeights(), 11, now, b"\x00" * 32, txs)
    assert len(block.body) == 3
    assert block.header.flag == bytes([0b10000000, 0b00000000])


def test_pack_selects_global_top_r():
    rng = np.random.default_rng(21)
    vecs = {u: rng.normal(size=4) for u in range(1, 9)}
    mempool = [
        tx(i, user=int(rng.integers(1, 9)), fee=float(rng.uniform(0, 0.01)),
           submit=float(rng.uniform(0, 90)))
        for i in range(1, 61)
    ]
    lookup = {t.id: t for t in mempool}
    clusters = cluster_mempool(mempool, vecs, k=3, seed=2)
    now, cap = 95.0, 20
    block = pack_block(clusters, PriorityWeights(), cap, now, b"\x00" * 32, lookup)
    prios = {}
    for cl in clusters:
        for tid in cl.tx_ids:
            prios[tid] = tx_priority(lookup[tid], now, cl, PriorityWeights())
    want = sorted(
        lookup.values(), key=lambda t: (-prios[t.id], t.submit_time, t.id)
    )[:cap]
    assert {t.id for t in block.body} == {t.id for t in want}
    # cluster-contiguous layout with heads in rank order
    offsets = decode_flag(block.header)
    sizes = cluster_sizes(offsets, len(block.body))
    heads = [block.body[o - 1] for o in offsets]
    head_p = [prios[t.id] for t in heads]
    assert all(head_p[i] >= head_p[i + 1] for i in range(len(head_p) - 1))
    pos = 0
    for seg in sizes:
        seg_p = [prios[t.id] for t in block.body[pos:pos + seg]]
        assert all(seg_p[i] >= seg_p[i + 1] for i in range(len(seg_p) - 1))
        pos += seg


def test_pack_body_is_columnar_rank_top_r():
    rng = np.random.default_rng(23)
    vecs = {u: rng.normal(size=3) for u in range(1, 7)}
    mempool = [
        tx(i, user=int(rng.integers(1, 7)), fee=float(rng.choice([0.0, 0.5])),
           submit=float(rng.integers(0, 5)))
        for i in range(1, 41)
    ]
    lookup = {t.id: t for t in mempool}
    clusters = cluster_mempool(mempool, vecs, k=3, seed=4)
    now, cap, w = 10.0, 15, PriorityWeights(0.5, 2.0, 1.0)
    block = pack_block(clusters, w, cap, now, b"\x00" * 32, lookup)

    cluster_of = {tid: cl for cl in clusters for tid in cl.tx_ids}
    ids = np.array(sorted(lookup))
    dist = np.array([
        np.sqrt(((vecs[lookup[t].source_user] - cluster_of[t].centroid) ** 2).sum())
        for t in ids
    ])
    submit = np.array([lookup[t].submit_time for t in ids])
    fee = np.array([lookup[t].fee for t in ids])
    ranked = list(ids[rank(priority(now, submit, fee, dist, w), submit, ids)])
    assert sorted(t.id for t in block.body) == sorted(ranked[:cap])
    # each segment is one cluster, in rank order
    pos = 0
    for seg in cluster_sizes(decode_flag(block.header), len(block.body)):
        seg_ids = [t.id for t in block.body[pos:pos + seg]]
        assert len({cluster_of[t].id for t in seg_ids}) == 1
        assert seg_ids == sorted(seg_ids, key=ranked.index)
        pos += seg


def test_rank_breaks_ties_by_submit_then_id():
    prio = np.array([1.0, 2.0, 2.0, 2.0])
    submit = np.array([0.0, 5.0, 3.0, 3.0])
    ids = np.array([4, 3, 2, 1])
    assert list(rank(prio, submit, ids)) == [3, 2, 1, 0]


def test_pack_flag_popcount_equals_clusters_present():
    rng = np.random.default_rng(22)
    for trial in range(20):
        n_users = int(rng.integers(2, 10))
        vecs = {u: rng.normal(size=3) for u in range(1, n_users + 1)}
        mempool = [
            tx(i, user=int(rng.integers(1, n_users + 1)),
               fee=float(rng.uniform(0, 0.01)), submit=float(rng.uniform(0, 50)))
            for i in range(1, int(rng.integers(2, 40)))
        ]
        lookup = {t.id: t for t in mempool}
        clusters = cluster_mempool(mempool, vecs, k=3, seed=trial)
        cap = int(rng.integers(1, 30))
        block = pack_block(clusters, PriorityWeights(), cap, 60.0, b"\x00" * 32, lookup)
        if block is None:
            continue
        offsets = decode_flag(block.header)
        present = {cl.id for cl in clusters
                   if any(t.id in set(cl.tx_ids) for t in block.body)}
        assert len(offsets) == len(present)
        assert sum(cluster_sizes(offsets, len(block.body))) == len(block.body)
        assert len(block.body) <= cap


def test_pack_empty_returns_none():
    assert pack_block([], PriorityWeights(), 5, 0.0, b"\x00" * 32, {}) is None


def test_pack_rejects_bad_capacity():
    with pytest.raises(RejectedInputError):
        pack_block([], PriorityWeights(), 0, 0.0, b"\x00" * 32, {})


def test_pack_tie_breaks_deterministic():
    txs = {i: tx(i, user=1, fee=0.001, submit=5.0) for i in (1, 2, 3)}
    cl = Cluster(id=0, tx_ids=(3, 1, 2), centroid=np.zeros(2), users=(1,),
                 tx_dist={1: 0.0, 2: 0.0, 3: 0.0})
    block = pack_block([cl], PriorityWeights(), 2, 10.0, b"\x00" * 32, txs)
    assert [t.id for t in block.body] == [1, 2]  # equal priority: lowest ids


# ---------------------------------------------------------------------------
# projection


def test_pca_axis_aligned_identity():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [6.0, 0.0]])
    proj = pca_project(X)
    centered = X[:, 0] - X[:, 0].mean()
    assert np.allclose(proj[:, 0], centered)
    assert np.allclose(proj[:, 1], 0.0)


def test_pca_component_variances_ordered():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(50, 6)) * np.array([5, 3, 1, 1, 1, 1])
    proj = pca_project(X)
    assert proj[:, 0].var() >= proj[:, 1].var()


def test_pca_matches_svd_oracle():
    rng = np.random.default_rng(24)
    X = rng.normal(size=(30, 5))
    proj = pca_project(X)
    Xc = X - X.mean(axis=0)
    _u, _s, vt = np.linalg.svd(Xc, full_matrices=False)
    want = Xc @ vt[:2].T
    for col in range(2):
        assert (
            np.abs(proj[:, col] - want[:, col]).max() < 1e-9
            or np.abs(proj[:, col] + want[:, col]).max() < 1e-9
        )


def test_pca_pads_rank_deficient():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    proj = pca_project(X)
    assert np.allclose(proj[:, 1], 0.0)
    assert not np.allclose(proj[:, 0], 0.0)


def test_pca_of_one_column_pads_the_second_component():
    proj = pca_project(np.array([[1.0], [2.0], [4.0]]))
    assert proj.shape == (3, 2)
    assert np.allclose(proj[:, 0], [-4 / 3, -1 / 3, 5 / 3])
    assert np.allclose(proj[:, 1], 0.0)


def test_pca_needs_two_vectors():
    with pytest.raises(RejectedInputError):
        pca_project(np.array([[1.0, 2.0]]))
