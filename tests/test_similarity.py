"""User vectors, similarity math, and budgeted matrix mining."""
import importlib
import math
import struct
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pous.errors import RejectedInputError
from pous.similarity import (
    DEFAULT_CLASSES,
    DataView,
    SimilarityMatrix,
    Transaction,
    UserVector,
    build_user_vectors,
    compute_usm,
    flat_index,
    pair_sequence,
    similarity,
    unflatten_index,
    update_usm,
)

FOUR_CLASSES = ("A", "B", "C", "D")


def tx(i, user, cls, fee=0.001):
    return Transaction(id=i, source_user=user, tx_class=cls, fee=fee)


def view_of(*txs):
    return DataView(history=tuple(txs), mempool=())


# ---------------------------------------------------------------------------
# user vectors


def test_vector_tally_three_a_four_b():
    txs = [tx(i, 1, "A") for i in range(3)] + [tx(10 + i, 1, "B") for i in range(4)]
    vecs = build_user_vectors(view_of(*txs), n_users=1, classes=FOUR_CLASSES)
    assert list(vecs[0].counts) == [3, 4, 0, 0]


def test_vectors_empty_view_all_zero():
    vecs = build_user_vectors(view_of(), n_users=2, classes=FOUR_CLASSES)
    assert len(vecs) == 2
    for v in vecs:
        assert not v.counts.any()
        assert len(v.counts) == 4


def test_vectors_match_counting_oracle():
    rng = np.random.default_rng(5)
    n_users = 7
    txs = [
        tx(i, int(rng.integers(1, n_users + 1)), DEFAULT_CLASSES[rng.integers(6)])
        for i in range(50)
    ]
    vecs = build_user_vectors(view_of(*txs), n_users, DEFAULT_CLASSES)
    for u in range(1, n_users + 1):
        for ci, cls in enumerate(DEFAULT_CLASSES):
            want = sum(1 for t in txs if t.source_user == u and t.tx_class == cls)
            assert vecs[u - 1].counts[ci] == want


def test_vectors_span_history_and_mempool():
    view = DataView(history=(tx(1, 1, "A"),), mempool=(tx(2, 1, "A"),))
    vecs = build_user_vectors(view, 1, FOUR_CLASSES)
    assert vecs[0].counts[0] == 2


def test_vectors_reject_unknown_class():
    with pytest.raises(RejectedInputError):
        build_user_vectors(view_of(tx(1, 1, "Z")), 1, FOUR_CLASSES)


def test_vectors_reject_out_of_range_user():
    with pytest.raises(RejectedInputError):
        build_user_vectors(view_of(tx(1, 3, "A")), 2, FOUR_CLASSES)
    with pytest.raises(RejectedInputError, match="n_users"):
        build_user_vectors(view_of(tx(1, 1, "A")), 0, FOUR_CLASSES)


def test_transaction_rejects_negative_fee():
    with pytest.raises(RejectedInputError):
        Transaction(id=1, source_user=1, tx_class="A", fee=-0.5)
    with pytest.raises(RejectedInputError, match="non-positive size"):
        Transaction(id=1, source_user=1, tx_class="A", fee=0.5, size_bytes=0)
    with pytest.raises(RejectedInputError, match="1-based"):
        Transaction(id=1, source_user=0, tx_class="A", fee=0.5)


def test_user_vector_rejects_negative_counts():
    with pytest.raises(RejectedInputError):
        UserVector(1, np.array([1, -1]))


# ---------------------------------------------------------------------------
# similarity


def vec(user, *counts):
    return UserVector(user, np.array(counts, dtype=np.int64))


def test_similarity_identical_is_one():
    assert similarity(vec(1, 3, 4, 0, 0), vec(2, 3, 4, 0, 0)) == 1.0


def test_similarity_three_four_vs_zero():
    # distance sqrt(9 + 16) = 5 exactly
    assert similarity(vec(1, 3, 4, 0, 0), vec(2, 0, 0, 0, 0)) == 1.0 / 6.0


def test_similarity_symmetric_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = vec(1, *rng.integers(0, 20, size=6))
        v = vec(2, *rng.integers(0, 20, size=6))
        assert similarity(u, v) == similarity(v, u)
        assert 0.0 < similarity(u, v) <= 1.0


def test_similarity_dimension_mismatch():
    with pytest.raises(RejectedInputError):
        similarity(vec(1, 1, 2), vec(2, 1, 2, 3))


# ---------------------------------------------------------------------------
# flat indexing


def test_flat_index_first_cell():
    assert flat_index(1, 1, 4) == 1


def test_flat_index_row_two_col_three():
    assert flat_index(2, 3, 4) == 7


def test_flat_index_bijection_n64():
    n = 64
    seen = set()
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            j = flat_index(k, l, n)
            assert unflatten_index(j, n) == (k, l)
            seen.add(j)
    assert seen == set(range(1, n * n + 1))


@given(st.integers(1, 64).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(1, n))
))
def test_flat_index_roundtrip(knl):
    n, k, l = knl
    assert unflatten_index(flat_index(k, l, n), n) == (k, l)


def test_flat_index_rejects_out_of_range():
    for k, l in [(0, 1), (1, 0), (5, 1), (1, 5)]:
        with pytest.raises(RejectedInputError):
            flat_index(k, l, 4)
    with pytest.raises(RejectedInputError):
        unflatten_index(0, 4)
    with pytest.raises(RejectedInputError):
        unflatten_index(17, 4)


def test_pair_sequence_row_major():
    assert list(pair_sequence(4)) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]


# ---------------------------------------------------------------------------
# matrix mining


def demo_vectors(n, seed=3):
    rng = np.random.default_rng(seed)
    return [vec(u, *rng.integers(0, 10, size=6)) for u in range(1, n + 1)]


def test_full_budget_n3_nine_entries():
    m = compute_usm(demo_vectors(3), budget=None)
    assert m.computed_count == 9
    for k in range(1, 4):
        assert m.get_pair(k, k) == 1.0
        for l in range(1, 4):
            assert m.get_pair(k, l) == m.get_pair(l, k)
            assert m.get_pair(k, l) is not None


def test_budget_two_of_n4_fills_two_pairs():
    m = compute_usm(demo_vectors(4), budget=2)
    assert m.off_diagonal_pair_count() == 2
    # pairs (1,2) and (1,3), their mirrors, and diagonals of users 1..3
    assert m.computed_indices == [1, 2, 3, 5, 6, 9, 11]
    assert m.get_pair(4, 4) is None


def test_budget_zero_all_null():
    m = compute_usm(demo_vectors(3), budget=0)
    assert m.computed_count == 0
    assert np.isnan(m.to_dense()).all()


def test_budget_counts_pairs_exactly():
    vecs = demo_vectors(5)
    for b in range(0, 12):
        m = compute_usm(vecs, budget=b)
        assert m.off_diagonal_pair_count() == min(b, 10)


def test_full_budget_matches_all_pairs_oracle():
    vecs = demo_vectors(6, seed=9)
    m = compute_usm(vecs, budget=None)
    n = len(vecs)
    dense = m.to_dense()
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if k == l:
                want = 1.0
            else:
                d = math.sqrt(
                    sum(int(a - b) ** 2
                        for a, b in zip(vecs[k - 1].counts, vecs[l - 1].counts))
                )
                want = 1.0 / (1.0 + d)
            assert dense[flat_index(k, l, n) - 1] == want


def test_compute_usm_rejects_bad_budget_and_empty():
    with pytest.raises(RejectedInputError):
        compute_usm(demo_vectors(3), budget=-1)
    with pytest.raises(RejectedInputError):
        compute_usm([], budget=None)
    with pytest.raises(RejectedInputError, match="inconsistent"):
        compute_usm([UserVector(1, np.array([1, 2])), UserVector(2, np.array([1, 2, 3]))])


def test_matrix_entry_validation():
    m = SimilarityMatrix(owner=1, n_users=3)
    with pytest.raises(RejectedInputError):
        m.set_entry(1, 1.5)
    with pytest.raises(RejectedInputError):
        m.set_entry(10, 0.5)
    with pytest.raises(RejectedInputError):
        m.get(0)


# ---------------------------------------------------------------------------
# updating


def history_for(n, seed=11, count=40):
    rng = np.random.default_rng(seed)
    return tuple(
        tx(i, int(rng.integers(1, n + 1)), DEFAULT_CLASSES[rng.integers(6)])
        for i in range(count)
    )


def test_update_same_view_is_idempotent():
    view = DataView(history=history_for(4), mempool=())
    vecs = build_user_vectors(view, 4)
    m = compute_usm(vecs, budget=3)
    m2 = update_usm(m, view)
    assert m2.computed_indices == m.computed_indices
    for j in m.computed_indices:
        assert m2.get(j) == m.get(j)


def test_update_preserves_null_pattern():
    view = DataView(history=history_for(5), mempool=())
    m = compute_usm(build_user_vectors(view, 5), budget=4)
    grown = DataView(history=view.history + (tx(900, 2, "C"),), mempool=())
    m2 = update_usm(m, grown)
    assert m2.computed_indices == m.computed_indices


def test_update_locality_one_new_tx():
    n = 5
    view = DataView(history=history_for(n), mempool=())
    m = compute_usm(build_user_vectors(view, n), budget=None)
    grown = DataView(history=view.history + (tx(901, 3, "A"),), mempool=())
    m2 = update_usm(m, grown)
    for j in m.computed_indices:
        k, l = unflatten_index(j, n)
        if 3 not in (k, l):
            assert m2.get(j) == m.get(j)
    # user 3 moved, so at least one of its entries must differ
    assert any(
        m2.get_pair(3, l) != m.get_pair(3, l) for l in range(1, n + 1) if l != 3
    )


def test_update_equals_from_scratch_on_same_pattern():
    n = 6
    old = DataView(history=history_for(n, seed=2), mempool=())
    new = DataView(history=history_for(n, seed=4, count=55), mempool=())
    m = compute_usm(build_user_vectors(old, n), budget=7)
    updated = update_usm(m, new)
    fresh = compute_usm(build_user_vectors(new, n), budget=None)
    for j in m.computed_indices:
        assert updated.get(j) == fresh.get(j)
    assert updated.computed_indices == m.computed_indices


# ---------------------------------------------------------------------------
# compressed-row serialization


def test_crs_roundtrip_partial_matrix():
    m = compute_usm(demo_vectors(5, seed=7), budget=4, owner=3)
    raw = m.crs_bytes()
    assert len(raw) == 8 + 16 * m.computed_count
    back = SimilarityMatrix.from_crs_bytes(raw)
    assert back.owner == 3
    assert back.n_users == 5
    assert back.computed_indices == m.computed_indices
    for j in m.computed_indices:
        assert back.get(j) == m.get(j)


def test_crs_triples_row_major_order():
    m = compute_usm(demo_vectors(4), budget=2)
    triples = m.to_crs_triples()
    flats = [flat_index(r, c, 4) for r, c, _v in triples]
    assert flats == sorted(flats)
    assert len(triples) == m.computed_count


def test_crs_rejects_truncated_payload():
    m = compute_usm(demo_vectors(3), budget=1)
    raw = m.crs_bytes()
    with pytest.raises(RejectedInputError):
        SimilarityMatrix.from_crs_bytes(raw[:-3])
    with pytest.raises(RejectedInputError):
        SimilarityMatrix.from_crs_bytes(b"\x01")


def crs_matrix_blob(triples, owner=1, n=3):
    """A matrix blob as crs_bytes lays it out, with any triples."""
    return struct.pack("<II", owner, n) + b"".join(struct.pack("<IId", *t) for t in triples)


@pytest.mark.parametrize("blob, reason", [
    (crs_matrix_blob([(1, 2, 0.5)], owner=0), "owner 0 over 3 users"),
    (crs_matrix_blob([], n=0), "owner 1 over 0 users"),
    (crs_matrix_blob([(1, 2, 0.5), (1, 2, 0.7)]), r"entry \(1, 2\) does not come after \(1, 2\)"),
    (crs_matrix_blob([(2, 1, 0.5), (1, 2, 0.5)]), r"entry \(1, 2\) does not come after \(2, 1\)"),
    (crs_matrix_blob([(1, 3, 0.5), (1, 2, 0.5)]), r"entry \(1, 2\) does not come after \(1, 3\)"),
    (crs_matrix_blob([(0, 2, 0.5)]), r"pair \(0, 2\) outside 1..3"),
    (crs_matrix_blob([(1, 4, 0.5)]), r"pair \(1, 4\) outside 1..3"),
    (crs_matrix_blob([(1, 2, 1.5)]), "similarity 1.5 outside"),
], ids=["owner-0", "no-users", "repeated-entry", "out-of-order", "out-of-order-in-row",
        "row-0", "col-past-n", "value-past-1"])
def test_crs_matrix_rejects_what_the_writer_never_writes(blob, reason):
    with pytest.raises(RejectedInputError, match=reason):
        SimilarityMatrix.from_crs_bytes(blob)


def test_crs_matrix_accepts_the_diagonal_and_an_empty_matrix():
    back = SimilarityMatrix.from_crs_bytes(crs_matrix_blob([(1, 1, 1.0), (3, 3, 0.0)]))
    assert back.to_crs_triples() == [(1, 1, 1.0), (3, 3, 0.0)]
    empty = SimilarityMatrix.from_crs_bytes(crs_matrix_blob([], owner=2, n=4))
    assert (empty.owner, empty.n_users, empty.computed_count) == (2, 4, 0)


# ---------------------------------------------------------------------------
# package layout


def test_package_attributes_are_the_submodules():
    # a package-level re-export of the function ``similarity`` would shadow
    # the submodule, and ``import pous.similarity as m`` would bind it
    import pous

    for name in ("bts", "cli", "committee", "errors", "garbled", "packing",
                 "similarity", "simnet"):
        module = importlib.import_module(f"pous.{name}")
        assert getattr(pous, name) is module
    import pous.similarity as m

    assert isinstance(m, types.ModuleType)
