"""User vectors, similarity math, and budgeted matrix mining."""
import ast
import importlib
import math
import struct
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pous.errors import RejectedInputError
from pous.packing import cluster_mempool
from pous.similarity import (
    DEFAULT_CLASSES,
    DataView,
    SimilarityMatrix,
    Transaction,
    build_user_vectors,
    compute_usm,
    flat_index,
    pair_sequence,
    similarity,
    unflatten_index,
)

def tx(i, user, cls, fee=0.001):
    return Transaction(id=i, source_user=user, tx_class=cls, fee=fee)


def view_of(*txs):
    return DataView(history=tuple(txs), mempool=())


# ---------------------------------------------------------------------------
# user vectors


def test_vector_tally_three_a_four_b():
    txs = [tx(i, 1, "A") for i in range(3)] + [tx(10 + i, 1, "B") for i in range(4)]
    vecs = build_user_vectors(view_of(*txs), n_users=1)
    assert vecs.tolist() == [[3, 4, 0, 0, 0, 0]]


def test_vectors_empty_view_all_zero():
    vecs = build_user_vectors(view_of(), n_users=2)
    assert vecs.shape == (2, len(DEFAULT_CLASSES))
    assert vecs.dtype == np.int64
    assert not vecs.any()


def test_vectors_match_counting_oracle():
    rng = np.random.default_rng(5)
    n_users = 7
    txs = [
        tx(i, int(rng.integers(1, n_users + 1)), DEFAULT_CLASSES[rng.integers(6)])
        for i in range(50)
    ]
    vecs = build_user_vectors(view_of(*txs), n_users)
    for u in range(1, n_users + 1):
        for ci, cls in enumerate(DEFAULT_CLASSES):
            want = sum(1 for t in txs if t.source_user == u and t.tx_class == cls)
            assert vecs[u - 1, ci] == want


def test_vectors_span_history_and_mempool():
    view = DataView(history=(tx(1, 1, "A"),), mempool=(tx(2, 1, "A"),))
    vecs = build_user_vectors(view, 1)
    assert vecs[0, 0] == 2


def test_vectors_reject_unknown_class():
    with pytest.raises(RejectedInputError):
        build_user_vectors(view_of(tx(1, 1, "Z")), 1)


def test_vectors_reject_out_of_range_user():
    with pytest.raises(RejectedInputError):
        build_user_vectors(view_of(tx(1, 3, "A")), 2)
    with pytest.raises(RejectedInputError, match="n_users"):
        build_user_vectors(view_of(tx(1, 1, "A")), 0)


def test_transaction_rejects_negative_fee():
    with pytest.raises(RejectedInputError):
        Transaction(id=1, source_user=1, tx_class="A", fee=-0.5)
    with pytest.raises(RejectedInputError, match="non-positive size"):
        Transaction(id=1, source_user=1, tx_class="A", fee=0.5, size_bytes=0)
    with pytest.raises(RejectedInputError, match="1-based"):
        Transaction(id=1, source_user=0, tx_class="A", fee=0.5)


def test_compute_usm_rejects_negative_counts():
    with pytest.raises(RejectedInputError, match="negative count in vector of user 2"):
        compute_usm(np.array([[1, 1], [1, -1]]))


# ---------------------------------------------------------------------------
# similarity


def vec(*counts):
    return np.array(counts, dtype=np.int64)


def test_similarity_identical_is_one():
    assert similarity(vec(3, 4, 0, 0), vec(3, 4, 0, 0)) == 1.0


def test_similarity_three_four_vs_zero():
    # distance sqrt(9 + 16) = 5 exactly
    assert similarity(vec(3, 4, 0, 0), vec(0, 0, 0, 0)) == 1.0 / 6.0


def test_similarity_symmetric_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = vec(*rng.integers(0, 20, size=6))
        v = vec(*rng.integers(0, 20, size=6))
        assert similarity(u, v) == similarity(v, u)
        assert 0.0 < similarity(u, v) <= 1.0


def test_similarity_dimension_mismatch():
    with pytest.raises(RejectedInputError, match="dimension mismatch"):
        similarity(vec(1, 2), vec(1, 2, 3))


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
    return np.random.default_rng(seed).integers(0, 10, size=(n, 6))


def test_full_budget_n3_nine_entries():
    m = compute_usm(demo_vectors(3), budget=None)
    assert len(m.computed_indices) == 9
    for k in range(1, 4):
        assert m.get(flat_index(k, k, 3)) == 1.0
        for l in range(1, 4):
            assert m.get(flat_index(k, l, 3)) == m.get(flat_index(l, k, 3))
            assert m.get(flat_index(k, l, 3)) is not None


def test_budget_two_of_n4_fills_two_pairs():
    m = compute_usm(demo_vectors(4), budget=2)
    assert m.off_diagonal_pair_count() == 2
    # pairs (1,2) and (1,3), their mirrors, and diagonals of users 1..3
    assert m.computed_indices == [1, 2, 3, 5, 6, 9, 11]
    assert m.get(flat_index(4, 4, 4)) is None


def test_budget_zero_all_null():
    m = compute_usm(demo_vectors(3), budget=0)
    assert m.computed_indices == []
    assert all(m.get(j) is None for j in range(1, 10))


def test_budget_counts_pairs_exactly():
    vecs = demo_vectors(5)
    for b in range(0, 12):
        m = compute_usm(vecs, budget=b)
        assert m.off_diagonal_pair_count() == min(b, 10)


def test_full_budget_matches_all_pairs_oracle():
    vecs = demo_vectors(6, seed=9)
    m = compute_usm(vecs, budget=None)
    n = len(vecs)
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if k == l:
                want = 1.0
            else:
                d = math.sqrt(
                    sum(int(a - b) ** 2
                        for a, b in zip(vecs[k - 1], vecs[l - 1]))
                )
                want = 1.0 / (1.0 + d)
            assert m.get(flat_index(k, l, n)) == want


def test_compute_usm_rejects_bad_budget_and_empty():
    with pytest.raises(RejectedInputError):
        compute_usm(demo_vectors(3), budget=-1)
    for empty in (np.zeros((0, 6)), np.zeros((3, 0))):
        with pytest.raises(RejectedInputError, match="not a non-empty 2-D matrix"):
            compute_usm(empty, budget=None)
    # one user's vector alone is not a matrix of users
    with pytest.raises(RejectedInputError, match=r"shape \(6,\)"):
        compute_usm(np.ones(6, dtype=np.int64))


def test_mining_and_packing_find_a_user_by_the_same_row():
    """Users 1 and 3 hold identical rows: mining scores them 1.0, and
    packing puts them in one cluster."""
    vecs = np.array([[4, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 9], [4, 0, 0, 0, 0, 0]])
    assert compute_usm(vecs).get(flat_index(1, 3, 3)) == 1.0
    mempool = [tx(i, user, "A") for i, user in enumerate((2, 1, 3), 1)]
    clusters = cluster_mempool(mempool, vecs, k=2)
    assert sorted(cl.users for cl in clusters) == [(1, 3), (2,)]


def test_matrix_entry_validation():
    m = SimilarityMatrix(owner=1, n_users=3)
    with pytest.raises(RejectedInputError):
        m.set_entry(1, 1.5)
    with pytest.raises(RejectedInputError):
        m.set_entry(10, 0.5)
    with pytest.raises(RejectedInputError):
        m.get(0)


# ---------------------------------------------------------------------------
# compressed-row serialization


def test_crs_roundtrip_partial_matrix():
    m = compute_usm(demo_vectors(5, seed=7), budget=4, owner=3)
    raw = m.crs_bytes()
    assert len(raw) == 8 + 16 * len(m.computed_indices)
    back = SimilarityMatrix.from_crs_bytes(raw)
    assert back.owner == 3
    assert back.n_users == 5
    assert back.computed_indices == m.computed_indices
    for j in m.computed_indices:
        assert back.get(j) == m.get(j)


def test_crs_triples_row_major_order():
    m = compute_usm(demo_vectors(4), budget=2)
    raw = m.crs_bytes()
    flats = [flat_index(r, c, 4) for r, c, _v in struct.iter_unpack("<IId", raw[8:])]
    assert flats == m.computed_indices  # sorted, one triple per entry
    # the reader refuses entries out of row-major order
    assert SimilarityMatrix.from_crs_bytes(raw).computed_indices == flats


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
    assert back.computed_indices == [1, 9]
    assert (back.get(1), back.get(9)) == (1.0, 0.0)
    empty = SimilarityMatrix.from_crs_bytes(crs_matrix_blob([], owner=2, n=4))
    assert (empty.owner, empty.n_users, empty.computed_indices) == (2, 4, [])


# ---------------------------------------------------------------------------
# package layout


def test_package_attributes_are_the_submodules():
    # a package-level re-export of the function ``similarity`` would shadow
    # the submodule, and ``import pous.similarity as m`` would bind it
    import pous

    for name in ("bts", "cli", "committee", "errors", "garbled", "packing", "round",
                 "similarity", "simnet"):
        module = importlib.import_module(f"pous.{name}")
        assert getattr(pous, name) is module
    import pous.similarity as m

    assert isinstance(m, types.ModuleType)


# public names whose only callers are tests, each kept for a reason
TEST_ONLY_NAMES = {
    "expected_scores",  # criterion 6
    "strategy_scores",  # criterion 6
    "run_round",  # the library round: demo 04 runs it, the differential tests check it
}


def test_every_public_name_has_a_caller_outside_the_tests():
    """Every public function, class and method of ``src/pous``, and every
    public module-level constant (an UPPER_CASE assignment), is named
    somewhere in ``src/`` or ``perfbench/`` besides its own definition:
    as a name read, an attribute or an import. A demo does not count,
    since a name only a demo reads serves no round, simulation or
    workload."""
    root = Path(__file__).resolve().parent.parent
    used = set()
    for path in [p for d in ("src", "perfbench") for p in (root / d).rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    defined = {}  # qualified name -> the name a caller writes
    for path in (root / "src" / "pous").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                defined[node.name] = node.name
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and sub.name[0] != "_":
                        defined[f"{node.name}.{sub.name}"] = sub.name
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper() and target.id[0] != "_":
                    defined[target.id] = target.id
    assert {full for full, name in defined.items() if name not in used} == TEST_ONLY_NAMES


# imported names that nothing in their module reads, each kept for a reason
UNREAD_IMPORTS = {
    # the benchmark's tracer patches simnet.kmeans, until the tracer
    # patches packing.kmeans alone (ROADMAP item 8)
    "src/pous/simnet.py: kmeans",
}


def test_every_imported_name_is_read():
    """Every name an import binds in ``src/pous``, ``tests`` or ``demos``
    is read in the same module, so an import whose use went away goes
    with it. ``import a.b`` binds ``a``."""
    root = Path(__file__).resolve().parent.parent
    unread = set()
    for path in [p for d in ("src/pous", "tests", "demos") for p in (root / d).glob("*.py")]:
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread |= {f"{path.relative_to(root).as_posix()}: {name}" for name in bound - read}
    assert unread == UNREAD_IMPORTS


def test_every_stored_attribute_is_read_outside_the_tests():
    """Every ``self.<name>`` a class of ``src/pous`` stores is read as
    ``.<name>`` somewhere in ``src/`` or ``perfbench/``: no object keeps
    a counter that only tests or demos look at."""
    root = Path(__file__).resolve().parent.parent
    read = {node.attr
            for path in [p for d in ("src", "perfbench") for p in (root / d).rglob("*.py")]
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = set()
    for path in (root / "src" / "pous").glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                unread |= {f"{cls.name}.{node.attr}" for node in ast.walk(cls)
                           if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                           and isinstance(node.value, ast.Name) and node.value.id == "self"
                           and node.attr not in read}
    assert unread == set()
