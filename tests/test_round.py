"""The library round: its messages as bytes, and the round's order of steps."""
import numpy as np
import pytest

from pous import garbled
from pous.bts import cast_votes, score_sheet, tally
from pous.committee import CommitteeConfig
from pous.errors import RejectedInputError
from pous.garbled import (
    DEFAULT_GROUP,
    DiffieHellmanOT,
    FixedPoint,
    comparator_size,
    plain_within_theta,
)
from pous.round import run_round, vote
from pous.simnet import SimConfig, _crypto_round_costs
from pous.similarity import DataView, Transaction, build_user_vectors, compute_usm


def test_vote_bytes_rebuild_the_in_process_round():
    """Five miners on budgets 3, 15, 8, 1 and 10 of six users' 15 pairs:
    the records the tally reads back from the vote blobs, the tally and
    every voter's score sheet equal those of the round run in process.
    The blobs hold two bits per pair, so the reader must rebuild both
    slots of every pair, abstentions included, for the scores to match."""
    rng = np.random.default_rng(4)
    n, theta = 6, 0.01
    vecs = rng.integers(0, 8, size=(n, 6))
    mats = {i: compute_usm(vecs, budget=b, owner=i) for i, b in enumerate((3, 15, 8, 1, 10), 1)}
    records, result, sent = vote(mats, theta, seeds={c: c for c in mats})

    def compare(a, b):  # the cleartext comparator, at the vote's default width
        return plain_within_theta(*(FixedPoint.encode(v, garbled.DEFAULT_BITWIDTH).raw
                                    for v in (a, b, theta)))

    local = [r for v in mats for c in mats if v != c for r in cast_votes(mats[v], mats[c], compare)]
    assert records == local
    assert sum(not r.valid for r in records) > 0
    assert result == tally(local, len(mats), n, mats)
    assert result.digest() == tally(local, len(mats), n, mats).digest()
    for voter in mats:
        assert score_sheet(voter, records, len(mats), n) == score_sheet(voter, local, len(mats), n)
    # each matrix to four receivers, 16 B per pair; a vote blob per
    # (voter, candidate) pair, two bitmaps of a bit per candidate pair
    budgets = (3, 15, 8, 1, 10)
    assert sent["matrix"] == 4 * sum(8 + 16 * b for b in budgets) == 4 * 16 * 37 + 4 * 40
    assert sent["votes"] == 4 * sum(16 + 2 * -(-b // 8) for b in budgets) == 4 * 94
    assert sent["circuit"] == 20 * comparator_size(16)[1]


def test_round_bytes_match_the_cost_model():
    """Four miners with a budget of one pair each compare 24 times over
    Diffie-Hellman OT. The circuits, generator labels and OT transcripts
    the round moves are the bytes the simulator charges a round at a
    rotation period of one."""
    n_users, miners = 4, (1, 2, 3, 4)
    rng = np.random.default_rng(8)
    mempool = tuple(
        Transaction(id=i, source_user=int(rng.integers(1, n_users + 1)),
                    tx_class="ABCDEF"[int(rng.integers(6))], fee=float(rng.uniform(0, 1e-3)),
                    submit_time=float(rng.uniform(0, 50)))
        for i in range(1, 31))
    budgets = dict.fromkeys(miners, 1)
    out = run_round(dict.fromkeys(miners, DataView((), mempool)), n_users, budgets,
                    seeds={m: m for m in miners}, theta=0.05,
                    committee=CommitteeConfig(size=4, selection_seed=3), capacity=12,
                    now=60.0, ot=DiffieHellmanOT(DEFAULT_GROUP))

    assert sum(r.valid for r in out.records) == 24
    config = SimConfig(n_nodes=4, rotation_period=1)
    model_bytes = _crypto_round_costs(np.array(list(budgets.values())), config)[2]
    sent = out.sent
    assert sent["circuit"] + sent["labels"] + sent["ot"] == model_bytes
    # a matrix holds its one pair once: 8 + 16 B, to each of three
    # receivers; a vote blob is 16 B and two one-byte bitmaps
    assert sent["matrix"] == 4 * 3 * (8 + 16) == 288
    assert sent["votes"] == 12 * (16 + 2) == 216
    assert out.decision is not None and out.block.header.producer == out.tally.leader
    assert out.verdict == (True, "")


def test_vote_bytes_match_the_cost_model_with_an_idle_miner():
    """Budgets 2, 0, 3 and 1 over four users at a rotation period of one:
    the idle miner ships no circuit and is compared on nothing, and the
    circuits, generator labels and OT transcripts the vote moves are
    the bytes the simulator charges."""
    rng = np.random.default_rng(6)
    vecs = rng.integers(0, 8, size=(4, 6))
    budgets = (2, 0, 3, 1)
    mats = {i: compute_usm(vecs, budget=b, owner=i) for i, b in enumerate(budgets, 1)}
    _, _, sent = vote(mats, 0.05, seeds={c: c for c in mats}, ot=DiffieHellmanOT(DEFAULT_GROUP))

    assert sent["circuit"] == 9 * comparator_size(16)[1]
    model_bytes = _crypto_round_costs(np.array(budgets), SimConfig(n_nodes=4, rotation_period=1))[2]
    assert sent["circuit"] + sent["labels"] + sent["ot"] == model_bytes


@pytest.mark.parametrize("miners", [(), (1,)], ids=["none", "one"])
def test_a_round_of_fewer_than_two_miners_is_refused(monkeypatch, miners):
    """With fewer than two miners nobody votes: the vote and the round
    refuse them by name before any miner mines or garbles."""
    mined = []
    monkeypatch.setattr(garbled, "garble_comparator", lambda *args: pytest.fail("garbled"))
    monkeypatch.setattr("pous.round.compute_usm", lambda *args, **kw: mined.append(1))
    view = DataView((), (Transaction(id=1, source_user=1, tx_class="A", fee=0.0),))
    mats = {m: compute_usm(np.ones((3, 6), dtype=np.int64), owner=m) for m in miners}
    with pytest.raises(RejectedInputError, match=f"at least two miners, got {len(miners)}"):
        vote(mats, 0.05, seeds=dict.fromkeys(miners, 1))
    with pytest.raises(RejectedInputError, match=f"at least two miners, got {len(miners)}"):
        run_round(dict.fromkeys(miners, view), 3, dict.fromkeys(miners, 1),
                  seeds=dict.fromkeys(miners, 1), theta=0.05,
                  committee=CommitteeConfig(size=4, selection_seed=3), capacity=1, now=1.0)
    assert mined == []


def test_a_member_that_never_saw_a_packed_transaction_rejects_the_block():
    """Each miner misses a different transaction, and the block holds the
    leader's whole mempool: the committee member that checks it computes
    its priorities from its own view, so it finds a transaction it never
    saw."""
    n_users, miners = 4, (1, 2, 3, 4)
    mempool = tuple(Transaction(id=i, source_user=1 + i % n_users, tx_class="ABCDEF"[i % 6],
                                fee=1e-4 * i, submit_time=float(i)) for i in range(1, 11))
    views = {m: DataView((), tuple(tx for tx in mempool if tx.id != m)) for m in miners}
    out = run_round(views, n_users, dict.fromkeys(miners, 1), seeds={m: m for m in miners},
                    theta=0.05, committee=CommitteeConfig(size=4, selection_seed=3),
                    capacity=len(mempool), now=20.0)

    assert len(out.block.body) == len(mempool) - 1
    assert out.verdict[0] is False
    assert "not in mempool snapshot" in out.verdict[1]


def test_a_mempool_that_lists_a_transaction_twice_is_refused(monkeypatch):
    """Six miners each list transaction 7 twice in a mempool of 39: the
    leader would pack it twice into a block of capacity 40, which the
    round's own check rejects, and every tally would count it twice, so
    the round refuses the views before any miner mines or votes."""
    n_users, miners = 5, range(1, 7)
    mempool = tuple(Transaction(id=i, source_user=1 + i % n_users, tx_class="ABCDEF"[i % 6],
                                fee=1e-4 * i, submit_time=float(i)) for i in range(1, 40))
    views = {m: DataView((), mempool + (mempool[6],)) for m in miners}
    evaluated = []
    live_eval = garbled.eval_circuit
    monkeypatch.setattr(garbled, "eval_circuit",
                        lambda *args: evaluated.append(1) or live_eval(*args))
    with pytest.raises(RejectedInputError, match="transaction 7 is listed twice in the mempool"):
        run_round(views, n_users, dict.fromkeys(miners, 2), seeds={m: m for m in miners},
                  theta=0.05, committee=CommitteeConfig(size=4, selection_seed=3),
                  capacity=40, now=50.0)
    assert evaluated == []  # no garbled comparison ran
    # a view whose history repeats a transaction of its mempool counts it twice too
    with pytest.raises(RejectedInputError, match="transaction 7 is listed twice in the mempool"):
        build_user_vectors(DataView((mempool[6],), mempool), n_users)
    # the same views without the repeat run the round, comparisons and all
    views = {m: DataView((), mempool) for m in miners}
    run_round(views, n_users, dict.fromkeys(miners, 2), seeds={m: m for m in miners},
              theta=0.05, committee=CommitteeConfig(size=4, selection_seed=3),
              capacity=40, now=50.0)
    assert evaluated
