"""One library round, whose messages between parties cross as bytes.

:func:`vote` is the voting step: matrices cross as ``crs_bytes``, each
candidate's comparator as its serialized circuit, and each voter's votes
on a candidate as a ``votes_to_crs`` blob; every receiver reads them
back. :func:`run_round` runs the whole round around it: mining, voting,
committee agreement, packing and verification.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from . import garbled
from .bts import (TallyResult, VoteRecord, _voted_entries, cast_votes, tally, votes_from_crs,
                  votes_to_crs)
from .committee import CommitteeConfig, Decision, agree, select_committee, verify_block
from .packing import Block, PriorityWeights, cluster_mempool, pack_block, tx_priority
from .similarity import DataView, SimilarityMatrix, build_user_vectors, compute_usm

WEIGHTS = PriorityWeights()


def vote(matrices: Mapping[int, SimilarityMatrix], theta: float, seeds: Mapping[int, int],
         ot=None) -> tuple[list[VoteRecord], TallyResult, dict[str, int]]:
    """Every miner votes on every other miner's matrix, and the votes are
    tallied over the matrices as their receivers read them. Candidate c
    garbles one comparator from ``seeds[c]`` for all its voters, if it
    computed an off-diagonal entry; a candidate that computed none gets
    no circuit and no vote. A voter compares each user pair once and
    reuses the verdict on the mirror slot (:func:`~pous.bts.cast_votes`).
    The OT defaults to the trusted dealer. Returns the records the tally
    read, the tally, and the bytes moved by kind: ``matrix`` (each to
    every other miner), ``circuit`` (each to every voter), ``labels``
    (the generator's active labels, per comparison), ``ot`` (the
    transcripts, one batch per comparison) and ``votes`` (a blob per
    voter on each candidate that got a circuit)."""
    sent = dict.fromkeys(("matrix", "circuit", "labels", "ot", "votes"), 0)
    received = {}
    for owner, matrix in matrices.items():
        raw = matrix.crs_bytes()
        sent["matrix"] += len(raw) * (len(matrices) - 1)
        received[owner] = SimilarityMatrix.from_crs_bytes(raw)
    width = garbled.DEFAULT_BITWIDTH
    templates = {c: garbled.garble_comparator(width, theta, seeds[c])
                 for c in matrices if _voted_entries(received[c])}
    # serialized once per candidate; each voter reads its own copy back off the bytes
    shipped = {c: template.circuit.serialize() for c, template in templates.items()}
    records = []
    for voter in matrices:
        for cand, template in templates.items():
            if cand == voter:
                continue
            raw = shipped[cand]
            sent["circuit"] += len(raw)
            copy = replace(template, circuit=garbled.GarbledCircuit.deserialize(raw))

            def compare(cand_value: float, own_value: float) -> int:
                bit, transcript = garbled._compare(copy, cand_value, own_value, ot)
                sent["labels"] += width * garbled.LABEL_BYTES
                sent["ot"] += transcript.total_bytes()
                return bit

            votes = cast_votes(matrices[voter], received[cand], compare)
            blob = votes_to_crs(votes, matrices[voter].n_users)
            sent["votes"] += len(blob)
            records.extend(votes_from_crs(blob, received[cand]))
    n_users = next(iter(matrices.values())).n_users
    return records, tally(records, len(matrices), n_users, received), sent


@dataclass
class Round:
    """What one round produced; ``block`` is None if the leader's mempool is empty."""

    records: list[VoteRecord]
    tally: TallyResult
    sent: dict[str, int]
    decision: Decision
    block: Optional[Block] = None
    verdict: tuple[bool, str] = (False, "no block")


def run_round(views: Mapping[int, DataView], n_users: int, budgets: Mapping[int, int],
              seeds: Mapping[int, int], theta: float, committee: CommitteeConfig,
              capacity: int, now: float, ot=None) -> Round:
    """Round 0 among the miners that key ``views``, in protocol order:
    each mines its view at its budget; all vote (:func:`vote`); the
    committee agrees on the tally, which every member computed alike;
    the leader clusters its mempool and packs a block; a member other
    than the leader checks it against the priorities of its own view,
    so a transaction that member never saw fails the check."""
    vectors = {m: build_user_vectors(view, n_users) for m, view in views.items()}
    matrices = {m: compute_usm(vectors[m], budget=budgets[m], owner=m) for m in views}
    records, result, sent = vote(matrices, theta, seeds, ot)
    members = select_committee(list(views), committee, 0)
    decision = agree(dict.fromkeys(members, result), committee.size)
    out = Round(records, result, sent, decision)
    leader, mempool = decision.leader, views[decision.leader].mempool
    if not mempool:
        return out
    lookup = {tx.id: tx for view in views.values() for tx in view.mempool}
    # the round stands alone, so its block follows a zero hash
    out.block = pack_block(cluster_mempool(mempool, vectors[leader]), WEIGHTS, capacity, now,
                           bytes(32), lookup, producer=leader)
    checker = next((m for m in members if m != leader), leader)
    own = views[checker].mempool
    clusters = cluster_mempool(own, vectors[checker]) if own else []
    snapshot = {tid: tx_priority(lookup[tid], now, cl, WEIGHTS)
                for cl in clusters for tid in cl.tx_ids}
    out.verdict = verify_block(out.block, decision, snapshot)
    return out
