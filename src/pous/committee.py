"""Vote counting committee: selection, timers, agreement, verification.

A small committee is sampled from the miner population each rotation.
It folds the tallies into a single decision once more than two thirds
of the members report the same (leader, global-best digest) pair, and
finally re-checks the leader's block against the packing rules. A
round with no quorum aborts and is retried; that keeps liveness without
pretending the committee can conjure agreement out of conflicting
views.
"""
from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .bts import TallyResult
from .errors import ConfigurationError, MalformedFlagError, RejectedInputError
from .packing import Block, cluster_sizes, decode_flag, merkle_root


@dataclass(frozen=True)
class CommitteeConfig:
    size: int
    selection_seed: int = 0
    rotation_period: int = 1

    def __post_init__(self):
        if self.size < 4:
            raise ConfigurationError(f"committee size {self.size} is below 4 members")
        if self.rotation_period < 1:
            raise ConfigurationError(
                f"rotation_period must be at least 1 round, got {self.rotation_period}")


@dataclass(frozen=True)
class RoundTimers:
    """Deadlines of one round, in simulation seconds."""

    mining_deadline: float
    voting_deadline: float
    result_waiting_deadline: float

    def __post_init__(self):
        if not self.mining_deadline < self.voting_deadline < self.result_waiting_deadline:
            raise ConfigurationError("round deadlines must be strictly increasing")

    @classmethod
    def split_interval(cls, start: float, interval: float) -> "RoundTimers":
        """Carve one block interval into mining, voting, and counting:
        60% mining, 25% voting, and a 15% submission window before the
        interval ends."""
        return cls(
            mining_deadline=start + 0.6 * interval,
            voting_deadline=start + 0.85 * interval,
            result_waiting_deadline=start + interval,
        )


def quorum_threshold(size: int) -> int:
    """Smallest member count that is strictly more than two thirds."""
    return (2 * size) // 3 + 1


def select_committee(
    miners: Sequence[int],
    config: CommitteeConfig,
    round_index: int,
) -> tuple[int, ...]:
    """Seeded uniform sample, frozen for a whole rotation period.

    The committee is a deterministic function of (seed, rotation), so
    every simulated node derives the same member set without any
    coordination messages.
    """
    if config.size > len(miners):
        raise ConfigurationError(
            f"committee size {config.size} exceeds {len(miners)} miners"
        )
    rotation = round_index // config.rotation_period
    material = sha256(
        f"committee|{config.selection_seed}|{rotation}".encode()
    ).digest()
    rng = np.random.default_rng(int.from_bytes(material[:8], "big"))
    # draw indices: the same members as drawing from the ids, without
    # converting the id list to an array on every call
    picked = rng.choice(len(miners), size=config.size, replace=False)
    return tuple(sorted(int(miners[i]) for i in picked))


@dataclass(frozen=True)
class Decision:
    """Committed outcome of one round's agreement."""

    round_index: int
    leader: int
    quorum_count: int
    digest: str


Submission = Union[TallyResult, tuple]


def _normalize(sub: Submission) -> tuple[int, str]:
    if isinstance(sub, TallyResult):
        return sub.leader, sub.digest()
    if isinstance(sub, tuple) and len(sub) == 2:
        leader, digest = sub
        if type(leader) is int and isinstance(digest, str):
            return leader, digest
    raise RejectedInputError("submission must be a tally or an (int leader, str digest) pair")


def agree(
    submissions: Mapping[int, Submission],
    size: int,
    round_index: int = 0,
) -> Optional[Decision]:
    """Quorum matching on the (leader, global-best digest) pair.

    Stands in for a local PBFT run: a value commits once strictly more
    than two thirds of the committee reports it; otherwise the round
    aborts (returns None). Each member gets one submission; Byzantine
    members may submit anything. With at most ``size`` submissions, two
    values cannot both reach the quorum.
    """
    if size < 4:
        raise ConfigurationError("committee needs at least 4 members")
    if len(submissions) > size:
        raise RejectedInputError("more submissions than committee members")
    votes: dict[tuple[int, str], int] = {}
    for sub in submissions.values():
        key = _normalize(sub)
        votes[key] = votes.get(key, 0) + 1

    needed = quorum_threshold(size)
    for (leader, digest), count in votes.items():
        if count >= needed:
            return Decision(round_index=round_index, leader=leader,
                            quorum_count=count, digest=digest)
    return None


def verify_block(
    block: Block,
    decision: Decision,
    snapshot_priorities: Mapping[int, float],
) -> tuple[bool, str]:
    """Committee-side acceptance check of the leader's block.

    Accepts iff the producer matches the decided leader, the body fits
    the header's capacity, the flag parses and its cluster sizes cover
    the body, every transaction was in the declared mempool snapshot
    and is listed once, the body is the snapshot's top
    ``min(capacity, len(snapshot))`` by priority, priorities never
    increase inside a cluster segment, and segment leads are themselves
    ordered. The priorities are the committee's own recomputation, so a
    lying leader cannot smuggle a reordering or a worse pick past the
    check.
    """
    if block.header.producer != decision.leader:
        return False, (
            f"producer {block.header.producer} is not leader {decision.leader}"
        )
    # the flag bounds only cluster starts, so the last segment could run on
    if len(block.body) > block.header.capacity:
        return False, (
            f"body of {len(block.body)} transactions exceeds capacity {block.header.capacity}"
        )
    try:
        offsets = decode_flag(block.header)
        sizes = cluster_sizes(offsets, len(block.body))
    except MalformedFlagError as exc:
        return False, f"malformed flag: {exc}"
    if merkle_root(block.body) != block.header.merkle_root:
        return False, "merkle root mismatch"
    missing = [tx.id for tx in block.body if tx.id not in snapshot_priorities]
    if missing:
        return False, f"transactions {missing[:5]} not in mempool snapshot"
    if len({tx.id for tx in block.body}) != len(block.body):
        return False, "a transaction is listed twice"
    top = sorted(snapshot_priorities.values(), reverse=True)[:block.header.capacity]
    packed = sorted((snapshot_priorities[tx.id] for tx in block.body), reverse=True)
    if len(packed) != len(top) or any(p < t - 1e-9 for p, t in zip(packed, top)):
        return False, f"body is not the snapshot's top {len(top)} by priority"

    pos = 0
    segment_heads = []
    for seg in sizes:
        seg_txs = block.body[pos:pos + seg]
        pos += seg
        prios = [snapshot_priorities[tx.id] for tx in seg_txs]
        if any(prios[i] < prios[i + 1] - 1e-9 for i in range(len(prios) - 1)):
            return False, "priorities increase inside a cluster segment"
        segment_heads.append(prios[0])
    if any(
        segment_heads[i] < segment_heads[i + 1] - 1e-9
        for i in range(len(segment_heads) - 1)
    ):
        return False, "cluster segments out of priority order"
    return True, ""
