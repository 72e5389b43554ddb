"""User vectors and best-effort user similarity matrices (USMs).

Mining here is statistics, not hashing: a miner tallies how many
transactions each user issued per behaviour class over its current data
view (recent committed blocks plus its mempool), turning every
user into a count vector. It then fills a user-by-user similarity matrix
pair by pair until its per-round budget runs out. Entries it never
reached stay null; a partially filled matrix is still a valid mining
product and is exactly what gets voted on later.

Similarity between two users is ``1 / (1 + euclidean_distance)``, which
maps identical vectors to 1 and decays smoothly toward 0. The matrix is
stored flat: the pair (k, l) of an n-user system lives at 1-based slot
``(k - 1) * n + l``.
"""
from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import RejectedInputError

#: The behaviour classes a transaction may belong to.
DEFAULT_CLASSES: tuple[str, ...] = ("A", "B", "C", "D", "E", "F")


@dataclass(frozen=True)
class Transaction:
    """One transaction as seen by miners and block packers."""

    id: int
    source_user: int  # 1-based user index
    tx_class: str
    fee: float
    size_bytes: int = 250
    submit_time: float = 0.0

    def __post_init__(self):
        if self.fee < 0:
            raise RejectedInputError(f"negative fee {self.fee} on tx {self.id}")
        if self.size_bytes <= 0:
            raise RejectedInputError(f"non-positive size on tx {self.id}")
        if self.source_user < 1:
            raise RejectedInputError(f"source_user must be 1-based, got {self.source_user}")


@dataclass(frozen=True)
class DataView:
    """What one miner can see: recent committed history plus its mempool.

    ``history`` holds the transactions of the committed blocks the miner
    still counts (an empty chain gives an empty history).
    """

    history: tuple[Transaction, ...]
    mempool: tuple[Transaction, ...]

    def __iter__(self) -> Iterator[Transaction]:
        yield from self.history
        yield from self.mempool


@dataclass(frozen=True)
class UserVector:
    """Per-class transaction counts for one user."""

    user: int  # 1-based
    counts: np.ndarray

    def __post_init__(self):
        if np.any(self.counts < 0):
            raise RejectedInputError(f"negative count in vector of user {self.user}")


def refuse_repeated_transactions(txs: Iterable[Transaction]) -> None:
    """Refuse a mempool, or a view of one, that lists a transaction id
    twice: its tallies would count the transaction twice, and a block
    packed from it would list it twice. One set build on the ids."""
    ids = [tx.id for tx in txs]
    if len(set(ids)) < len(ids):
        twice = next(tid for tid, count in Counter(ids).items() if count > 1)
        raise RejectedInputError(f"transaction {twice} is listed twice in the mempool")


def build_user_vectors(view: DataView, n_users: int) -> list[UserVector]:
    """Tally the view into one count vector per user (users 1..n_users).

    Rejects a view that lists a transaction twice
    (:func:`refuse_repeated_transactions`), and transactions whose class
    is not in ``DEFAULT_CLASSES`` or whose source user falls outside
    1..n_users.
    """
    if n_users < 1:
        raise RejectedInputError(f"n_users must be >= 1, got {n_users}")
    refuse_repeated_transactions(view)
    index = {c: i for i, c in enumerate(DEFAULT_CLASSES)}
    counts = np.zeros((n_users, len(DEFAULT_CLASSES)), dtype=np.int64)
    for tx in view:
        ci = index.get(tx.tx_class)
        if ci is None:
            raise RejectedInputError(f"unknown class {tx.tx_class!r} on tx {tx.id}")
        if not 1 <= tx.source_user <= n_users:
            raise RejectedInputError(
                f"tx {tx.id} from user {tx.source_user} outside 1..{n_users}"
            )
        counts[tx.source_user - 1, ci] += 1
    return [UserVector(u + 1, counts[u]) for u in range(n_users)]


def similarity(u: UserVector, v: UserVector) -> float:
    """Similarity ``1 / (1 + ||u - v||_2)``, in (0, 1]."""
    if u.counts.shape != v.counts.shape:
        raise RejectedInputError(
            f"dimension mismatch: {u.counts.shape} vs {v.counts.shape}"
        )
    d = math.sqrt(float(np.sum((u.counts - v.counts) ** 2)))
    return 1.0 / (1.0 + d)


def flat_index(k: int, l: int, n: int) -> int:
    """1-based flat slot of pair (k, l) in an n-user matrix."""
    if not (1 <= k <= n and 1 <= l <= n):
        raise RejectedInputError(f"pair ({k}, {l}) outside 1..{n}")
    return (k - 1) * n + l


def unflatten_index(j: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`flat_index`."""
    if not 1 <= j <= n * n:
        raise RejectedInputError(f"flat index {j} outside 1..{n * n}")
    return (j - 1) // n + 1, (j - 1) % n + 1


def pair_sequence(n: int) -> Iterator[tuple[int, int]]:
    """Unordered pairs in row-major order: (1,2), (1,3), ... (2,3), ..."""
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            yield k, l


@dataclass
class SimilarityMatrix:
    """Flat n*n similarity table with null (never-computed) entries.

    Conceptually a flat array of length ``n_users ** 2`` where slot j
    holds either a similarity in [0, 1] or null; storage is sparse so
    heavily budget-limited matrices stay small.
    """

    owner: int  # 1-based miner index
    n_users: int
    _cells: dict[int, float] = field(default_factory=dict)

    def get(self, j: int) -> Optional[float]:
        if not 1 <= j <= self.n_users * self.n_users:
            raise RejectedInputError(f"flat index {j} outside matrix")
        return self._cells.get(j)

    def set_entry(self, j: int, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise RejectedInputError(f"similarity {value} outside [0, 1]")
        if not 1 <= j <= self.n_users * self.n_users:
            raise RejectedInputError(f"flat index {j} outside matrix")
        self._cells[j] = value

    @property
    def computed_indices(self) -> list[int]:
        """Sorted 1-based flat indices of non-null entries."""
        return sorted(self._cells)

    def off_diagonal_pair_count(self) -> int:
        n = self.n_users
        cnt = 0
        for j in self._cells:
            k, l = unflatten_index(j, n)
            if k < l:
                cnt += 1
        return cnt

    def crs_bytes(self) -> bytes:
        """Compressed-row serialization: u32 row, u32 col, f64 value, one
        triple per non-null entry in row-major order."""
        n = self.n_users
        parts = [struct.pack("<II", self.owner, n)]
        for j in sorted(self._cells):
            parts.append(struct.pack("<IId", *unflatten_index(j, n), self._cells[j]))
        return b"".join(parts)

    @classmethod
    def from_crs_bytes(cls, raw: bytes) -> "SimilarityMatrix":
        """Inverse of :meth:`crs_bytes`. Refuses what it never writes: an
        owner of 0, zero users, a row or column outside 1..n, a value
        outside [0, 1], and entries that repeat or are out of row-major
        order."""
        if len(raw) < 8 or (len(raw) - 8) % 16:
            raise RejectedInputError("truncated compressed-row payload")
        owner, n = struct.unpack_from("<II", raw, 0)
        if owner < 1 or n < 1:
            raise RejectedInputError(f"matrix of owner {owner} over {n} users: "
                                     "the owner is 1-based and n at least 1")
        m = cls(owner=owner, n_users=n)
        prev = (0, 0)
        for row, col, val in struct.iter_unpack("<IId", raw[8:]):
            if (row, col) <= prev:
                raise RejectedInputError(f"entry ({row}, {col}) does not come after {prev}: "
                                         "each entry is written once, in row-major order")
            m.set_entry(flat_index(row, col, n), val)
            prev = (row, col)
        return m


def compute_usm(
    vectors: list[UserVector],
    budget: Optional[int] = None,
    owner: int = 1,
) -> SimilarityMatrix:
    """Fill a similarity matrix pair by pair under a computation budget.

    Pairs are visited in row-major unordered order; each computed pair
    fills both (k, l) and (l, k) slots, and every user visited by at
    least one computed pair gets its diagonal slot set to 1. A budget of
    0 yields an all-null matrix; a budget of None (or any budget at
    least the pair count) fills the matrix completely.
    """
    n = len(vectors)
    if n == 0:
        raise RejectedInputError("no user vectors")
    if budget is not None and budget < 0:
        raise RejectedInputError(f"negative budget {budget}")
    dim = vectors[0].counts.shape
    for v in vectors:
        if v.counts.shape != dim:
            raise RejectedInputError("inconsistent vector dimensions")
    m = SimilarityMatrix(owner=owner, n_users=n)
    visited: set[int] = set()
    remaining = math.inf if budget is None else budget
    for k, l in pair_sequence(n):
        if remaining <= 0:
            break
        s = similarity(vectors[k - 1], vectors[l - 1])
        m.set_entry(flat_index(k, l, n), s)
        m.set_entry(flat_index(l, k, n), s)
        visited.add(k)
        visited.add(l)
        remaining -= 1
    for u in visited:
        m.set_entry(flat_index(u, u, n), 1.0)
    return m
