"""User vectors and best-effort user similarity matrices (USMs).

Mining here is statistics, not hashing: a miner tallies how many
transactions each user issued per behaviour class over its current data
view (recent committed blocks plus its mempool) into one count matrix,
a column per class, where mining and block packing both read row u - 1
as user u's vector. It then fills a user-by-user similarity matrix
pair by pair until its per-round budget runs out. Entries it never
reached stay null; a partially filled matrix is still a valid mining
product and is exactly what gets voted on later.

Similarity between two users is ``1 / (1 + euclidean_distance)``, which
maps identical vectors to 1 and decays smoothly toward 0. Entries are
addressed flat: the pair (k, l) of an n-user system lives at 1-based
slot ``(k - 1) * n + l``. A matrix holds each computed pair once, under
its k < l slot, and reads it from either slot; no user is paired with
itself, so the diagonal stays null.
"""
from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
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


def refuse_repeated_transactions(txs: Iterable[Transaction]) -> None:
    """Refuse a mempool, or a view of one, that lists a transaction id
    twice: its tallies would count the transaction twice, and a block
    packed from it would list it twice. One set build on the ids."""
    ids = [tx.id for tx in txs]
    if len(set(ids)) < len(ids):
        twice = next(tid for tid, count in Counter(ids).items() if count > 1)
        raise RejectedInputError(f"transaction {twice} is listed twice in the mempool")


def build_user_vectors(view: DataView, n_users: int) -> np.ndarray:
    """Tally the view into an ``(n_users, len(DEFAULT_CLASSES))`` int64
    count matrix whose row u - 1 is user u's vector.

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
    return counts


def refuse_bad_counts(vectors) -> np.ndarray:
    """``vectors`` as an array, once it is a count matrix: 2-D, not empty,
    and no count negative. Mining and clustering both read it through here."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or vectors.size == 0:
        raise RejectedInputError(f"vectors of shape {vectors.shape}, not a non-empty 2-D matrix")
    negative = np.flatnonzero((vectors < 0).any(axis=1))
    if len(negative):
        raise RejectedInputError(f"negative count in vector of user {negative[0] + 1}")
    return vectors


def similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Similarity ``1 / (1 + ||u - v||_2)`` of two count rows, in (0, 1]."""
    if u.shape != v.shape:
        raise RejectedInputError(f"dimension mismatch: {u.shape} vs {v.shape}")
    d = math.sqrt(float(np.sum((u - v) ** 2)))
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


def mirror_slot(j: int, n: int) -> int:
    """Flat slot of (l, k) for the slot j of (k, l); a diagonal slot is
    its own mirror."""
    if not 1 <= j <= n * n:
        raise RejectedInputError(f"flat index {j} outside 1..{n * n}")
    k, l = divmod(j - 1, n)
    return l * n + k + 1


def pair_sequence(n: int) -> Iterator[tuple[int, int]]:
    """Unordered pairs in row-major order: (1,2), (1,3), ... (2,3), ..."""
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            yield k, l


@dataclass
class SimilarityMatrix:
    """n*n similarity table with null (never-computed) entries.

    Conceptually a flat array of length ``n_users ** 2`` where slot j
    holds either a similarity in [0, 1] or null. Storage keeps one value
    per computed pair, under its k < l slot, so (k, l) and (l, k) read
    the same value and heavily budget-limited matrices stay small.
    """

    owner: int  # 1-based miner index
    n_users: int
    _pairs: dict[int, float] = field(default_factory=dict)

    def get(self, j: int) -> Optional[float]:
        return self._pairs.get(min(j, mirror_slot(j, self.n_users)))

    def set_entry(self, j: int, value: float) -> None:
        """Set the pair that slot j holds, for both of its slots."""
        if not 0.0 <= value <= 1.0:
            raise RejectedInputError(f"similarity {value} outside [0, 1]")
        mirror = mirror_slot(j, self.n_users)
        if mirror == j:
            raise RejectedInputError(f"slot {j} is on the diagonal: no user is paired with itself")
        self._pairs[min(j, mirror)] = value

    @property
    def pair_slots(self) -> list[int]:
        """Sorted k < l slots of the computed pairs, one per pair."""
        return sorted(self._pairs)

    @property
    def computed_indices(self) -> list[int]:
        """Sorted 1-based flat indices of non-null entries: both slots of
        each computed pair."""
        return sorted([*self._pairs, *(mirror_slot(j, self.n_users) for j in self._pairs)])

    def off_diagonal_pair_count(self) -> int:
        return len(self._pairs)

    def crs_bytes(self) -> bytes:
        """Compressed-row serialization: u32 row, u32 col, f64 value, one
        triple per computed pair, row < col, in row-major order."""
        n = self.n_users
        parts = [struct.pack("<II", self.owner, n)]
        for j in self.pair_slots:
            parts.append(struct.pack("<IId", *unflatten_index(j, n), self._pairs[j]))
        return b"".join(parts)

    @classmethod
    def from_crs_bytes(cls, raw: bytes) -> "SimilarityMatrix":
        """Inverse of :meth:`crs_bytes`. Refuses what it never writes: an
        owner of 0, zero users, a row or column outside 1..n, a row not
        below its column, a value outside [0, 1], and entries that
        repeat or are out of row-major order."""
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
            if row >= col:
                raise RejectedInputError(f"entry ({row}, {col}) has row >= col: "
                                         "each pair is written once, as row < col")
            m.set_entry(flat_index(row, col, n), val)
            prev = (row, col)
        return m


def compute_usm(
    vectors: np.ndarray,
    budget: Optional[int] = None,
    owner: int = 1,
) -> SimilarityMatrix:
    """Fill a similarity matrix pair by pair under a computation budget.

    ``vectors`` is a count matrix as :func:`build_user_vectors` returns
    it; :func:`refuse_bad_counts` refuses anything else.
    Pairs are visited in row-major unordered order, each computed once.
    A budget of 0 yields an all-null matrix; a budget of None (or any
    budget at least the pair count) fills every pair.
    """
    vectors = refuse_bad_counts(vectors)
    if budget is not None and budget < 0:
        raise RejectedInputError(f"negative budget {budget}")
    n = len(vectors)
    m = SimilarityMatrix(owner=owner, n_users=n)
    for k, l in islice(pair_sequence(n), budget):
        m.set_entry(flat_index(k, l, n), similarity(vectors[k - 1], vectors[l - 1]))
    return m
