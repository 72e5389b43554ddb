"""Proof-of-user-similarity consensus: protocol library and simulator.

The pipeline: miners compute budgeted user-similarity matrices
(:mod:`pous.similarity`), vote on each other's matrices through garbled
two-party comparisons (:mod:`pous.garbled`), are scored by a truth
serum that rewards honest approvals (:mod:`pous.bts`), a sampled
committee agrees on the leader (:mod:`pous.committee`), and the leader
packs a block of clustered transactions (:mod:`pous.packing`). The
round-loop simulator (:mod:`pous.simnet`) compares the whole stack
against a proof-of-work baseline; :mod:`pous.cli` wraps it in scenario
presets.
"""

from .errors import (
    ConfigurationError,
    CorruptedCircuitError,
    MalformedFlagError,
    ProtocolAbortError,
    RejectedInputError,
)
from .similarity import (
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
from .garbled import (
    ComparatorTemplate,
    DiffieHellmanOT,
    FixedPoint,
    GarbledCircuit,
    GarbledCompareBackend,
    PlainCompareBackend,
    TrustedDealerOT,
    garble_comparator,
    secure_compare,
)
from .bts import (
    ScoreSheet,
    TallyResult,
    VoteRecord,
    cast_votes,
    expected_scores,
    quadratic_score,
    score_sheet,
    shifted_prediction,
    strategy_scores,
    tally,
)
from .committee import (
    CommitteeConfig,
    Decision,
    RoundTimers,
    accept_vote_submission,
    agree,
    select_committee,
    verify_block,
)
from .packing import (
    Block,
    BlockHeader,
    Cluster,
    PriorityWeights,
    cluster_mempool,
    decode_flag,
    encode_flag,
    merkle_root,
    pack_block,
    pca_project,
    priority,
    rank,
    tx_priority,
)
from .simnet import (
    Metrics,
    SimConfig,
    Workload,
    gen_workload,
    replay_trace,
    run_pous,
    run_pow,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "CorruptedCircuitError", "MalformedFlagError",
    "ProtocolAbortError", "RejectedInputError",
    "DEFAULT_CLASSES", "DataView", "SimilarityMatrix", "Transaction",
    "UserVector", "build_user_vectors", "compute_usm", "flat_index",
    "pair_sequence", "similarity", "unflatten_index", "update_usm",
    "ComparatorTemplate", "DiffieHellmanOT", "FixedPoint", "GarbledCircuit",
    "GarbledCompareBackend", "PlainCompareBackend", "TrustedDealerOT",
    "garble_comparator", "secure_compare",
    "ScoreSheet", "TallyResult", "VoteRecord", "cast_votes",
    "expected_scores", "quadratic_score", "score_sheet",
    "shifted_prediction", "strategy_scores", "tally",
    "CommitteeConfig", "Decision", "RoundTimers", "accept_vote_submission",
    "agree", "select_committee", "verify_block",
    "Block", "BlockHeader", "Cluster", "PriorityWeights", "cluster_mempool",
    "decode_flag", "encode_flag", "merkle_root", "pack_block", "pca_project",
    "priority", "rank", "tx_priority",
    "Metrics", "SimConfig", "Workload",
    "gen_workload", "replay_trace", "run_pous", "run_pow",
]
