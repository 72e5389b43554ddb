"""Proof-of-user-similarity consensus: protocol library and simulator.

The pipeline: miners compute budgeted user-similarity matrices
(:mod:`pous.similarity`), vote on each other's matrices through garbled
two-party comparisons (:mod:`pous.garbled`), are scored by a truth
serum that rewards honest approvals (:mod:`pous.bts`), a sampled
committee agrees on the leader (:mod:`pous.committee`), and the leader
packs a block of clustered transactions (:mod:`pous.packing`).
:mod:`pous.round` runs one such round with every message as bytes. The
round-loop simulator (:mod:`pous.simnet`) compares the whole stack
against a proof-of-work baseline; :mod:`pous.cli` wraps it in scenario
presets.

Names are imported from the module that defines them
(``from pous.simnet import run_pous``); the package itself holds only
``__version__``.
"""

__version__ = "0.1.0"
