"""
Similarity consensus vs. proof-of-work on one workload
======================================================

Both protocols consume the identical transaction stream for a given
seed, so throughput and latency differences are paired observations,
not noise. Fixed-length rounds beat exponential block arrivals on both
counts at equal block size and interval.
"""
from pous.simnet import SimConfig, run_pous, run_pow

config = SimConfig(
    n_nodes=30,
    sim_time=6030.0,
    block_interval=600.0,
    block_size_mb=2.0,
    tx_epoch=281.25,  # 3.2 tx/s offered load
    seed=42,
)

pous = run_pous(config)
pow_ = run_pow(config)
assert pous.total_tx_count == pow_.total_tx_count

print(f"{'':24s}{'similarity':>12s}{'work':>12s}")
rows = [
    ("transactions offered", "total_tx_count", "d"),
    ("confirmed", "confirmed_tx_count", "d"),
    ("throughput (tx/s)", "tps", ".4f"),
    ("mean latency (s)", "mean_latency", ".1f"),
    ("p90 latency (s)", "p90_latency", ".1f"),
    ("blocks", "blocks_committed", "d"),
    ("aborted rounds", "aborts", "d"),
]
for label, attr, fmt in rows:
    a, b = getattr(pous, attr), getattr(pow_, attr)
    print(f"{label:24s}{a:>12{fmt}}{b:>12{fmt}}")

gain = (pous.tps - pow_.tps) / pow_.tps * 100
cut = (pow_.mean_latency - pous.mean_latency) / pow_.mean_latency * 100
print(f"\nthroughput gain {gain:.1f}%, latency cut {cut:.1f}%")
_, seconds, nbytes = pous.crypto  # per round
print(f"crypto accounting: {seconds * pous.rounds:.1f} simulated seconds, "
      f"{nbytes * pous.rounds / 1e6:.1f} MB of comparison traffic")
