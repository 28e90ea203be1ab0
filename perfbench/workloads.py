"""The benchmark's workloads: which harness configs one op runs.

An op is one or more ``run_experiment`` calls, each followed by
``Report.to_json_text()``, exactly as the CLI produces a report.  Op ``i``
of a run uses seed ``pool[i % len(pool)]``, where the pool is derived from
the workload seed.  Cycling a small pool makes configs repeat within one
run, so the byte-identity check (reports are identical for a fixed
config) has repeats to compare on every workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_pool: int
    # Config fields of each report in one op; the op's seed is added to each.
    specs: tuple[dict, ...]

    def op_seeds(self, seed: int) -> list[int]:
        rnd = random.Random(f"{self.name}/{seed}")
        return [rnd.getrandbits(63) for _ in range(self.seed_pool)]

    def op_specs(self, seed: int) -> list[list[dict]]:
        """One list of config dicts per distinct op, in the order ops cycle."""
        return [[dict(spec, seed=s) for spec in self.specs] for s in self.op_seeds(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "adaptive_n1024",
            "deepest instances (512 layers), one query per round: layer lookup, "
            "decode_layer_answer and 1024-bit Subset index lists dominate",
            seed_pool=4,
            specs=({"mode": "bench", "n": [1024], "r": 1, "trials": 1},),
        ),
        Workload(
            "duel_n512",
            "family_aware against the halving adversary: transcript write path, "
            "replay, and the eagerly built query_floor evidence",
            # run_duel draws no randomness, so every op is the same experiment.
            seed_pool=1,
            specs=({"mode": "duel", "n": [512], "r": 1, "trials": 1,
                    "solver": "family_aware"},),
        ),
        Workload(
            "parallel_n512",
            "batched rounds of honest answers over every depth, r = 2: per-call "
            "oracle cost, Fraction construction and rng.subset_of",
            seed_pool=3,
            specs=({"mode": "parallel", "n": [512], "r": 2, "trials": 1,
                    "queries_per_round": 64},),
        ),
        Workload(
            "exhaustive_small",
            "shallow instances (at most 6 layers): brute force cross-check and "
            "verify's exhaustive tables; deep-layer optimisations are bypassed",
            seed_pool=3,
            specs=(
                {"mode": "bench", "n": [16], "r": 2, "trials": 1},
                {"mode": "verify", "n": [12], "r": 1, "trials": 1},
            ),
        ),
    )
}
