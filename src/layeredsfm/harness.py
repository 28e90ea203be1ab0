"""Experiment runner: verification sweeps, duels, parallel rounds, hiding.

Every run is driven by an :class:`ExperimentConfig` and produces a
:class:`Report` that is byte-identical across runs with the same config
(seeded randomness only, no wall-clock anywhere).  Reports carry one
entry per assertion; a failing assertion embeds the offending witness or
transcript so the failure can be replayed standalone.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Callable

from .family import (
    LayeredInstance,
    draw_layer,
    sample_instance,
    true_minimizer,
)
from .oracles import HalvingAdversary, HonestOracle
from .rationals import format_value
from .rng import SplitMix64
from .sets import EXHAUSTIVE_CAP, GroundConfig, Subset, check_json_keys
from .solvers import (
    QUERY_BUDGET_ALPHA,
    SOLVERS,
    brute_force_minimize,
    family_aware_minimize,
    query_budget,
    query_cap,
    singleton_parallel_minimize,
)
from .verify import EXHAUSTIVE_PAIR_CAP, check_function_properties

# Exact-hiding triples checked by every hiding run.
HIDING_TRIPLES = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: mode plus the knobs it needs.

    The fields are the one list of experiment settings: ``to_json`` writes
    exactly them, ``from_json`` accepts no other key, and the CLI copies
    each flag of the same name.

    ``n`` is a tuple to allow bench sweeps, without a repeated size; the
    other modes require a single value.  ``trials`` is the instance count
    (verify, parallel, bench) or the Monte-Carlo sample count (hiding).
    ``queries_per_round`` feeds the naive random-batch baseline of parallel
    runs and defaults to n^2; ``solver`` names duel's solver.  Any other
    mode refuses them unless left at their defaults.
    """

    mode: str
    n: tuple[int, ...]
    r: int = 1
    seed: int = 0
    trials: int = 10
    queries_per_round: int | None = None
    solver: str = "family_aware"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        ints = [self.seed, self.trials]
        if self.queries_per_round is not None:
            ints.append(self.queries_per_round)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in ints):
            raise ValueError("seed, trials and queries_per_round must be integers")
        if not self.n:
            raise ValueError("n must be one or more positive integers")
        grounds = [GroundConfig(n, self.r) for n in self.n]  # the one check of each n and of r
        if len(set(self.n)) != len(self.n):
            raise ValueError(f"n must not repeat a ground size, got {list(self.n)}")
        if len(self.n) != 1 and self.mode != "bench":
            raise ValueError(f"mode {self.mode!r} takes a single n")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        SplitMix64(self.seed)  # raises on a seed outside [0, 2**64)
        if self.queries_per_round is not None and self.queries_per_round < 1:
            raise ValueError("queries_per_round must be positive")
        if not isinstance(self.solver, str) or self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; expected one of {sorted(SOLVERS)}")
        # A report echoes every setting, so one its mode never reads is refused.
        if self.solver != "family_aware" and self.mode != "duel":
            raise ValueError(f"mode {self.mode!r} does not read solver (only duel does)")
        if self.queries_per_round is not None and self.mode != "parallel":
            raise ValueError(f"mode {self.mode!r} does not read queries_per_round (only parallel does)")
        if self.mode == "duel":
            HalvingAdversary(grounds[0])  # raises unless the adversary can duel at this n and r
            if self.solver == "brute_force" and self.n[0] > EXHAUSTIVE_CAP:
                raise ValueError(f"duel with brute_force asks all 2^n subsets and is capped at n = {EXHAUSTIVE_CAP}")
        if self.mode == "verify" and self.n[0] > EXHAUSTIVE_PAIR_CAP:
            raise ValueError(f"verify is exhaustive and capped at n = {EXHAUSTIVE_PAIR_CAP}")
        # With dummy elements (2r not dividing n) the minimizer is not unique,
        # so verify's unique-minimizer check would fail on correct instances.
        for ground in grounds:
            if self.mode in ("verify", "parallel", "bench") and not ground.divides_evenly:
                raise ValueError(f"mode {self.mode!r} requires 2*r | n, got r={self.r}, n={ground.n}")

    def to_json(self) -> dict:
        return {**asdict(self), "n": list(self.n)}

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        """Build from a JSON object whose keys are fields; malformed input raises ValueError."""
        check_json_keys(data, tuple(f.name for f in fields(cls)), "config")
        missing = [key for key in ("mode", "n") if key not in data]
        if missing:
            raise ValueError(f"config is missing {', '.join(missing)}")
        if not isinstance(data["n"], list):
            raise ValueError(f"config n must be a list of integers, got {data['n']!r}")
        return cls(**{**data, "n": tuple(data["n"])})


@dataclass
class Report:
    """Deterministic experiment output: trials, aggregates, assertions."""

    config: ExperimentConfig
    trials: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    assertions: list[dict] = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "", evidence: dict | None = None) -> None:
        entry: dict = {"name": name, "passed": bool(passed), "detail": detail}
        if not passed and evidence is not None:
            entry["evidence"] = evidence
        self.assertions.append(entry)

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def to_json_text(self) -> str:
        data = {
            "config": self.config.to_json(),
            "trials": self.trials,
            "aggregate": self.aggregate,
            "assertions": self.assertions,
            "passed": self.passed,
        }
        return json.dumps(data, indent=2) + "\n"

    def to_csv_text(self) -> str:
        """Flat section,key,value mirror of the aggregate table and verdicts."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["section", "key", "value"])
        for key, value in sorted(self.config.to_json().items()):
            writer.writerow(["config", key, json.dumps(value)])
        for key, value in _flatten(self.aggregate):
            writer.writerow(["aggregate", key, json.dumps(value)])
        for a in self.assertions:
            writer.writerow(["assertion", a["name"], "pass" if a["passed"] else "fail"])
        writer.writerow(["result", "passed", json.dumps(self.passed)])
        return buf.getvalue()


def _flatten(data: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key in sorted(data):
        value = data[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}."))
        else:
            rows.append((name, value))
    return rows


def _summary(values: list[int]) -> dict:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        median: float | int = ordered[mid]
    else:
        median = (ordered[mid - 1] + ordered[mid]) / 2
    return {"min": ordered[0], "median": median, "max": ordered[-1]}


def run_verify(
    config: ExperimentConfig,
    eval_factory: Callable[[LayeredInstance], Callable[[Subset], Fraction]] | None = None,
) -> Report:
    """Exhaustively check range/minimizer/submodularity on sampled instances.

    ``eval_factory`` swaps the evaluator under test (the default reads each
    instance's layer table); the mutation tests use it to confirm that a
    corrupted evaluator is caught with a concrete witness.
    """
    report = Report(config)
    n = config.n[0]
    ground = GroundConfig(n, config.r)
    rng = SplitMix64(config.seed)
    failures = 0
    for trial, seed in enumerate(rng.spawn_seeds(config.trials)):
        inst = sample_instance(ground, seed)
        subject = inst if eval_factory is None else eval_factory(inst)
        prop = check_function_properties(subject, n, true_minimizer(inst))
        entry = {"trial": trial, "seed": seed, **prop.to_json()}
        report.trials.append(entry)
        if not prop.all_ok:
            failures += 1
            report.check(
                f"instance_properties_trial_{trial}",
                False,
                "range/unique-minimizer/submodularity failed",
                evidence={"instance": inst.to_json(), "report": prop.to_json()},
            )
    report.aggregate = {"instances": config.trials, "failures": failures}
    report.check("all_instances_pass", failures == 0, f"{config.trials - failures}/{config.trials} instances passed")
    return report


def _above_query_floor(queries: int, n: int) -> bool:
    """``queries >= (n/2) * log2(n/4)`` in integers: ``4^(queries + n) >= n^n``."""
    return 4 ** (queries + n) >= n**n


def run_duel(config: ExperimentConfig) -> Report:
    """Duel the named solver against the halving adversary.

    Asserts the exact deterministic query floor (n/2) * log2(n/4), exact
    transcript replay against the finalized instance, and that the solver
    returned that instance's minimizer.
    """
    report = Report(config)
    n = config.n[0]
    ground = GroundConfig(n, config.r)
    adversary = HalvingAdversary(ground)
    solve = SOLVERS[config.solver]
    result = solve(adversary, ground)
    floor = (n / 2) * math.log2(n / 4)

    try:
        instance = adversary.finalize(seed=None)
    except Exception as exc:  # pragma: no cover - replay must never fail
        report.check("replay_exact", False, str(exc), evidence=adversary.transcript.to_json())
        return report

    report.trials.append(
        {
            "result": result.to_json(),
            "instance": instance.to_json(),
            "floor": floor,
            "commit_causes": [c.cause for c in adversary.commits],
        }
    )
    report.aggregate = {
        "queries": result.queries,
        "rounds": result.rounds,
        "floor": floor,
        "layers": ground.layer_count,
    }
    above_floor = _above_query_floor(result.queries, n)
    report.check(
        "query_floor",
        above_floor,
        f"{result.queries} queries >= floor {floor:g}",
        evidence=None if above_floor else adversary.transcript.to_json(),
    )
    report.check("replay_exact", True, "finalized instance reproduces the transcript")
    matches = result.minimizer == true_minimizer(instance)
    report.check(
        "solver_matches_instance",
        matches and result.min_value == 0,
        "solver returned the finalized instance's minimizer",
        evidence=None if matches else {
            "solver": result.to_json(),
            "instance": instance.to_json(),
            "transcript": adversary.transcript.to_json(),
        },
    )
    return report


def _lucky_hits(inst: LayeredInstance, q_per_round: int, seed: int) -> int:
    """Random queries of the naive random-batch baseline that see past the frontier.

    The baseline's round k is the singleton-parallel solver's singleton
    batch plus ``q_per_round`` uniform random queries over layer k's pool,
    on top of the hidden sets of the earlier layers.  Only the singleton
    batch identifies the hidden set, so the baseline shares the solver's
    rounds and minimizer, and its random queries are read off the instance
    rather than asked.  A random query is a lucky hit when it matches layer
    k's hidden set, ``S cap A_k = R_k`` (the earlier hidden sets lie
    outside A_k), which is exactly when its honest value would fall below
    1/(2 * d_k).
    """
    rng = SplitMix64(seed)
    lucky = 0
    for block, hidden, pool, pool_card in inst.table.rows:
        # Query S = rng.subset_of(pool) keeps the pool's p-th member when bit p
        # of its draw is set, so test the draw at A_k's and R_k's pool positions.
        a_pos = r_pos = 0
        rest = block
        while rest:
            low = rest & -rest
            at = 1 << (pool & (low - 1)).bit_count()
            a_pos |= at
            if low & hidden:
                r_pos |= at
            rest ^= low
        lucky += rng.count_matches(pool_card, a_pos, r_pos, q_per_round)
    return lucky


def run_parallel(config: ExperimentConfig) -> Report:
    """Check the one-round-per-layer structure on uniform instances.

    The singleton-parallel solver must use exactly n/(2r) rounds and
    return the true minimizer on every trial.  The naive random-batch
    baseline adds random queries to the solver's singleton batch; its
    rounds and lucky hits are reported (no assertion attached).
    """
    report = Report(config)
    n = config.n[0]
    ground = GroundConfig(n, config.r)
    q_per_round = config.queries_per_round or n * n
    rng = SplitMix64(config.seed)
    rounds_ok = correct = 0
    naive_rounds: dict[int, int] = {}
    naive_lucky: dict[int, int] = {}
    for trial, seed in enumerate(rng.spawn_seeds(config.trials)):
        inst = sample_instance(ground, seed)
        result = singleton_parallel_minimize(HonestOracle(inst), ground)
        good_rounds = result.rounds == ground.layer_count
        found = result.minimizer == true_minimizer(inst)
        good_min = found and result.min_value == 0
        rounds_ok += good_rounds
        correct += good_min
        lucky = _lucky_hits(inst, q_per_round, seed)
        naive_rounds[result.rounds] = naive_rounds.get(result.rounds, 0) + 1
        naive_lucky[lucky] = naive_lucky.get(lucky, 0) + 1
        report.trials.append(
            {
                "trial": trial,
                "seed": seed,
                "result": result.to_json(),
                "rounds_exact": good_rounds,
                "correct": good_min,
                "naive": {"rounds": result.rounds, "lucky_hits": lucky, "correct": found},
            }
        )
        if not (good_rounds and good_min):
            report.check(
                f"trial_{trial}",
                False,
                "singleton solver missed rounds or minimizer",
                evidence={"instance": inst.to_json(), "result": result.to_json()},
            )
    report.aggregate = {
        "layers": ground.layer_count,
        "rounds_exact": rounds_ok,
        "correct": correct,
        "naive_round_distribution": {str(k): v for k, v in sorted(naive_rounds.items())},
        "naive_lucky_hit_distribution": {str(k): v for k, v in sorted(naive_lucky.items())},
    }
    report.check(
        "round_count_exact",
        rounds_ok == config.trials,
        f"{rounds_ok}/{config.trials} trials used exactly {ground.layer_count} rounds",
    )
    report.check(
        "all_correct", correct == config.trials, f"{correct}/{config.trials} trials correct"
    )
    return report


def run_hiding(config: ExperimentConfig) -> Report:
    """Estimate how rarely a random query matches a random hidden set,
    and check that answers hide everything deeper, exactly.

    Part 1 (Monte Carlo over ``trials`` samples): draw a uniform hidden
    set R (r of the block's 2r positions) and a uniform query's part in
    the block (each position kept with probability 1/2); count exact
    matches.  No block A is drawn: the query is uniform and independent
    of (A, R), so for every A its trace S ∩ A, relabelled to positions
    in A, is a uniform subset of [2r] independent of R, and each sample's
    (balanced, hit) pair has the same law as with a drawn block.  So
    Part 1 reads nothing of n.  The estimate must stay under
    4*(2r+1)/2^(2r), a ceiling implied by the central-binomial counting
    bound, and within a factor 2 of the exact prediction
    (balanced-intersection rate) / C(2r, r).

    Part 2 (exact, 1000 triples): two instances sharing the first layer
    but with independently sampled deeper layers must answer identically
    on any query that does not match the first hidden set.
    """
    report = Report(config)
    n = config.n[0]
    r = config.r
    ground = GroundConfig(n, r)
    rng = SplitMix64(config.seed)

    samples = config.trials
    hits = 0
    balanced = 0
    for _ in range(samples):
        hidden = rng.bits(2 * r)
        while hidden.bit_count() != r:
            hidden = rng.bits(2 * r)
        part = rng.bits(2 * r)
        if part.bit_count() == r:
            balanced += 1
            if part == hidden:
                hits += 1
    rate = Fraction(hits, samples)
    balanced_rate = Fraction(balanced, samples)
    ceiling = Fraction(4 * (2 * r + 1), 1 << (2 * r))
    prediction = balanced_rate / math.comb(2 * r, r)

    report.aggregate = {
        "samples": samples,
        "hits": hits,
        "hit_rate": format_value(rate),
        "hit_rate_float": float(rate),
        "balanced_rate": format_value(balanced_rate),
        "prediction": format_value(prediction),
        "block_choices": math.comb(2 * r, r),
        "block_choices_floor": format_value(Fraction(1 << (2 * r), 2 * r + 1)),
        "counting_ceiling": format_value(ceiling),
    }
    report.check(
        "hit_rate_below_counting_ceiling",
        rate <= ceiling,
        f"hit rate {float(rate):.3g} <= ceiling {float(ceiling):.3g}",
    )
    report.check(
        "hit_rate_matches_prediction",
        prediction / 2 <= rate <= prediction * 2 if prediction > 0 else hits == 0,
        f"hit rate {float(rate):.3g} within factor 2 of prediction {float(prediction):.3g}",
    )

    identical = 0
    mismatch_evidence: dict | None = None
    for _ in range(HIDING_TRIPLES):
        a_bits, r_bits = draw_layer(ground, list(range(ground.effective_size)), rng.sample)
        first = (Subset(n, a_bits), Subset(n, r_bits))
        inst_a = sample_instance(ground, rng.next(), prefix=[first])
        inst_b = sample_instance(ground, rng.next(), prefix=[first])
        while True:
            s_bits = rng.bits(n)
            if s_bits & a_bits != r_bits:
                break
        # Codes are equal exactly when the values are.
        (va,) = inst_a.table.values([s_bits], ground.code_lift)
        (vb,) = inst_b.table.values([s_bits], ground.code_lift)
        if va == vb:
            identical += 1
        elif mismatch_evidence is None:
            mismatch_evidence = {
                "query": Subset(n, s_bits).to_json(),
                "instance_a": inst_a.to_json(),
                "instance_b": inst_b.to_json(),
                "value_a": format_value(ground.code_value(va)),
                "value_b": format_value(ground.code_value(vb)),
            }
    report.aggregate["exact_hiding_identical"] = identical
    report.aggregate["exact_hiding_triples"] = HIDING_TRIPLES
    report.check(
        "exact_hiding",
        identical == HIDING_TRIPLES,
        f"{identical}/{HIDING_TRIPLES} triples answered identically",
        evidence=mismatch_evidence,
    )
    return report


def run_bench(config: ExperimentConfig) -> Report:
    """Measure the family-aware solver's query growth over an n sweep.

    Asserts correctness on every trial (cross-checked against brute force
    for n <= 16) and the fixed budget queries <= 8 * n * log2(n); reports
    the measured constant max queries / (n log2 n).
    """
    report = Report(config)
    rng = SplitMix64(config.seed)
    alpha_max = 0.0
    per_n: dict[str, dict] = {}
    all_correct = True
    within_budget = True
    for n in config.n:
        ground = GroundConfig(n, config.r)
        queries: list[int] = []
        correct = 0
        cross_checked = 0
        for trial, seed in enumerate(rng.spawn_seeds(config.trials)):
            inst = sample_instance(ground, seed)
            result = family_aware_minimize(HonestOracle(inst), ground)
            good = result.minimizer == true_minimizer(inst) and result.min_value == 0
            if good and n <= 16:
                brute = brute_force_minimize(HonestOracle(inst))
                good = brute.minimizer == result.minimizer and brute.min_value == result.min_value
                cross_checked += 1
            correct += good
            queries.append(result.queries)
            if not good:
                all_correct = False
                report.check(
                    f"bench_n{n}_trial_{trial}",
                    False,
                    "family-aware solver returned a wrong minimizer",
                    evidence={"instance": inst.to_json(), "result": result.to_json()},
                )
            report.trials.append(
                {"n": n, "trial": trial, "seed": seed, "queries": result.queries,
                 "rounds": result.rounds, "correct": good}
            )
        budget = query_budget(n)
        alpha_here = max(q / (n * math.log2(max(n, 2))) for q in queries)
        alpha_max = max(alpha_max, alpha_here)
        if max(queries) > query_cap(n):
            within_budget = False
        per_n[str(n)] = {
            "queries": _summary(queries),
            "alpha": round(alpha_here, 6),
            "budget": round(budget, 3),
            "correct": correct,
            "cross_checked_brute": cross_checked,
        }
    report.aggregate = {"per_n": per_n, "measured_alpha": round(alpha_max, 6)}
    report.check("all_correct", all_correct, "every trial returned the true minimizer")
    report.check(
        "query_budget",
        within_budget,
        f"measured alpha {alpha_max:.3f} <= {QUERY_BUDGET_ALPHA}",
    )
    return report


# The one list of modes: each mode's runner and its one-line CLI help.
RUNNERS: dict[str, tuple[Callable[[ExperimentConfig], Report], str]] = {
    "verify": (run_verify, "exhaustively check range/minimizer/submodularity on sampled instances"),
    "duel": (run_duel, "run a solver against the halving adversary and check the query floor"),
    "parallel": (run_parallel, "check the one-round-per-layer structure of the batched solver"),
    "hiding": (run_hiding, "Monte-Carlo hit-rate estimate plus exact information-hiding checks"),
    "bench": (run_bench, "measure family-aware solver queries over an n sweep (use --n a,b,c)"),
}
MODES = tuple(RUNNERS)


def run_experiment(config: ExperimentConfig) -> Report:
    run, _ = RUNNERS[config.mode]
    return run(config)
