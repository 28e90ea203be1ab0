import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from layeredsfm import harness
from layeredsfm.cli import build_parser
from layeredsfm.cli import main as cli_main
from layeredsfm.family import evaluate_closed_form
from layeredsfm.harness import (
    MODES,
    RUNNERS,
    ExperimentConfig,
    _above_query_floor,
    run_bench,
    run_duel,
    run_experiment,
    run_hiding,
    run_parallel,
    run_verify,
)
from layeredsfm.sets import EXHAUSTIVE_CAP
from layeredsfm.solvers import query_budget, query_cap
from test_report_digests import REPORTS
from test_rng import _early_stop_matches


def cfg(**kwargs):
    defaults = dict(mode="verify", n=(6,), r=1, seed=0, trials=5)
    defaults.update(kwargs)
    if isinstance(defaults["n"], int):
        defaults["n"] = (defaults["n"],)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            cfg(mode="explore")

    def test_duel_requires_r1_even_n(self):
        with pytest.raises(ValueError):
            cfg(mode="duel", n=8, r=2)
        with pytest.raises(ValueError):
            cfg(mode="duel", n=9)

    def test_parallel_requires_divisibility(self):
        with pytest.raises(ValueError):
            cfg(mode="parallel", n=10, r=2)

    def test_sweep_only_for_bench(self):
        with pytest.raises(ValueError):
            cfg(mode="verify", n=(6, 8))
        cfg(mode="bench", n=(8, 16))  # fine

    @pytest.mark.parametrize("mode", ["verify", "parallel", "hiding", "bench"])
    def test_solver_is_read_by_duel_only(self, mode):
        with pytest.raises(ValueError, match="does not read solver"):
            cfg(mode=mode, n=8, solver="brute_force")
        cfg(mode=mode, n=8, solver="family_aware")  # the default is accepted

    @pytest.mark.parametrize("mode", ["verify", "duel", "hiding", "bench"])
    def test_queries_per_round_is_read_by_parallel_only(self, mode):
        with pytest.raises(ValueError, match="does not read queries_per_round"):
            cfg(mode=mode, n=8, queries_per_round=5)

    def test_seed_is_below_two_to_the_64(self):
        # SplitMix64 keeps a seed's low 64 bits, so a larger seed would
        # silently rerun another one while its report echoed the large one.
        assert cfg(seed=2**64 - 1).seed == 2**64 - 1
        for seed in (2**64, 3 + 2**64):
            with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
                cfg(seed=seed)
            with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
                ExperimentConfig.from_json({"mode": "verify", "n": [6], "seed": seed})

    def test_negative_seed_is_refused_with_the_generators_rule(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            cfg(seed=-1)

    def test_json_round_trip(self):
        c = cfg(mode="bench", n=(8, 16), trials=3)
        assert ExperimentConfig.from_json(c.to_json()) == c

    @pytest.mark.parametrize("data", [
        {"n": [6]},
        {"mode": "verify"},
        {"mode": "verify", "n": "abc"},
        {"mode": "verify", "n": None},
        {"mode": "verify", "n": [6], "r": "1"},
        {"mode": "verify", "n": [6], "trials": True},
        {"mode": "verify", "n": [6], "solver": ["family_aware"]},
        ["verify", 6],
        {"mode": "bench", "n": [2048]},
        {"mode": "verify", "n": [7], "r": 1},
        {"mode": "verify", "n": [5], "r": 2},
        {"mode": "duel", "n": [8], "solvr": "brute_force"},
        {"mode": "bench", "n": [8, 8]},
        {"mode": "verify", "n": 6},
        {"mode": "bench", "n": 8},
        {"mode": "verify", "n": (6,)},
        {"mode": "verify", "n": [6], "r": 0},
        {"mode": "verify", "n": [6], "trials": 0},
        {"mode": "parallel", "n": [8], "queries_per_round": 0},
        {"mode": "verify", "n": [14]},
        {"mode": "verify", "n": [0]},
        {"mode": "verify", "n": [True]},
        {"mode": "verify", "n": [6.0]},
        {"mode": "verify", "n": [6], "r": True},
        {"mode": "verify", "n": [6], "r": -1},
    ])
    def test_from_json_rejects_malformed(self, data):
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(data)


class TestRunVerify:
    def test_passes_on_family_instances(self):
        report = run_verify(cfg(n=8, r=1, trials=10, seed=1))
        assert report.passed
        assert report.aggregate == {"instances": 10, "failures": 0}

    def test_passes_for_r2(self):
        assert run_verify(cfg(n=8, r=2, trials=10, seed=2)).passed

    def test_corrupted_evaluator_fails_with_witness(self):
        # Flip one value (the minimizer's): the run must fail and embed
        # concrete evidence.
        def corrupted_factory(inst):
            from layeredsfm.family import true_minimizer

            best = true_minimizer(inst)

            def fn(s):
                value = evaluate_closed_form(inst, s)
                return value + Fraction(1) if s == best else value

            return fn

        report = run_verify(cfg(n=6, trials=2, seed=3), eval_factory=corrupted_factory)
        assert not report.passed
        failing = [a for a in report.assertions if not a["passed"]]
        assert any("evidence" in a for a in failing)


class TestExactQueryBounds:
    """The floor and budget checks run in integers and agree with the
    printed float forms."""

    SIZES = [1, 2, 4, 12, 16, 1000, 1024]

    @pytest.mark.parametrize("n", SIZES)
    def test_floor_check_agrees_with_the_float_floor(self, n):
        floor = (n / 2) * math.log2(n / 4)
        first = max(0, math.ceil(floor))
        for q in range(max(0, first - 2), first + 3):
            assert _above_query_floor(q, n) == (q >= floor), (n, q)

    @pytest.mark.parametrize("n", SIZES)
    def test_cap_agrees_with_the_float_budget(self, n):
        cap, budget = query_cap(n), query_budget(n)
        assert cap == math.floor(budget)
        for q in (cap - 1, cap, cap + 1):
            assert (q <= cap) == (q <= budget), (n, q)


class TestRunDuel:
    @pytest.mark.parametrize("n,floor", [(16, 16), (8, 4)])
    def test_family_aware_beats_floor(self, n, floor):
        report = run_duel(cfg(mode="duel", n=n, solver="family_aware"))
        assert report.passed
        assert report.aggregate["queries"] >= floor
        assert report.aggregate["floor"] == floor

    def test_brute_force(self):
        report = run_duel(cfg(mode="duel", n=8, solver="brute_force"))
        assert report.passed
        assert report.aggregate["queries"] == 256

    def test_family_aware_n64(self):
        report = run_duel(cfg(mode="duel", n=64))
        assert report.passed
        assert report.aggregate["floor"] == 128
        assert report.aggregate["queries"] >= 128

    @pytest.mark.parametrize("solver", ["brute_force", "family_aware", "singleton_parallel"])
    def test_seed_and_trials_change_only_the_config_echo(self, solver):
        # Duel reads neither seed nor trials but echoes both.
        first, second = (
            json.loads(run_duel(cfg(mode="duel", n=16, seed=seed, trials=trials, solver=solver)).to_json_text())
            for seed, trials in [(0, 10), (12345, 3)]
        )
        assert (first.pop("config")["seed"], second.pop("config")["seed"]) == (0, 12345)
        assert first == second

    def test_query_floor_evidence_only_on_failure(self, monkeypatch):
        from layeredsfm.harness import SOLVERS
        from layeredsfm.sets import Subset
        from layeredsfm.solvers import SolverResult

        def floor_entry(report):
            return next(a for a in report.assertions if a["name"] == "query_floor")

        passing = floor_entry(run_duel(cfg(mode="duel", n=16)))
        assert passing["passed"] and "evidence" not in passing

        oracles = []

        def one_query(oracle):
            oracles.append(oracle)
            value = oracle.answer(Subset(oracle.config.n))
            return SolverResult("stub", Subset(oracle.config.n), value, 1, 1)

        monkeypatch.setitem(SOLVERS, "family_aware", one_query)
        failing = floor_entry(run_duel(cfg(mode="duel", n=16)))
        assert not failing["passed"]
        assert failing["evidence"] == oracles[0].transcript.to_json()


class TestRunParallel:
    def test_rounds_and_correctness(self):
        report = run_parallel(cfg(mode="parallel", n=16, r=2, trials=10, queries_per_round=16))
        assert report.passed
        assert report.aggregate["rounds_exact"] == 10
        assert report.aggregate["naive_round_distribution"] == {"4": 10}

    def test_single_layer_degenerate(self):
        report = run_parallel(cfg(mode="parallel", n=8, r=4, trials=5, queries_per_round=4))
        assert report.passed
        assert report.aggregate["layers"] == 1

    def test_oracle_answers_only_the_singleton_batches(self, monkeypatch):
        # The baseline's random queries are read off the instance, so the
        # oracle answers each trial's singleton batches (pools 16, 12, 8, 4) only.
        from layeredsfm.oracles import HonestOracle

        calls = 0
        answer_batch = HonestOracle.answer_batch

        def counting_answer_batch(self, masks):
            nonlocal calls
            calls += len(masks)
            return answer_batch(self, masks)

        monkeypatch.setattr(HonestOracle, "answer_batch", counting_answer_batch)
        report = run_parallel(cfg(mode="parallel", n=16, r=2, trials=3, queries_per_round=16))
        assert report.passed
        assert calls == 3 * (16 + 12 + 8 + 4)

    def test_lucky_hits_replay_from_seed(self):
        # Replay each trial's random draws and count the queries matching the
        # frontier layer's hidden set; the baseline shares the solver's rounds.
        from layeredsfm.family import sample_instance, true_minimizer
        from layeredsfm.rng import SplitMix64
        from layeredsfm.sets import GroundConfig, Subset

        # (192, 2) opens with a 192-element pool: draws of three 64-bit words.
        for n, r in [(8, 1), (24, 2), (48, 3), (192, 2)]:
            report = run_parallel(cfg(mode="parallel", n=n, r=r, trials=5, queries_per_round=16))
            assert report.passed
            ground = GroundConfig(n, r)
            total = 0
            for trial in report.trials:
                inst = sample_instance(ground, trial["seed"])
                rng = SplitMix64(trial["seed"])
                prefix = Subset(n)
                hits = 0
                for pool, block, hidden in zip(inst.pools, inst.blocks, inst.hidden_sets):
                    for _ in range(16):
                        s = prefix | rng.subset_of(pool)
                        hits += (s & block) == hidden
                    prefix = prefix | hidden
                assert trial["naive"]["lucky_hits"] == hits
                assert trial["naive"]["rounds"] == trial["result"]["rounds"]
                solver_correct = trial["result"]["minimizer"] == true_minimizer(inst).to_json()
                assert trial["naive"]["correct"] == solver_correct
                total += hits
            assert total > 0

    def test_default_queries_per_round_cross_a_chunk(self, monkeypatch):
        # n = 66 asks the default Q = n^2 = 4,356 random queries per round,
        # one full chunk of lanes and a short one; the same run with the
        # scalar early-stop loop as count_matches gives the same report.
        from layeredsfm.rng import _CHUNK, SplitMix64

        config = cfg(mode="parallel", n=66, r=1, trials=3)
        assert config.queries_per_round is None and _CHUNK < 66 * 66 < 2 * _CHUNK
        report = run_parallel(config)
        monkeypatch.setattr(SplitMix64, "count_matches", _early_stop_matches)
        reference = run_parallel(config)
        lucky = report.aggregate["naive_lucky_hit_distribution"]
        assert lucky == reference.aggregate["naive_lucky_hit_distribution"]
        assert report.to_json_text() == reference.to_json_text()
        assert sum(int(hits) * trials for hits, trials in lucky.items()) > 0

    def test_minimizers_match_brute_force(self):
        # Re-derive each trial's instance from its recorded seed and compare
        # the reported minimizer against an exhaustive scan.
        from layeredsfm.family import sample_instance
        from layeredsfm.oracles import HonestOracle
        from layeredsfm.sets import GroundConfig, Subset
        from layeredsfm.solvers import brute_force_minimize

        report = run_parallel(cfg(mode="parallel", n=16, r=2, trials=5, queries_per_round=8))
        assert report.passed
        ground = GroundConfig(16, 2)
        for trial in report.trials:
            inst = sample_instance(ground, trial["seed"])
            brute = brute_force_minimize(HonestOracle(inst))
            assert Subset.from_indices(16, trial["result"]["minimizer"]) == brute.minimizer


class TestRunHiding:
    def test_r1_hit_rate_near_quarter(self):
        report = run_hiding(cfg(mode="hiding", n=4, r=1, trials=100_000, seed=5))
        assert report.passed
        assert abs(report.aggregate["hits"] / 100_000 - 0.25) <= 0.01

    def test_exact_hiding_always(self):
        report = run_hiding(cfg(mode="hiding", n=8, r=2, trials=5_000, seed=6))
        assert report.passed
        assert report.aggregate["exact_hiding_identical"] == 1000

    def test_monte_carlo_part_reads_nothing_of_n(self):
        # Part 1 draws only the block's 2r bits, so one seed gives the same
        # estimate at every n; n = 64 also shows it never samples n-bit words.
        keys = ("hits", "balanced_rate", "prediction")
        seen = set()
        for n in (2, 8, 16, 64):
            report = run_hiding(cfg(mode="hiding", n=n, r=1, trials=2_000, seed=4))
            assert report.passed and report.aggregate["exact_hiding_identical"] == 1000
            seen.add(tuple(report.aggregate[k] for k in keys))
        assert len(seen) == 1


class TestRunBench:
    def test_sweep(self):
        report = run_bench(cfg(mode="bench", n=(8, 16), r=1, trials=5, seed=7))
        assert report.passed
        assert set(report.aggregate["per_n"]) == {"8", "16"}
        assert report.aggregate["measured_alpha"] <= 8
        assert report.aggregate["per_n"]["8"]["cross_checked_brute"] == 5

    def test_cross_check_with_brute_force_small_n(self):
        report = run_bench(cfg(mode="bench", n=(12,), r=1, trials=10, seed=8))
        assert report.passed
        assert report.aggregate["per_n"]["12"]["cross_checked_brute"] == 10


class TestReports:
    def test_byte_identical_across_runs(self):
        for config in (
            cfg(n=6, trials=3, seed=11),
            cfg(mode="duel", n=16),
            cfg(mode="parallel", n=8, r=2, trials=3, queries_per_round=4),
            cfg(mode="hiding", n=4, r=1, trials=2000),
            cfg(mode="bench", n=(8,), trials=3),
        ):
            a = run_experiment(config).to_json_text()
            b = run_experiment(config).to_json_text()
            assert a == b

    def test_csv_mirrors_aggregate(self):
        report = run_duel(cfg(mode="duel", n=16))
        text = report.to_csv_text()
        lines = text.strip().splitlines()
        assert lines[0] == "section,key,value"
        assert any(line.startswith("aggregate,queries,") for line in lines)
        assert "result,passed,true" in lines[-1]

    def test_json_is_valid_and_carries_verdict(self):
        report = run_verify(cfg(n=6, trials=2))
        data = json.loads(report.to_json_text())
        assert data["passed"] is True
        assert data["config"]["mode"] == "verify"

    def test_bench_csv_flattens_the_per_n_table(self):
        # The CSV spells each nested aggregate key as a dotted path; rebuilt,
        # the paths give back the aggregate.
        report = run_bench(cfg(mode="bench", n=(8, 16), trials=2))
        rows = list(csv.reader(io.StringIO(report.to_csv_text())))
        nested: dict = {}
        for section, key, value in rows:
            if section == "aggregate":
                *path, last = key.split(".")
                node = nested
                for part in path:
                    node = node.setdefault(part, {})
                node[last] = json.loads(value)
        assert nested == report.aggregate
        assert ["aggregate", "per_n.16.queries.max", str(report.aggregate["per_n"]["16"]["queries"]["max"])] in rows


def _failing_entry(report, name):
    """The failing assertion ``name`` of ``report``, read back from its JSON
    text once both that text and the CSV text are checked to carry the failure."""
    data = json.loads(report.to_json_text())
    assert data["passed"] is False
    rows = list(csv.reader(io.StringIO(report.to_csv_text())))
    assert ["assertion", name, "fail"] in rows and rows[-1] == ["result", "passed", "false"]
    (entry,) = [a for a in data["assertions"] if a["name"] == name]
    assert entry["passed"] is False
    return entry


class TestFailingReports:
    """Faults injected into a run fail its report, which still serializes and
    carries the evidence to replay the failure."""

    def test_parallel_trial_with_a_wrong_minimizer(self, monkeypatch):
        from layeredsfm.family import sample_instance
        from layeredsfm.sets import GroundConfig, Subset

        solve = harness.singleton_parallel_minimize
        monkeypatch.setattr(harness, "singleton_parallel_minimize",
                            lambda oracle: dataclasses.replace(solve(oracle), minimizer=Subset(8)))
        report = run_parallel(cfg(mode="parallel", n=8, trials=2, queries_per_round=4))
        assert report.aggregate["rounds_exact"] == 2 and report.aggregate["correct"] == 0
        _failing_entry(report, "all_correct")
        for trial in report.trials:
            evidence = _failing_entry(report, f"trial_{trial['trial']}")["evidence"]
            assert evidence["instance"] == sample_instance(GroundConfig(8, 1), trial["seed"]).to_json()
            assert evidence["result"] == trial["result"] and evidence["result"]["minimizer"] == []

    def test_hiding_triple_whose_second_instance_drops_the_prefix(self, monkeypatch):
        from layeredsfm.family import LayeredInstance, evaluate_closed_form, sample_instance
        from layeredsfm.rationals import format_value
        from layeredsfm.sets import Subset

        calls = 0

        def second_drops_the_prefix(ground, seed, prefix=()):
            nonlocal calls
            calls += 1
            return sample_instance(ground, seed, prefix if calls % 2 else ())

        monkeypatch.setattr(harness, "sample_instance", second_drops_the_prefix)
        report = run_hiding(cfg(mode="hiding", n=8, trials=100, seed=6))
        assert calls == 2 * 1000 and report.aggregate["exact_hiding_identical"] < 1000
        evidence = _failing_entry(report, "exact_hiding")["evidence"]
        query = Subset.from_json(8, evidence["query"])
        for side in ("a", "b"):
            inst = LayeredInstance.from_json(evidence[f"instance_{side}"])
            assert format_value(evaluate_closed_form(inst, query)) == evidence[f"value_{side}"]
        assert evidence["value_a"] != evidence["value_b"]

    def test_bench_trial_with_a_wrong_minimizer(self, monkeypatch):
        from layeredsfm.family import sample_instance
        from layeredsfm.sets import GroundConfig, Subset

        solve = harness.family_aware_minimize
        monkeypatch.setattr(harness, "family_aware_minimize",
                            lambda oracle: dataclasses.replace(solve(oracle), minimizer=Subset(8)))
        report = run_bench(cfg(mode="bench", n=(8,), trials=2))
        assert report.aggregate["per_n"]["8"]["correct"] == 0
        assert report.aggregate["per_n"]["8"]["cross_checked_brute"] == 0
        _failing_entry(report, "all_correct")
        for trial in report.trials:
            evidence = _failing_entry(report, f"bench_n8_trial_{trial['trial']}")["evidence"]
            assert evidence["instance"] == sample_instance(GroundConfig(8, 1), trial["seed"]).to_json()
            assert evidence["result"]["minimizer"] == [] and evidence["result"]["queries"] == trial["queries"]

    def test_bench_over_its_query_cap(self, monkeypatch):
        monkeypatch.setattr(harness, "query_cap", lambda n: 0)
        report = run_bench(cfg(mode="bench", n=(8,), trials=2))
        entry = _failing_entry(report, "query_budget")
        assert entry["detail"] == f"measured alpha {report.aggregate['measured_alpha']:.3f} <= 8"
        assert report.aggregate["per_n"]["8"]["correct"] == 2


def _runnable_python310():
    """A python3.10 that runs: the one on PATH, else one installed under
    pyenv's ``versions`` directory (a pyenv shim on PATH fails when no 3.10
    is selected).  None when no 3.10 interpreter runs."""
    versions = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    candidates = [shutil.which("python3.10"), *sorted(map(str, versions.glob("3.10.*/bin/python3.10")))]
    for exe in filter(None, candidates):
        try:
            probe = subprocess.run([exe, "-c", "import sys; assert sys.version_info[:2] == (3, 10)"],
                                   capture_output=True, timeout=60)
        except OSError:
            continue
        if probe.returncode == 0:
            return exe
    return None


class TestCli:
    def test_verify_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main(["verify", "--n", "6", "--r", "1", "--trials", "3", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        captured = capsys.readouterr().out
        assert "[PASS]" in captured

    def test_duel_csv_stdout(self, capsys):
        code = cli_main(["duel", "--n", "8", "--solver", "family_aware", "--format", "csv"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "section,key,value" in captured

    def test_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"mode": "verify", "n": [6], "r": 1, "trials": 2}))
        assert cli_main(["verify", "--config", str(config_path)]) == 0
        capsys.readouterr()

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"mode": "verify", "n": [6], "trials": 2, "seed": 1}))
        out = tmp_path / "r.json"
        assert cli_main(["verify", "--config", str(config_path), "--seed", "9",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 9
        capsys.readouterr()

    def test_invalid_config_exits_2(self, capsys):
        code = cli_main(["duel", "--n", "9"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ['{"n": "abc"}', '{"n": [6], "trials": 1.5}', '[6]', '{"n": [',
                                         '{"n": [6], "trials": 2, "sed": 9}', '{"mode": "duel", "n": [6]}'])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, content):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(content)
        assert cli_main(["verify", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["bench", "--n", "8", "--trials", "1", "--solver", "brute_force"],
        ["verify", "--n", "6", "--trials", "1", "--queries-per-round", "5"],
        ["parallel", "--n", "8", "--trials", "1", "--solver", "singleton_parallel"],
        ["duel", "--n", "8", "--queries-per-round", "5"],
    ])
    def test_setting_the_mode_does_not_read_exits_2(self, capsys, argv):
        assert cli_main(argv) == 2
        assert "does not read" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["abc", "8,x", "1.5"])
    def test_non_integer_n_is_a_usage_error(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify", "--n", text])
        assert exc.value.code == 2
        assert f"expected integer or comma-separated integers, got {text!r}" in capsys.readouterr().err

    def test_seed_at_two_to_the_64_exits_2(self, capsys):
        assert cli_main(["verify", "--n", "6", "--trials", "1", "--seed", str(2**64 - 1)]) == 0
        capsys.readouterr()
        for seed in (2**64, 3 + 2**64):
            assert cli_main(["verify", "--n", "6", "--trials", "1", "--seed", str(seed)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: seed must be below 2**64, got {seed}\n" and captured.out == ""

    def test_zero_half_width_exits_2_with_the_ground_rule(self, capsys):
        assert cli_main(["verify", "--n", "6", "--r", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: layer half-width must be positive, got 0\n" and captured.out == ""

    def test_ground_size_above_capacity_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"mode": "bench", "n": [2048]}))
        for argv in (["bench", "--config", str(config_path)], ["bench", "--n", "2048", "--trials", "1"]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "capacity" in err

    @pytest.mark.parametrize("n,r", [("7", "1"), ("5", "2")])
    def test_verify_with_dummies_exits_2(self, capsys, n, r):
        # Dummy elements make the minimizer non-unique, so the run would
        # report a false failure; the config is refused instead.
        assert cli_main(["verify", "--n", n, "--r", r, "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "2*r | n" in captured.err
        assert "[FAIL]" not in captured.out

    def test_duel_with_brute_force_above_the_exhaustive_cap_exits_2(self, capsys):
        # Brute force asks all 2^n subsets and refuses n above EXHAUSTIVE_CAP,
        # so the config is refused before the duel starts.
        assert cli_main(["duel", "--n", str(EXHAUSTIVE_CAP + 8), "--solver", "brute_force"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and f"capped at n = {EXHAUSTIVE_CAP}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        ExperimentConfig(mode="duel", n=(EXHAUSTIVE_CAP,), solver="brute_force")  # the cap itself is allowed

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        # Exit code 1 means a failed assertion; a report that cannot be
        # written is an error line and exit 2, as for a bad config.
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out in (tmp_path, blocker / "report.json"):  # a directory; a parent that is a file
            assert cli_main(["verify", "--n", "4", "--trials", "1", "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: cannot write report: ") and "Traceback" not in captured.err
            assert "report written" not in captured.out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"] and blocker.read_text() == ""

    def test_subcommands_are_the_runner_table(self):
        # One list of modes: the subcommands, their order and their help text
        # all come from RUNNERS, which pairs each mode with its runner.
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert MODES == tuple(RUNNERS) == tuple(sub.choices)
        assert [(a.dest, a.help) for a in sub._choices_actions] == [
            (mode, help_text) for mode, (_, help_text) in RUNNERS.items()
        ]
        assert all(run is globals()[f"run_{mode}"] for mode, (run, _) in RUNNERS.items())

    def test_python_floor_writes_the_pinned_parallel_report(self, tmp_path):
        # pyproject.toml declares requires-python >= 3.10; where a python3.10
        # runs, the CLI under it must write the pinned multi-word parallel
        # report byte for byte.
        exe = _runnable_python310()
        if exe is None:
            pytest.skip("no python3.10 that runs")
        (config, digest), = [(c, d) for c, d in REPORTS if c.mode == "parallel" and c.n == (256,)]
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = tmp_path / "parallel.json"
        proc = subprocess.run(
            [exe, "-m", "layeredsfm.cli", "parallel", "--n", "256", "--r", str(config.r),
             "--seed", str(config.seed), "--trials", str(config.trials),
             "--queries-per-round", str(config.queries_per_round), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_entry_point_runs_as_module(self):
        # The subprocess does not inherit pytest's pythonpath setting.
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "layeredsfm.cli", "verify", "--n", "4", "--trials", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0

    def test_runtime_imports_the_standard_library_only(self):
        # The package declares no dependencies.  With site-packages off (-S)
        # and the environment ignored (-I), importing the package and its CLI
        # must load modules only from src/ or the interpreter's stdlib, which
        # holds site-packages (purelib, platlib) and so excludes it by name.
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            f"import sys; sys.path.insert(0, {str(src)!r}); before = set(sys.modules)\n"
            "import layeredsfm, layeredsfm.cli\n"
            "new = {name: getattr(sys.modules[name], '__file__', None) for name in set(sys.modules) - before}\n"
            "import json, sysconfig\n"
            "print(json.dumps({'paths': sysconfig.get_paths(), 'new': new}))\n"
        )
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)

        def under(file, keys):
            return any(Path(file).resolve().is_relative_to(Path(loaded["paths"][key]).resolve()) for key in keys)

        assert Path(loaded["new"]["layeredsfm.cli"]).resolve().is_relative_to(src)
        outside = {name: file for name, file in loaded["new"].items()
                   if file is not None and not Path(file).resolve().is_relative_to(src)
                   and (not under(file, ("stdlib", "platstdlib")) or under(file, ("purelib", "platlib")))}
        assert outside == {}
