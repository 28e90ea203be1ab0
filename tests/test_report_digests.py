"""Reports and transcripts are pinned byte for byte.

Each digest is the sha256 of ``Report.to_json_text()`` (or of one duel's
transcript JSON) for a small config of every mode.  Reports must be
byte-identical across runs and across changes that keep behaviour, so a
change to any of these bytes fails here rather than only in a benchmark
run.  A change that is meant to alter a report updates its digest and
says why.
"""

import hashlib
import json

import pytest

from layeredsfm.harness import ExperimentConfig, run_experiment
from layeredsfm.oracles import HalvingAdversary
from layeredsfm.sets import GroundConfig
from layeredsfm.solvers import SOLVERS


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


REPORTS = [
    (ExperimentConfig("verify", (8,), r=1, seed=3, trials=2),
     "8fa5f820ace4e6bd85414b7493b13d83b307f76058d650cddd1f8ef1ced9df45"),
    (ExperimentConfig("duel", (16,), solver="family_aware"),
     "162d40280fa0d4270503627dbbbe298c2f1791e20e4ae832dfce58a3658ef3c7"),
    (ExperimentConfig("duel", (64,), solver="family_aware"),
     "4f3f22860ddcf57c4304421afeacdbee1f36581d6e35219e62d37490a9215d02"),
    (ExperimentConfig("duel", (16,), solver="brute_force"),
     "07be885b11f4724604652772f19b34ec8d9c7261c3a44eef33865ab671003cc1"),
    (ExperimentConfig("parallel", (32,), r=2, seed=5, trials=2),
     "f3f1f52c3a3f350c636b9d1f4e27931349a0ed83f99feb20e0b539159338f9ca"),
    # Pools of up to 256 elements: the lucky-hit count spans several 64-bit words.
    (ExperimentConfig("parallel", (256,), r=2, seed=9, trials=2, queries_per_round=64),
     "2cb02381b286b71e33a18ca558be681243ad9ad11a5254e11bc80d31446f4db5"),
    (ExperimentConfig("bench", (16,), r=1, seed=7, trials=2),
     "98389a1e586c2398714053d42f9c01895b24ebd160cb4bb215213ce7ffde8411"),
    (ExperimentConfig("hiding", (8,), r=1, seed=11, trials=200),
     "02575cbacdc50a82cf5fca190273926b3050ea9f424aff28209619d3fdf9e58b"),
]


@pytest.mark.parametrize("config,digest", REPORTS,
                         ids=[f"{c.mode}-n{c.n[0]}-{c.solver}" for c, _ in REPORTS])
def test_report_bytes(config, digest):
    assert _sha256(run_experiment(config).to_json_text()) == digest


@pytest.mark.parametrize("solver,n,digest", [
    ("family_aware", 64, "9161161e31bf3274eb50b3a41aea6c7b45edde745bf180ebd63519f92bc7de7c"),
    ("singleton_parallel", 32, "56e2de0890e4eb5524a0893e94a3b6dd8fae3f547190c4904b50a7ff550ca58f"),
])
def test_duel_transcript_bytes(solver, n, digest):
    cfg = GroundConfig(n, 1)
    adversary = HalvingAdversary(cfg)
    SOLVERS[solver](adversary, cfg)
    adversary.finalize()
    assert _sha256(json.dumps(adversary.transcript.to_json(), sort_keys=True)) == digest
