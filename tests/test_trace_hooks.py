"""perfbench's ``--trace 1`` hooks still find every entry point they wrap.

``perfbench/spans.py`` swaps each entry point in its ``LAYERS`` table,
looked up by module and name, for a span-recording wrapper.  Building and
installing that instrumentation here makes a rename in ``src/`` that would
break tracing fail the test suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from layeredsfm import harness  # loads every traced module
from layeredsfm.harness import ExperimentConfig
from layeredsfm.solvers import SOLVERS, family_aware_minimize, singleton_parallel_minimize

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every name bound in a layeredsfm module or class, and in ``SOLVERS``."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "layeredsfm" and not name.startswith("layeredsfm."):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update(((name, key, attr), v) for attr, v in vars(value).items())
    out.update((("SOLVERS", key), value) for key, value in SOLVERS.items())
    return out


def test_instrumentation_wraps_runs_and_restores(spans):
    before = _bindings()
    recorder = spans.SpanRecorder()
    instrumentation = spans.Instrumentation(recorder)
    configs = [
        ExperimentConfig(mode="duel", n=(8,), r=1, seed=0, trials=1, solver="family_aware"),
        ExperimentConfig(mode="parallel", n=(8,), r=1, seed=0, trials=1, queries_per_round=4),
        ExperimentConfig(mode="bench", n=(8,), r=1, seed=0, trials=1),
    ]
    instrumentation.install()
    try:
        assert SOLVERS["family_aware"] is not family_aware_minimize
        for config in configs:
            report = harness.run_experiment(config)  # looked up here, as wrapped
            assert report.passed
            report.to_json_text()
    finally:
        instrumentation.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert SOLVERS["family_aware"] is family_aware_minimize
    assert SOLVERS["singleton_parallel"] is singleton_parallel_minimize

    calls = dict(zip(recorder.names, recorder.layer_totals()[0]))
    assert len(calls) == len(spans.LAYERS)
    assert calls["harness.run"] == calls["harness.to_json_text"] == len(configs)
    for span in ("solvers.family_aware", "solvers.singleton_parallel", "solvers.decode",
                 "oracles.finalize", "oracles.transcript_replay", "oracles.transcript_append",
                 "oracles.committed_layer_value", "family.sample_instance"):
        assert calls[span] > 0, span
