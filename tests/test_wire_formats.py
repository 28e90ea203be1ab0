"""The instance, transcript and experiment-config JSON parsers are total:
malformed input raises ValueError, anything accepted round-trips through
``to_json``."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layeredsfm.family import LayeredInstance, canonical_instance, sample_instance
from layeredsfm.harness import ExperimentConfig
from layeredsfm.oracles import HalvingAdversary, Transcript
from layeredsfm.rng import SplitMix64
from layeredsfm.sets import GroundConfig, Subset


def _transcript_json(n, queries, seed):
    adv = HalvingAdversary(GroundConfig(n, 1))
    rng = SplitMix64(seed)
    for _ in range(queries):
        adv.begin_round()
        adv.answer(rng.subset_of(Subset.full(n)))
    return adv.transcript.to_json()


VALID_INSTANCES = [
    canonical_instance(GroundConfig(4, 1)).to_json(),
    sample_instance(GroundConfig(7, 1), 3).to_json(),
    sample_instance(GroundConfig(8, 2), 4).to_json(),
]
VALID_TRANSCRIPTS = [_transcript_json(4, 2, 1), _transcript_json(8, 5, 2)]
VALID_CONFIGS = [
    ExperimentConfig("verify", (6,), r=1, seed=1, trials=5).to_json(),
    ExperimentConfig("duel", (16,), solver="brute_force").to_json(),
    ExperimentConfig("parallel", (8,), r=2, trials=3, queries_per_round=64).to_json(),
    ExperimentConfig("hiding", (7,), r=2, trials=1000).to_json(),
    ExperimentConfig("bench", (8, 16, 32), trials=3).to_json(),
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "r", "A", "R", "x"]), children, max_size=3),
    max_leaves=8,
)


@st.composite
def near_valid(draw, docs):
    """A valid document with one node replaced by arbitrary JSON or removed,
    or (rarely) arbitrary JSON on its own."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        parent = node
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if parent is None:
        return draw(json_values) if draw(st.booleans()) else doc
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return doc


def _same_transcript(a, b):
    return a.config == b.config and a.records == b.records


@settings(max_examples=300, deadline=None)
@given(near_valid(VALID_INSTANCES))
def test_instance_parser_is_total(data):
    try:
        inst = LayeredInstance.from_json(data)
    except ValueError:
        return
    assert LayeredInstance.from_json(inst.to_json()) == inst


@settings(max_examples=300, deadline=None)
@given(near_valid(VALID_TRANSCRIPTS))
def test_transcript_parser_is_total(data):
    try:
        transcript = Transcript.from_json(data)
    except ValueError:
        return
    assert _same_transcript(Transcript.from_json(transcript.to_json()), transcript)


@settings(max_examples=300, deadline=None)
@given(near_valid(VALID_CONFIGS))
def test_config_parser_is_total(data):
    try:
        config = ExperimentConfig.from_json(data)
    except ValueError:
        return
    assert ExperimentConfig.from_json(config.to_json()) == config


# Every value of an n = 4, r = 1 instance is a multiple of 1/_D4 in [0, 2]:
# a layer price t in [1, 16] times f_1 = 16, or t in [1, 8] times f_2 = 1.
_D4 = GroundConfig(4, 1).value_denominator


def _record(**changes):
    record = {"index": 1, "round": 1, "query": [0], "value": "1"}
    record.update(changes)
    return {k: v for k, v in record.items() if v is not None}


@pytest.mark.parametrize("parse,data", [
    (LayeredInstance.from_json, {"n": 4}),
    (LayeredInstance.from_json, {"n": "4", "r": 1, "layers": []}),
    (LayeredInstance.from_json, {"n": 4, "r": 1, "layers": [{"A": [0, 1]}, {"A": [2, 3], "R": [2]}]}),
    (LayeredInstance.from_json, [4, 1]),
    (LayeredInstance.from_json, {"n": 4, "r": 1, "layers": [{"A": [1, 0, True], "R": [False]},
                                                            {"A": [3, 2], "R": [2, 2]}]}),
    (LayeredInstance.from_json, {"n": 4, "r": 1, "layers": [{"A": [1, 0], "R": [0]},
                                                            {"A": [2, 3], "R": [2]}]}),
    (LayeredInstance.from_json, {"n": 4, "r": 1, "layers": [{"A": [0, 1], "R": [0, 0]},
                                                            {"A": [2, 3], "R": [2]}]}),
    (Transcript.from_json, {"config": {"n": 4, "r": 1}, "records": [_record(round=None)]}),
    (Transcript.from_json, {"config": {"n": 4, "r": 1}, "records": [_record(index="1")]}),
    (Transcript.from_json, {"config": {"n": 4, "r": 1}, "records": [_record(query=["0"])]}),
    (Transcript.from_json, {"config": {"n": 4, "r": 1}, "records": [_record(round=True)]}),
    (Transcript.from_json, {"records": []}),
    (Transcript.from_json, {"config": {"n": 4, "r": 1}, "records": [_record(value=f"1/{3 * _D4}")]}),
    (Transcript.from_json, {"config": {"n": 4, "r": 1}, "records": [_record(value=f"-1/{_D4}")]}),
    (Transcript.from_json, {"config": {"n": 4, "r": 1}, "records": [_record(value=f"{2 * _D4 + 1}/{_D4}")]}),
    (Transcript.from_json, {"config": {"n": 4, "r": 1}, "records": [_record(value=f"{2 * _D4 - 1}/{_D4}")]}),
    (Transcript.from_json, {"config": {"n": 4, "r": 1}, "records": [_record(value=f"9/{_D4}")]}),
    (LayeredInstance.from_json, {**VALID_INSTANCES[0], "extra": 1}),
    (LayeredInstance.from_json, {"n": 4, "r": 1, "layers": [{"A": [0, 1], "R": [0], "x": 0},
                                                            {"A": [2, 3], "R": [2]}]}),
    (Transcript.from_json, {**VALID_TRANSCRIPTS[0], "meta": {}}),
    (Transcript.from_json, {"config": {"n": 4, "r": 1, "seed": 0}, "records": [_record()]}),
    (Transcript.from_json, {"config": {"n": 4, "r": 1}, "records": [_record(note="x")]}),
], ids=["instance-missing-r", "instance-str-n", "instance-layer-without-R", "instance-not-object",
        "instance-bool-and-unsorted-indices", "instance-unsorted-block", "instance-duplicate-index",
        "record-without-round", "record-str-index", "record-str-query", "record-bool-round",
        "transcript-without-config", "record-value-off-lattice", "record-value-negative",
        "record-value-above-two", "record-value-no-layer-price", "record-value-between-layers", "instance-extra-key", "instance-layer-extra-key",
        "transcript-extra-key", "transcript-config-extra-key", "record-extra-key"])
def test_malformed_input_raises_value_error(parse, data):
    with pytest.raises(ValueError):
        parse(data)


def test_valid_documents_round_trip():
    for data in VALID_INSTANCES:
        assert LayeredInstance.from_json(data).to_json() == data
    for data in VALID_TRANSCRIPTS:
        assert Transcript.from_json(data).to_json() == data
    for data in VALID_CONFIGS:
        assert ExperimentConfig.from_json(data).to_json() == data


@pytest.mark.parametrize("value", ["0", "2", f"1/{_D4}", f"8/{_D4}", f"{2 * _D4 - 16}/{_D4}", f"2/{2 * _D4}"])
def test_transcript_values_on_the_lattice_parse(value):
    # Both ends of [0, 2] and layer prices between them are accepted; an
    # unreduced text parses to its reduced value.
    data = {"config": {"n": 4, "r": 1}, "records": [_record(value=value)]}
    (rec,) = Transcript.from_json(data).records
    assert GroundConfig(4, 1).code_value(rec.code) == Fraction(value)
