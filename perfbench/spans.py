"""Span tracing of layeredsfm's entry points, installed from outside the package.

Each entry point in ``LAYERS`` is replaced, for the length of one traced
op, by a wrapper that records a span: name, start, end, parent span and
op id.  ``from .family import evaluate_closed_form`` binds the function in
every importing module's namespace, and ``solvers.SOLVERS`` holds direct
references, so a wrapper is installed wherever the original object is
found.  Methods are swapped on their class.  ``src/`` is never edited.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

E2E = "ops_per_ref_s, op_ref_s_p50"


@dataclass(frozen=True)
class Layer:
    span: str       # "<module>.<entry point>", also the metric prefix
    module: str     # layeredsfm submodule defining the entry point
    attr: str       # "function" or "Class.method"
    workloads: str  # workloads whose end-to-end metric it should move
    moves: str = E2E


LAYERS = (
    Layer("sets.indices", "sets", "Subset.indices", "duel, adaptive, exhaustive"),
    Layer("sets.from_indices", "sets", "Subset.from_indices", "duel, adaptive, exhaustive"),
    Layer("sets.enumerate_subsets", "sets", "enumerate_subsets", "exhaustive"),
    Layer("rationals.format_value", "rationals", "format_value", "duel"),
    Layer("rng.subset_of", "rng", "SplitMix64.subset_of", "parallel"),
    Layer("rng.sample", "rng", "SplitMix64.sample", "parallel"),
    Layer("family.first_divergent_layer", "family", "first_divergent_layer",
          "adaptive, duel, parallel"),
    Layer("family.layer_value", "family", "_layer_value", "parallel, exhaustive"),
    Layer("family.evaluate_closed_form", "family", "evaluate_closed_form", "all"),
    Layer("family.sample_instance", "family", "sample_instance", "all",
          E2E + " (setup_s if sampling moves to set-up)"),
    Layer("oracles.honest_answer", "oracles", "HonestOracle.answer", "parallel, adaptive"),
    Layer("oracles.adversary_answer", "oracles", "HalvingAdversary.answer", "duel"),
    Layer("oracles.committed_layer_value", "oracles",
          "HalvingAdversary._committed_layer_value", "duel"),
    Layer("oracles.transcript_append", "oracles", "Transcript.append", "duel"),
    Layer("oracles.transcript_replay", "oracles", "Transcript.replay", "duel"),
    Layer("oracles.transcript_to_json", "oracles", "Transcript.to_json", "duel"),
    Layer("oracles.finalize", "oracles", "HalvingAdversary.finalize", "duel"),
    Layer("solvers.family_aware", "solvers", "family_aware_minimize",
          "adaptive, duel, exhaustive"),
    Layer("solvers.singleton_parallel", "solvers", "singleton_parallel_minimize", "parallel"),
    Layer("solvers.brute_force", "solvers", "brute_force_minimize", "exhaustive"),
    Layer("solvers.decode", "solvers", "decode_layer_answer", "adaptive, duel"),
    Layer("verify.tabulate", "verify", "_tabulate", "exhaustive"),
    Layer("verify.pair_scan", "verify", "check_submodular_pairs", "exhaustive"),
    Layer("verify.check_function_properties", "verify", "check_function_properties",
          "exhaustive"),
    Layer("harness.run", "harness", "run_experiment", "all, mostly duel"),
    Layer("harness.to_json_text", "harness", "Report.to_json_text", "all, mostly duel"),
)

# Counts taken from arguments and results at span boundaries, for ratios.
# Each hook adds to the recorder's tally.
def _count_divergent(tally: Counter, args, k) -> None:
    if k is not None:
        tally.update(divergent=1, divergent_share=k / args[0].config.layer_count)


def _count_value(tally: Counter, args, value) -> None:
    tally.update(values=1, den_bits=value.denominator.bit_length())


def _count_engaged(tally: Counter, args, value) -> None:
    adversary = args[0]
    tally.update(adversary_queries=1, engaged=adversary.engaged_layers[-1] is not None)


def _count_solver(tally: Counter, args, result) -> None:
    tally.update(solver_queries=result.queries, solver_rounds=result.rounds)


HOOKS = {
    "family.first_divergent_layer": _count_divergent,
    "family.layer_value": _count_value,
    "oracles.adversary_answer": _count_engaged,
    "solvers.family_aware": _count_solver,
    "solvers.singleton_parallel": _count_solver,
    "solvers.brute_force": _count_solver,
}

# Per-layer metrics for the machine-readable result, with their units.  The
# printed table has every span; self times enter this list only for spans
# that run on every workload, so that no listed time is structurally zero.
PER_LAYER_METRICS = (
    *((f"{span}.self_s", "s/op") for span in (
        "family.first_divergent_layer", "family.layer_value", "family.evaluate_closed_form",
        "sets.indices", "sets.from_indices", "harness.run", "harness.to_json_text")),
    ("oracles.self_s", "s/op"),
    ("solvers.self_s", "s/op"),
    *((f"{span}.calls", "count/op") for span in (
        "family.first_divergent_layer", "family.layer_value", "family.evaluate_closed_form",
        "family.sample_instance", "sets.indices", "sets.from_indices",
        "sets.enumerate_subsets", "rationals.format_value", "rng.subset_of", "rng.sample",
        "oracles.honest_answer", "oracles.adversary_answer",
        "oracles.committed_layer_value", "solvers.decode")),
    ("family.divergent_layer_mean", "ratio"),
    ("family.value_den_bits_mean", "bits"),
    ("oracles.engaged_ratio", "ratio"),
    ("solvers.queries_per_op", "count/op"),
    ("solvers.rounds_per_op", "count/op"),
    ("trace.overhead_ratio", "ratio"),
)


class SpanRecorder:
    """In-memory span store: one entry per call, in parallel typed arrays."""

    def __init__(self) -> None:
        self.names = [layer.span for layer in LAYERS]
        self.name_id = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.tally: Counter = Counter()
        self._stack = [-1]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, nid: int, fn):
        hook = HOOKS.get(self.names[nid])
        tally = self.tally

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(tally, args, result)
            return result

        return traced

    def wrap_generator(self, nid: int, fn):
        """One span per ``next``: the generator's own work, not its consumer's."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced

    def layer_totals(self) -> tuple[list[int], list[float], list[float]]:
        """Calls, total time and self time per span name.

        Self time is a span's duration minus the part covered by its
        children; spans nest on one thread, so that part is the sum of
        the children's durations.  No entry point calls itself, so total
        time sums no interval twice.
        """
        dur = array("d", map(float.__sub__, self.end, self.start))
        covered = array("d", bytes(8 * len(dur)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls = [0] * len(self.names)
        total_s = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            total_s[nid] += dur[i]
            self_s[nid] += dur[i] - covered[i]
        return calls, total_s, self_s

    def write(self, path: Path) -> None:
        """Header line (JSON) then the raw arrays, in the header's order."""
        fields = ("name_id", "parent", "op", "start", "end")
        header = {
            "names": self.names,
            "spans": len(self.start),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "clock": "time.perf_counter, seconds",
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


class Instrumentation:
    """Swaps every traced entry point in and out of the loaded package."""

    def __init__(self, recorder: SpanRecorder) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "layeredsfm" or name.startswith("layeredsfm.")]
        self._swaps: list[tuple[object, str, object, object]] = []
        for nid, layer in enumerate(LAYERS):
            owner = sys.modules[f"layeredsfm.{layer.module}"]
            cls_name, _, attr = layer.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(recorder.wrap(nid, raw.__func__))
                else:
                    wrapped = recorder.wrap(nid, raw)
                self._swaps.append((cls, attr, raw, wrapped))
                continue
            fn = getattr(owner, attr)
            if inspect.isgeneratorfunction(fn):
                wrapped = recorder.wrap_generator(nid, fn)
            else:
                wrapped = recorder.wrap(nid, fn)
            tables = {}  # id -> dict: one table can be bound in several modules
            for module in modules:
                for key, value in vars(module).items():
                    if value is fn:
                        self._swaps.append((module, key, fn, wrapped))
                    elif isinstance(value, dict) and not key.startswith("__"):
                        tables[id(value)] = value  # e.g. solvers.SOLVERS
            for table in tables.values():
                self._swaps.extend((table, k, fn, wrapped) for k, v in table.items() if v is fn)

    def _apply(self, pick: int) -> None:
        for target, key, *pair in self._swaps:
            if isinstance(target, dict):
                target[key] = pair[pick]
            else:
                setattr(target, key, pair[pick])

    def install(self) -> None:
        self._apply(1)

    def uninstall(self) -> None:
        self._apply(0)


def per_layer_metrics(recorder: SpanRecorder, traced_s: list[float], untraced_s: list[float]) -> dict:
    """Per traced op: calls, total and self time of every span, module self
    totals, the ratios of PER_LAYER_METRICS, and the tracing overhead."""
    ops = len(traced_s)
    calls, total_s, self_s = recorder.layer_totals()
    values: dict[str, float] = {}
    for nid, span in enumerate(recorder.names):
        values[f"{span}.calls"] = calls[nid] / ops
        values[f"{span}.total_s"] = total_s[nid] / ops
        values[f"{span}.self_s"] = self_s[nid] / ops
    for module in ("oracles", "solvers"):
        values[f"{module}.self_s"] = sum(
            s for span, s in zip(recorder.names, self_s) if span.startswith(module + ".")) / ops
    t = recorder.tally
    values["family.divergent_layer_mean"] = t["divergent_share"] / t["divergent"] if t["divergent"] else 0.0
    values["family.value_den_bits_mean"] = t["den_bits"] / t["values"] if t["values"] else 0.0
    values["oracles.engaged_ratio"] = t["engaged"] / t["adversary_queries"] if t["adversary_queries"] else 0.0
    values["solvers.queries_per_op"] = t["solver_queries"] / ops
    values["solvers.rounds_per_op"] = t["solver_rounds"] / ops
    values["trace.overhead_ratio"] = sum(traced_s) / sum(untraced_s) - 1.0
    return values


def format_table(values: dict, traced_s: list[float], untraced_s: list[float]) -> str:
    """Per-span table: calls, total and self time, self share of a traced op,
    and the end-to-end metric the span should move."""
    op_s = sum(traced_s) / len(traced_s)
    lines = [f"{'span':34} {'calls/op':>10} {'total_s/op':>11} {'self_s/op':>10} {'share':>6}"
             "  moves (on workloads)"]
    for layer in LAYERS:
        calls, total_s, self_s = (values[f"{layer.span}.{m}"] for m in ("calls", "total_s", "self_s"))
        lines.append(f"{layer.span:34} {calls:10.1f} {total_s:11.6f} {self_s:10.6f} "
                     f"{self_s / op_s:6.1%}  {layer.moves} (on {layer.workloads})")
    lines.append("")
    for name in ("family.divergent_layer_mean", "family.value_den_bits_mean",
                 "oracles.engaged_ratio", "solvers.queries_per_op", "solvers.rounds_per_op"):
        lines.append(f"{name:36} {values[name]:12.4f}")
    untraced_ops = len(untraced_s) / sum(untraced_s)
    traced_ops = len(traced_s) / sum(traced_s)
    lines.append(
        f"tracing overhead: ops_per_s {untraced_ops:.4f} untraced vs {traced_ops:.4f} traced "
        f"(difference {untraced_ops - traced_ops:.4f} 1/s, op time {values['trace.overhead_ratio']:+.1%}, "
        f"{len(traced_s)} op pairs)")
    return "\n".join(lines)
