"""Query interfaces: an honest counting oracle and the halving adversary.

The honest oracle evaluates a fixed instance and keeps query/round
accounting.  The adversary (r = 1 only) delays committing the instance:
each layer keeps an active candidate set U inside the current pool, and
every query that matches all committed layers is answered as if its
block part were either the whole block ("both", when it covers at least
half of U) or empty ("none"), shrinking U accordingly.  Both answers are
computable before the block is chosen and stay exactly consistent with
every later commit inside U, so the finalized instance replays the whole
transcript bit for bit while no query ever matched a hidden set before
its layer was committed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .family import (
    ZERO,
    LayeredInstance,
    _divergent_layer,
    _layer_numerator,
    complete_instance,
    evaluate_closed_form,
    lowest_first,
)
from .rationals import ExactValue, format_value, parse_value
from .rng import SplitMix64
from .sets import GroundConfig, Subset


class CorruptedOracleError(RuntimeError):
    """An oracle answer fell outside the value set any instance can produce."""


class ReplayMismatchError(RuntimeError):
    """A transcript value disagrees with the finalized instance (internal bug)."""


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """One answered query: 1-based sequence number, round tag, set, exact value.
    Slotted, since a transcript keeps one per query (6,399 in a duel at n = 512)."""

    index: int
    round: int
    query: Subset
    value: ExactValue

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "round": self.round,
            "query": self.query.to_json(),
            "value": format_value(self.value),
        }


class Transcript:
    """Ordered, round-tagged log of (query, value) pairs for one interaction."""

    def __init__(self, config: GroundConfig):
        self.config = config
        self.records: list[QueryRecord] = []

    def append(self, record: QueryRecord) -> None:
        if self.records:
            last = self.records[-1]
            if record.index <= last.index or record.round < last.round:
                raise ValueError("records must have increasing indices and non-decreasing rounds")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def replay(self, inst: LayeredInstance) -> None:
        """Re-derive every recorded value from ``inst``; raise on any mismatch."""
        for rec in self.records:
            actual = evaluate_closed_form(inst, rec.query)
            if actual != rec.value:
                raise ReplayMismatchError(
                    f"record {rec.index}: query {rec.query.indices()} was answered "
                    f"{format_value(rec.value)} but the instance evaluates to {format_value(actual)}"
                )

    def to_json(self) -> dict:
        return {
            "config": {"n": self.config.n, "r": self.config.r},
            "records": [rec.to_json() for rec in self.records],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Transcript":
        """Inverse of :meth:`to_json`; malformed input raises ValueError."""
        try:
            config = GroundConfig(n=data["config"]["n"], r=data["config"]["r"])
            out = cls(config)
            for rec in data["records"]:
                index, round_ = rec["index"], rec["round"]
                if not all(type(v) is int and v >= 1 for v in (index, round_)):  # no bools
                    raise ValueError(f"record index and round must be positive integers, "
                                     f"got {index!r} and {round_!r}")
                out.append(
                    QueryRecord(
                        index=index,
                        round=round_,
                        query=Subset.from_json(config.n, rec["query"]),
                        value=parse_value(rec["value"]),
                    )
                )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed transcript JSON: {exc!r}") from exc
        return out


class _Oracle:
    """Query/round bookkeeping and the batch entry point shared by both oracles.

    Rounds are opened explicitly with ``begin_round``; queries issued
    before any round was opened fall into an implicit round 1.  Counting
    is synchronized.  Solvers use only ``begin_round`` and ``answer_batch(masks)``
    (integer numerators over ``config.value_denominator``); ``answer(s)``
    returns one value as a ``Fraction``.
    """

    def __init__(self, config: GroundConfig):
        self.config = config
        self.queries = 0
        self.rounds = 0
        self._lock = threading.Lock()

    def begin_round(self) -> None:
        with self._lock:
            self.rounds += 1

    def _count_queries(self, count: int = 1) -> tuple[int, int]:
        """Count ``count`` queries; return the last one's (1-based index, round)."""
        with self._lock:
            if self.rounds == 0:
                self.rounds = 1
            self.queries += count
            return self.queries, self.rounds

    def answer_batch(self, masks: Sequence[int]) -> list[int]:
        """Answer ``Subset(n, m)`` for each ``m`` in ``masks``, in order, as
        numerators over ``D = config.value_denominator``.

        This default asks :meth:`answer` once per mask, so an oracle that
        overrides only ``answer`` reaches the solvers through it.  An answer
        not a multiple of ``1/D`` raises :class:`CorruptedOracleError`.
        """
        n, big_d = self.config.n, self.config.value_denominator
        out = []
        for m in masks:
            value = self.answer(Subset(n, m))
            num, rest = divmod(value.numerator * big_d, value.denominator)
            if rest:
                raise CorruptedOracleError(
                    f"answer {format_value(value)} to query mask 0x{m:x} is not a multiple of 1/{big_d}"
                )
            out.append(num)
        return out

    def stats(self) -> tuple[int, int]:
        """(queries answered, rounds opened)."""
        return self.queries, self.rounds


class HonestOracle(_Oracle):
    """Evaluation oracle over a fixed instance, with query/round counters.

    ``answer`` and ``answer_batch`` may be called concurrently within a
    round; counting is synchronized.  ``answer_batch`` does not route
    through ``answer``: a subclass rewriting answers overrides it, or
    overrides ``answer`` and sets ``answer_batch = _Oracle.answer_batch``.
    """

    def __init__(self, inst: LayeredInstance):
        super().__init__(inst.config)
        self.instance = inst

    def answer(self, s: Subset) -> ExactValue:
        self._count_queries()
        return evaluate_closed_form(self.instance, s)

    @cached_property
    def _layers(self) -> list[tuple[int, int, int, int, int]]:
        """Per layer: block, hidden and pool masks, pool size, and the factor
        taking its numerators to denominator D (``config.layer_factors``)."""
        inst = self.instance
        return [
            (a.bits, h.bits, p.bits, len(p), f)
            for a, h, p, f in zip(inst.blocks, inst.hidden_sets, inst.pools,
                                  inst.config.layer_factors)
        ]

    def answer_batch(self, masks: Sequence[int]) -> list[int]:
        """The values at ``masks`` as numerators over ``config.value_denominator``,
        in integers: no ``Subset`` and no ``Fraction`` per query.

        Every mask is checked before any is counted: one outside
        ``[0, 2^n)`` raises ValueError and counts nothing.
        """
        if not masks:
            return []
        n = self.config.n
        if min(masks) < 0 or max(masks) >> n:
            raise ValueError(f"query masks must lie in [0, 2^{n})")
        self._count_queries(len(masks))
        prefix_unions, hidden_union = self.instance.prefix_unions, self.instance.hidden_union
        layers = self._layers
        out = []
        for m in masks:
            k = _divergent_layer(prefix_unions, m ^ hidden_union)
            if k is None:
                out.append(0)
            else:
                block, hidden, pool, pool_card, factor = layers[k - 1]
                out.append(factor * _layer_numerator(block, hidden, pool, pool_card, m))
        return out


@dataclass(frozen=True)
class LayerCommit:
    """Why and when one layer's (block, hidden) pair became fixed.

    ``cause`` is "halving" when the active set shrank to at most 3,
    "endgame" when a straddling query on a 2-element pool forced the pin,
    and "finalize" when :meth:`HalvingAdversary.finalize` completed the
    layer without any query forcing it.
    """

    layer: int
    block: Subset
    hidden: Subset
    pool_size: int
    engaged_queries: int
    cause: str


class HalvingAdversary(_Oracle):
    """Adaptive oracle that commits the instance as late as possible (r = 1).

    Supports the same ``answer``/``answer_batch``/``begin_round``/``stats``
    surface as the honest oracle so any solver can be dueled unmodified.
    A batch is answered mask by mask in integers, with the same records,
    round tags and commits as one ``answer`` per mask.  Strictly
    sequential: callers must not share an adversary across threads.
    """

    def __init__(self, config: GroundConfig):
        if config.r != 1:
            raise ValueError("the halving adversary supports r = 1 only")
        if config.n % 2 != 0:
            raise ValueError("the halving adversary needs an even ground size")
        super().__init__(config)
        self.transcript = Transcript(config)
        self.commits: list[LayerCommit] = []
        # engaged_layers[i]: active layer engaged by record i+1, or None when the
        # query diverged at an already-committed layer (or the instance was full).
        self.engaged_layers: list[int | None] = []
        self._pool = Subset.full(config.n)
        self._pool_masks: list[int] = []  # pool bits of each committed layer
        # Layer lookup masks over the committed layers, as in LayeredInstance.
        self._prefix_unions: list[int] = []
        self._hidden_union = 0
        self._active_u = Subset.full(config.n)
        self._engaged_count = 0  # engaging queries since the active layer opened
        self._instance: LayeredInstance | None = None

    # -- inspection helpers -------------------------------------------------

    @property
    def committed(self) -> list[tuple[Subset, Subset]]:
        return [(c.block, c.hidden) for c in self.commits]

    @property
    def active_set(self) -> Subset | None:
        """Current candidate set for the active layer's block; None once full."""
        return None if self._instance is not None else self._active_u

    @property
    def fully_committed(self) -> bool:
        return self._instance is not None

    # -- core mechanics -----------------------------------------------------

    def _commit(self, block_bits: int, hidden_bits: int, cause: str) -> None:
        layer = len(self.commits) + 1
        block = Subset(self.config.n, block_bits)
        hidden = Subset(self.config.n, hidden_bits)
        self.commits.append(
            LayerCommit(
                layer=layer,
                block=block,
                hidden=hidden,
                pool_size=len(self._pool),
                engaged_queries=self._engaged_count,
                cause=cause,
            )
        )
        self._pool_masks.append(self._pool.bits)
        union = self._prefix_unions[-1] if self._prefix_unions else 0
        self._prefix_unions.append(union | block_bits)
        self._hidden_union |= hidden_bits
        self._pool = self._pool - block
        self._active_u = self._pool
        self._engaged_count = 0
        if layer == self.config.layer_count:
            self._instance = LayeredInstance(
                self.config,
                [c.block for c in self.commits],
                [c.hidden for c in self.commits],
            )

    def _price(self, layer: int, block: int, hidden: int, pool: int, s_bits: int) -> tuple[ExactValue, int]:
        """The value at ``s_bits`` diverging at ``layer``, and its numerator over D."""
        num = _layer_numerator(block, hidden, pool, pool.bit_count(), s_bits)
        value = Fraction(num, self.config.scale_denominators[layer - 1] * 2 * pool.bit_count())
        return value, num * self.config.layer_factors[layer - 1]

    def _committed_layer_value(self, layer: int, s_bits: int) -> tuple[ExactValue, int]:
        c = self.commits[layer - 1]
        return self._price(layer, c.block.bits, c.hidden.bits, self._pool_masks[layer - 1], s_bits)

    def answer(self, s: Subset) -> ExactValue:
        """Answer one query, committing layers only when forced.

        A query that diverges at a committed layer is priced from committed
        data alone.  Otherwise it engages the active layer: covering at
        least half of the active set U is answered as "block fully inside
        the query" and U shrinks to U cap S; covering less than half is
        answered as "block disjoint from the query" and U shrinks to
        U minus S.  When U drops to 3 or fewer elements the block commits
        to its two lowest indices (hidden = the lowest).  On a 2-element
        pool a query containing exactly one pool element cannot be given
        either answer, so the block is the whole pool and the hidden
        element is pinned to the one not queried.
        """
        if s.size != self.config.n:
            raise ValueError(f"query must live on the {self.config.n}-element ground set")
        self.answer_batch([s.bits])
        return self.transcript.records[-1].value

    def answer_batch(self, masks: Sequence[int]) -> list[int]:
        """Answer ``Subset(n, m)`` for each ``m`` in ``masks``, in order, as
        numerators over ``config.value_denominator``, recording each query
        as :meth:`answer` describes."""
        out = []
        for s_bits in masks:
            s = Subset(self.config.n, s_bits)
            index, round_no = self._count_queries()
            # Once every layer is committed, the lookup masks are the instance's.
            divergent = _divergent_layer(self._prefix_unions, s_bits ^ self._hidden_union)
            engaged: int | None = None
            if divergent is not None:
                value, num = self._committed_layer_value(divergent, s_bits)
            elif self._instance is not None:
                value, num = ZERO, 0
            else:
                engaged = len(self.commits) + 1
                value, num = self._engage_active(s_bits)
            self.engaged_layers.append(engaged)
            self.transcript.append(QueryRecord(index=index, round=round_no, query=s, value=value))
            out.append(num)
        return out

    def _engage_active(self, s_bits: int) -> tuple[ExactValue, int]:
        """Price a query that matches every committed layer, as ``_price`` does.

        The answer is the honest value under the lowest-index candidate
        block left in the new active set U (hidden = its lowest element).
        Every candidate in U gives the same value, so this is also the
        value under whichever block U later commits to.
        """
        u_bits = self._active_u.bits
        inter = u_bits & s_bits
        self._engaged_count += 1
        cause = None
        if u_bits.bit_count() == 2 and inter.bit_count() == 1:
            # Endgame: the pool has exactly two elements left, so the block is
            # forced; pin the hidden element to the one the query missed (the
            # query is incomparable to the hidden set).
            block_bits, hidden_bits, cause = u_bits, u_bits & ~s_bits, "endgame"
        else:
            if 2 * inter.bit_count() >= u_bits.bit_count():
                new_u = inter  # "both": every candidate block lies inside the query
            else:
                new_u = u_bits & ~s_bits  # "none": every candidate block misses it
            self._active_u = Subset(self.config.n, new_u)
            block_bits = _lowest_bits(new_u, 2)
            hidden_bits = _lowest_bits(block_bits, 1)
            if new_u.bit_count() <= 3:
                cause = "halving"
        priced = self._price(len(self.commits) + 1, block_bits, hidden_bits, self._pool.bits, s_bits)
        if cause is not None:
            self._commit(block_bits, hidden_bits, cause)
        return priced

    def finalize(self, seed: int | None = None) -> LayeredInstance:
        """Commit all remaining layers and return the instance.

        The active layer commits inside its active set; layers never
        engaged commit from their pools.  With ``seed=None`` all remaining
        choices are canonical (lowest index first); an integer seed draws
        them uniformly instead, which is still consistent with every
        recorded answer.  Replays the transcript as a self-check and
        raises :class:`ReplayMismatchError` if any value disagrees.
        """
        if self._instance is None:
            rng = None if seed is None else SplitMix64(seed)
            pick = lowest_first if rng is None else rng.sample
            a_idx = pick(self._active_u.indices(), 2)
            self._commit(
                Subset.from_indices(self.config.n, a_idx).bits,
                Subset.from_indices(self.config.n, pick(a_idx, 1)).bits,
                "finalize",
            )
            if self._instance is None:
                if rng is not None:
                    # Untouched layers draw from a child stream, as sample_instance does.
                    pick = SplitMix64(rng.next()).sample
                completed = complete_instance(self.config, self.committed, pick)
                while len(self.commits) < self.config.layer_count:
                    k = len(self.commits)
                    self._commit(completed.blocks[k].bits, completed.hidden_sets[k].bits, "finalize")
        instance = self._instance
        assert instance is not None
        self.transcript.replay(instance)
        return instance


def _lowest_bits(bits: int, count: int) -> int:
    """Mask of the ``count`` lowest set bits of ``bits``."""
    if bits.bit_count() < count:
        raise ValueError(f"need {count} set bits, have {bits.bit_count()}")
    out = 0
    for _ in range(count):
        low = bits & -bits
        out |= low
        bits &= ~low
    return out
