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
its layer was committed.  Both read a :class:`~layeredsfm.family.LayerTable`:
the instance's, or the one the adversary pushes each commit into.

Every batch is answered in layer codes
(:attr:`~layeredsfm.sets.GroundConfig.code_radix`): small ints that order
exactly as the values they spell, so no integer over the common
denominator D (thousands of bits deep in an n = 1024 instance) is built
between the kernel and a solver.  ``answer(s)`` returns the value as a
``Fraction``; an oracle that overrides only ``answer`` reaches the solvers
through :meth:`_Oracle.answer_batch`.  Codes and values cross only through
the two maps of :class:`~layeredsfm.sets.GroundConfig`, ``code_value`` and
its inverse ``value_code``.
The adversary logs each query as a :class:`QueryRecord` of four ints; a
:class:`~layeredsfm.sets.Subset` and the value ``"p/q"`` are built from a
record only at the wire and in a replay mismatch message.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import NamedTuple, Sequence

from .family import (
    LayerTable,
    LayeredInstance,
    _layer_price,
    draw_layer,
    evaluate_closed_form,
    lowest_first,
)
from .rationals import format_value, parse_value
from .rng import SplitMix64
from .sets import GroundConfig, SingletonBatch, Subset, check_json_keys


class CorruptedOracleError(RuntimeError):
    """An oracle answer fell outside the value set any instance can produce."""


class ReplayMismatchError(RuntimeError):
    """A transcript value disagrees with the finalized instance (internal bug)."""


# Records replayed per kernel call: the codes of one chunk are held at once.
_REPLAY_CHUNK = 256


class QueryRecord(NamedTuple):
    """One answered query: 1-based sequence number, round tag, the query as a
    mask over the ground set, and the value's layer code
    (:attr:`~layeredsfm.sets.GroundConfig.code_radix`).
    Four ints, since a transcript keeps one per query (6,399 in a duel at
    n = 512), which the adversary builds with ``tuple.__new__``, at tuple
    cost: the keyword ``__new__`` of a named tuple is a Python-level call.
    :meth:`to_json` writes the query as its sorted index list and the value
    as the reduced ``"p/q"``."""

    index: int
    round: int
    mask: int
    code: int

    def to_json(self, config: GroundConfig) -> dict:
        return {
            "index": self.index,
            "round": self.round,
            "query": Subset(config.n, self.mask).to_json(),
            "value": format_value(config.code_value(self.code)),
        }


class Transcript:
    """Ordered, round-tagged log of (query, value) pairs for one interaction.

    Values are kept as layer codes; the JSON form prints each as the
    reduced ``"p/q"`` of its value.
    """

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
        """Re-derive every recorded code from ``inst``'s layer table,
        ``_REPLAY_CHUNK`` records at a time; raise on any mismatch.  Codes
        are equal exactly when the values are.  An instance of another
        config raises ValueError."""
        if inst.config != self.config:
            raise ValueError(f"cannot replay a transcript of {self.config} against an instance of {inst.config}")
        records = self.records
        for start in range(0, len(records), _REPLAY_CHUNK):
            chunk = records[start : start + _REPLAY_CHUNK]
            for rec, actual in zip(chunk, inst.table.values([rec.mask for rec in chunk], self.config.code_lift)):
                if actual != rec.code:
                    raise ReplayMismatchError(
                        f"record {rec.index}: query {Subset(self.config.n, rec.mask).indices()} was answered "
                        f"{_spelled(self.config, rec.code)} but the instance evaluates to "
                        f"{_spelled(self.config, actual)}"
                    )

    def to_json(self) -> dict:
        config = self.config
        return {
            "config": {"n": config.n, "r": config.r},
            "records": [rec.to_json(config) for rec in self.records],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Transcript":
        """Inverse of :meth:`to_json`; malformed input raises ValueError,
        and so does a value that no layer takes
        (:meth:`~layeredsfm.sets.GroundConfig.value_code`)."""
        try:
            check_json_keys(data, ("config", "records"), "transcript")
            check_json_keys(data["config"], ("n", "r"), "transcript config")
            config = GroundConfig(n=data["config"]["n"], r=data["config"]["r"])
            out = cls(config)
            for rec in data["records"]:
                check_json_keys(rec, ("index", "round", "query", "value"), "transcript record")
                index, round_ = rec["index"], rec["round"]
                if not all(type(v) is int and v >= 1 for v in (index, round_)):  # no bools
                    raise ValueError(f"record index and round must be positive integers, "
                                     f"got {index!r} and {round_!r}")
                out.append(
                    QueryRecord(
                        index=index,
                        round=round_,
                        mask=Subset.from_json(config.n, rec["query"]).bits,
                        code=config.value_code(parse_value(rec["value"])),
                    )
                )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed transcript JSON: {exc!r}") from exc
        return out


def _spelled(config: GroundConfig, code: int) -> str:
    """The value ``code`` spells, as ``"p/q"``, or the code where it spells none."""
    try:
        return format_value(config.code_value(code))
    except ValueError:
        return f"code {code!r}, no value"


def _check_masks(n: int, masks: Sequence[int]) -> None:
    """Reject a batch with a mask outside ``[0, 2^n)``, or not an int, before
    anything of it is counted.  A batch without a length (a generator)
    raises TypeError unread.  A list, as every one-mask batch is, is tested
    first.  It and any other batch but the two below are OR-reduced: the
    union is negative exactly when some mask is, and a non-int mask raises
    TypeError.  A range is monotone, so its two ends are its extremes; a
    :class:`SingletonBatch` is read by its two ints."""
    if not len(masks):
        return
    if isinstance(masks, list) or not isinstance(masks, (range, SingletonBatch)):
        low = high = reduce(or_, masks)
    elif isinstance(masks, range):
        low, high = sorted((masks[0], masks[-1]))
    else:
        low, high = masks.base, masks.base | masks.members
    if low < 0 or high >> n:
        raise ValueError(f"query masks must lie in [0, 2^{n})")


class _Oracle:
    """Query/round bookkeeping and the batch entry point shared by both oracles.

    Rounds are opened explicitly with ``begin_round``; queries issued
    before any round was opened fall into an implicit round 1.  Solvers
    use only ``begin_round`` and ``answer_batch(masks)`` (layer codes);
    ``answer(s)`` returns one value as a ``Fraction``.

    Counting is synchronized: every read-modify-write of ``queries`` and
    ``rounds`` holds ``_lock``, taken as ``acquire()`` and released in a
    ``finally``.  Both run once per one-mask round of an adaptive solve,
    and ``with lock:`` adds 203-325 ns to a call where the two method
    calls add 99-128 ns (CPython 3.10-3.13, 2-vCPU x86_64 VM).
    """

    def __init__(self, config: GroundConfig):
        self.config = config
        self.queries = 0
        self.rounds = 0
        self._lock = threading.Lock()

    def begin_round(self) -> None:
        lock = self._lock
        lock.acquire()
        try:
            self.rounds += 1
        finally:
            lock.release()

    def _count_queries(self, count: int = 1) -> tuple[int, int]:
        """Count ``count`` queries; return the last one's (1-based index, round)."""
        lock = self._lock
        lock.acquire()
        try:
            if self.rounds == 0:
                self.rounds = 1
            self.queries += count
            return self.queries, self.rounds
        finally:
            lock.release()

    def answer_batch(self, masks: Sequence[int]) -> list[int]:
        """Answer ``Subset(n, m)`` for each ``m`` in ``masks``, in order, as
        layer codes.

        This default asks :meth:`answer` once per mask, so an oracle that
        overrides only ``answer`` reaches the solvers through it.  A mask
        outside ``[0, 2^n)`` raises ValueError before any mask is asked.  An
        answer that is not an ``int`` (``bool`` excluded) or ``Fraction``,
        or is no value of a layer, raises :class:`CorruptedOracleError`.
        """
        _check_masks(self.config.n, masks)
        config = self.config
        out = []
        for m in masks:
            value = self.answer(Subset(config.n, m))
            if type(value) is not int and not isinstance(value, Fraction):
                raise CorruptedOracleError(
                    f"answer {value!r} to query mask 0x{m:x} is a {type(value).__name__}, not an int or Fraction"
                )
            try:
                out.append(config.value_code(value))
            except ValueError:
                raise CorruptedOracleError(
                    f"answer {format_value(value)} to query mask 0x{m:x} is no value of a layer"
                ) from None
        return out


class HonestOracle(_Oracle):
    """Evaluation oracle over a fixed instance, with query/round counters.

    ``answer`` and batches are both priced by the instance's layer table,
    and may be asked concurrently within a round (counting is synchronized).
    Batches do not route through ``answer``: a subclass rewriting answers
    overrides ``answer_batch``, or overrides ``answer`` and sets ``answer_batch = _Oracle.answer_batch``.
    """

    def __init__(self, inst: LayeredInstance):
        super().__init__(inst.config)
        self.instance = inst

    def answer(self, s: Subset) -> Fraction:
        value = evaluate_closed_form(self.instance, s)  # a bad query raises before it is counted
        self._count_queries()
        return value

    def answer_batch(self, masks: Sequence[int]) -> list[int]:
        """The values at ``masks`` as layer codes, from the table's small
        layer prices: no ``Subset``, no ``Fraction`` and no integer over D
        per query.

        Every mask is checked before any is counted: one outside
        ``[0, 2^n)`` raises ValueError and counts nothing.
        """
        if not masks:
            return []
        _check_masks(self.config.n, masks)
        self._count_queries(len(masks))
        return self.instance.table.values(masks, self.config.code_lift)


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

    Supports the same ``answer``/``answer_batch``/``begin_round`` surface
    as the honest oracle so any solver can be dueled unmodified.
    A batch is counted once and answered mask by mask in integers, with
    the same records, indices, round tags and commits as one ``answer``
    per mask.  Each commit is pushed into ``table``, and the finalized
    instance adopts that table.
    Strictly sequential: callers must not share an adversary across threads.
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
        self.table = LayerTable(config)
        self._active_u = self.table.pool  # the active layer's candidate set U, a mask
        self._engaged_count = 0  # engaging queries since the active layer opened
        self._instance: LayeredInstance | None = None

    # -- inspection helpers -------------------------------------------------

    @property
    def active_set(self) -> Subset | None:
        """Current candidate set for the active layer's block; None once full."""
        return None if self._instance is not None else Subset(self.config.n, self._active_u)

    # -- core mechanics -----------------------------------------------------

    def _commit(self, block_bits: int, hidden_bits: int, cause: str) -> None:
        layer = len(self.commits) + 1
        self.commits.append(
            LayerCommit(
                layer=layer,
                block=Subset(self.config.n, block_bits),
                hidden=Subset(self.config.n, hidden_bits),
                pool_size=self.table.pool_card,
                engaged_queries=self._engaged_count,
                cause=cause,
            )
        )
        self.table.push(block_bits, hidden_bits)
        self._active_u = self.table.pool
        self._engaged_count = 0
        if layer == self.config.layer_count:
            self._instance = LayeredInstance.from_table(self.table)

    def _committed_layer_value(self, layer: int, s_bits: int) -> int:
        shift, scale = self.config.code_lift[layer - 1]
        return shift + scale * _layer_price(self.table.rows[layer - 1], s_bits)

    def answer(self, s: Subset) -> Fraction:
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
        (code,) = self.answer_batch([s.bits])
        return self.config.code_value(code)

    def answer_batch(self, masks: Sequence[int]) -> list[int]:
        """Answer ``Subset(n, m)`` for each ``m`` in ``masks``, in order, as
        layer codes, recording each query
        as :meth:`answer` describes.  A mask outside ``[0, 2^n)`` raises
        ValueError before any mask is counted, recorded or engaged.  The
        batch is counted once; its records take consecutive indices."""
        if not masks:
            return []
        _check_masks(self.config.n, masks)
        index, round_no = self._count_queries(len(masks))
        index -= len(masks)
        table, append, engaged_layers = self.table, self.transcript.append, self.engaged_layers
        out = []
        for s_bits in masks:
            index += 1
            divergent = table.layer_of(s_bits)
            engaged: int | None = None
            if divergent is not None:
                code = self._committed_layer_value(divergent, s_bits)
            elif self._instance is not None:
                code = 0
            else:
                engaged = len(self.commits) + 1
                code = self._engage_active(s_bits)
            engaged_layers.append(engaged)
            append(tuple.__new__(QueryRecord, (index, round_no, s_bits, code)))
            out.append(code)
        return out

    def _engage_active(self, s_bits: int) -> int:
        """Code of a query that matches every committed layer, as the layer
        rule prices the candidate block's row.

        The answer is the honest value under the lowest-index candidate
        block left in the new active set U (hidden = its lowest element).
        Every candidate in U gives the same value, so this is also the
        value under whichever block U later commits to.
        """
        u_bits = self._active_u
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
            self._active_u = new_u
            # The two lowest candidates in U (it keeps at least two), hidden = the lowest.
            hidden_bits = new_u & -new_u
            rest = new_u ^ hidden_bits
            block_bits = hidden_bits | (rest & -rest)
            if new_u.bit_count() <= 3:
                cause = "halving"
        shift, scale = self.config.code_lift[len(self.commits)]
        priced = shift + scale * _layer_price(self.table.next_row(block_bits, hidden_bits), s_bits)
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
            n = self.config.n
            self._commit(*draw_layer(self.config, Subset(n, self._active_u).indices(), pick), "finalize")
            if rng is not None:
                # Untouched layers draw from a child stream, as sample_instance does.
                pick = SplitMix64(rng.next()).sample
            pool = Subset(n, self.table.pool).indices()
            while self._instance is None:
                self._commit(*draw_layer(self.config, pool, pick), "finalize")
        instance = self._instance
        assert instance is not None
        self.transcript.replay(instance)
        return instance

