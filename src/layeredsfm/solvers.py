"""Reference minimizers for layered instances.

Three solvers, exercising both sides of the query-complexity picture:

* :func:`brute_force_minimize` scans the full power set in one round and
  is the ground truth for everything else.
* :func:`family_aware_minimize` knows only (n, r) and recovers the hidden
  sets layer by layer with adaptive group testing, in O(n log n) queries.
* :func:`singleton_parallel_minimize` spends exactly one batched round per
  layer, classifying every remaining element from singleton queries.

Every solver is ``solve(oracle) -> SolverResult``: a solve is an
algorithm plus an oracle, and the ground set is the oracle's.  All three
drive an oracle handle (honest or adversarial) through its ``config``,
``begin_round`` and ``answer_batch(masks)`` surface only, compare and
decode the layer codes it answers
(:attr:`~layeredsfm.sets.GroundConfig.code_radix`), and report their own
query/round use.  Codes order as the values they spell, and decoding one
is a ``divmod`` by the radix and small-integer tests: no integer over the
common denominator D enters a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple

from .oracles import CorruptedOracleError
from .rationals import format_value
from .sets import EXHAUSTIVE_CAP, Relation, SingletonBatch, Subset

# Masks per batch of brute force's one round: 4,096 codes stay small next
# to the process, where the whole 2^16 round at once would add ~2.4 MB.
BRUTE_FORCE_CHUNK = 4096

# Engineering budget for the family-aware solver: queries <= ALPHA * n * log2(n).
QUERY_BUDGET_ALPHA = 8


# The relations the decoder returns and the solvers test, as module globals:
# a ``Relation.EQUAL`` lookup costs 88-120 ns more than a global's on CPython
# 3.10 and 3.11 (the enum's metaclass defines ``__getattr__``) and 17-19 ns
# more on 3.12 and 3.13, and a solve makes 2-4 of them per query.
_EQUAL, _INCOMPARABLE = Relation.EQUAL, Relation.INCOMPARABLE
_STRICT_SUBSET, _STRICT_SUPERSET = Relation.STRICT_SUBSET, Relation.STRICT_SUPERSET


def query_budget(n: int) -> float:
    """The budget ``bench`` prints at ground size ``n``; :func:`query_cap` is the one enforced."""
    return QUERY_BUDGET_ALPHA * n * math.log2(max(n, 2))


def query_cap(n: int) -> int:
    """``floor(query_budget(n))`` in integers: with ``m = max(n, 2)``,
    ``q <= ALPHA * n * log2(m)`` exactly when ``2^q <= m^(ALPHA * n)``."""
    return (max(n, 2) ** (QUERY_BUDGET_ALPHA * n)).bit_length() - 1


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one minimization run."""

    solver: str
    minimizer: Subset
    min_value: Fraction
    queries: int
    rounds: int

    def to_json(self) -> dict:
        return {
            "solver": self.solver,
            "minimizer": self.minimizer.to_json(),
            "value": format_value(self.min_value),
            "queries": self.queries,
            "rounds": self.rounds,
        }


class LayerAnswer(NamedTuple):
    """What a single oracle value reveals about one layer: ``relation``
    compares the query's block part with the layer's hidden set, and
    ``outside_block`` counts queried pool elements below the block (None
    when the value carries no such count: incomparable, or an exact match
    whose residual encodes deeper layers).  The decoder returns one of two
    prebuilt answers when there is no count, and otherwise builds one with
    ``tuple.__new__``, at tuple cost: a named tuple's keyword ``__new__``
    is a Python-level call.
    """

    relation: Relation
    outside_block: int | None


# The two answers that carry no count, built once: together they are 37% of
# the decodes in an n = 1024 family-aware solve.
_EQUAL_ANSWER = LayerAnswer(_EQUAL, None)
_INCOMPARABLE_ANSWER = LayerAnswer(_INCOMPARABLE, None)


def decode_layer_answer(code: int, radix: int, pool_size: int, queried_in_pool: int, r: int) -> LayerAnswer:
    """Invert one oracle answer into relation-and-count form.

    ``code`` is a layer code over ``radix = config.code_radix``:
    ``divmod(code, radix)`` is the level ``L + 1 - k`` of its layer k and
    its layer price t (0 for code 0, an exact match everywhere).  The query
    matches every layer before the decoded one and holds
    ``queried_in_pool`` of the ``pool_size`` elements unclassified when
    that layer opens; its level is ``pool_size / (2r)``.  A deeper level
    (or code 0) is an exact match.  At the level itself t = 4 * pool is
    incomparable, and t = 2 * pool +- c counts c queried pool elements
    below the block, strictly inside (+) or outside (-) the hidden set; at
    c = 0 the count ``queried_in_pool`` against r gives the relation.
    Codes no instance can produce raise :class:`CorruptedOracleError`: a
    negative one, a shallower level, a price outside its level's
    ``[1, 4 * pool]``, c above the pool, or c = 0 with r queried pool
    elements (an exact match).  A caller's bad parameter raises
    ValueError: r not positive, a pool size that is not a positive
    multiple of 2r, or a radix not above 4 * pool.
    """
    if r <= 0 or pool_size <= 0 or pool_size % (2 * r) or radix <= 4 * pool_size:
        raise ValueError("pool size must be a positive multiple of 2r, r positive, and the radix above 4 * pool size")
    hi, t = divmod(code, radix)
    level = pool_size // (2 * r)
    if hi != level:
        if code == 0 or (0 <= hi < level and 0 < t <= 8 * r * hi):
            # A deeper layer's value: the residual of an exact match here.
            return _EQUAL_ANSWER
        raise CorruptedOracleError(f"code {code} is no value at level {level} or below")
    if t == 4 * pool_size:
        return _INCOMPARABLE_ANSWER
    below = t - 2 * pool_size
    if below == 0:
        if queried_in_pool == r:
            raise CorruptedOracleError("comparable answer with r queried pool elements would be an exact match")
        rel = _STRICT_SUBSET if queried_in_pool < r else _STRICT_SUPERSET
        return tuple.__new__(LayerAnswer, (rel, 0))
    if t <= 0 or abs(below) > pool_size:
        raise CorruptedOracleError(f"code {code} matches no case of level {level}")
    if below > 0:
        return tuple.__new__(LayerAnswer, (_STRICT_SUBSET, below))
    return tuple.__new__(LayerAnswer, (_STRICT_SUPERSET, -below))


def brute_force_minimize(oracle) -> SolverResult:
    """Query every subset (one round) and return the smallest value found.

    Ties break to the lexicographically least index list.  Ground truth
    for the other solvers; capped at the exhaustive-enumeration limit.

    The round is asked in batches of :data:`BRUTE_FORCE_CHUNK` masks;
    index lists are built only to break a tie.
    """
    config = oracle.config
    n = config.n
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"brute force refused for n={n} (cap is {EXHAUSTIVE_CAP})")
    # Codes order as the values they spell, so the scan reads codes alone.
    oracle.begin_round()
    best: int | None = None
    best_mask = 0
    total = 1 << n
    for start in range(0, total, BRUTE_FORCE_CHUNK):
        masks = range(start, min(start + BRUTE_FORCE_CHUNK, total))
        codes = oracle.answer_batch(masks)
        if len(codes) != len(masks):
            raise CorruptedOracleError(f"a batch of {len(masks)} masks was answered with {len(codes)} codes")
        low = min(codes)
        if best is None or low <= best:
            if codes.count(low) == 1 and low != best:
                best_mask = masks[codes.index(low)]
            else:
                tied = [m for m, v in zip(masks, codes) if v == low]
                if low == best:
                    tied.append(best_mask)
                # On a tie the least index list wins.
                best_mask = min(tied, key=lambda m: Subset(n, m).indices())
            best = low
        # Free this batch before asking the next, so that only one is ever
        # held: two raise the peak RSS of an n = 16 scan by about 0.1 MB.
        del codes
    assert best is not None
    try:
        value = config.code_value(best)
    except ValueError:
        raise CorruptedOracleError(f"least answer code {best} is no value of a layer") from None
    return SolverResult("brute_force", Subset(n, best_mask), value, total, 1)


def family_aware_minimize(oracle) -> SolverResult:
    """Recover the minimizer knowing only (n, r), in O(n log n) queries.

    Works against any oracle answering consistently with some instance,
    honest or adversarial.  Per layer, over the pool of unclassified
    elements (prefix = union of hidden sets already recovered):

    Phase A grows an accepted set T whose block part stays inside the
    hidden set: blocks W of the pool are queried as prefix + T + W and
    accepted on a subset/equal relation; on a superset/incomparable
    relation the block splits in half, and bad singletons are exactly the
    block elements outside the hidden set (r of them, then the rest of the
    pool is clean).  Phase B extracts the hidden set from T by removal:
    querying prefix + (T - W) answers "equal" exactly when W misses the
    hidden set, so splitting on "strict subset" isolates the r hidden
    elements.  The 2r classified elements leave the pool and the next
    layer repeats.  Every query gets its own round (the procedure is fully
    adaptive).  Query use is asserted against :func:`query_cap`.

    The pool is one increasing list of elements for the whole solve, and
    a block is a run ``(i, j)`` of it: it splits into ``(i, mid)`` and
    ``(mid, j)`` at ``mid = i + (j - i) // 2``, its lower ``(j - i) // 2``
    elements and the rest, and its mask is the pool's bits from
    ``pool[i]`` to ``pool[j - 1]``.  Classified elements are deleted from
    the list by index.  With ``base = prefix | T`` Phase A asks
    ``base | W`` and Phase B asks ``base ^ W``, each as a one-mask batch.
    Each answer code is decoded once, by :func:`decode_layer_answer`.  A
    :class:`Subset` is built only for the returned minimizer.
    """
    config = oracle.config
    n, r, radix = config.n, config.r, config.code_radix
    cap = query_cap(n)
    queries = 0  # every query opens its own round, so this counts rounds too
    begin_round, answer_batch = oracle.begin_round, oracle.answer_batch

    def ask(mask: int) -> int:
        nonlocal queries
        begin_round()
        codes = answer_batch([mask])
        try:
            [code] = codes
        except ValueError:
            raise CorruptedOracleError(f"a batch of 1 mask was answered with {len(codes)} codes") from None
        queries += 1
        if queries > cap:
            raise RuntimeError(f"query budget exceeded: {queries} > {cap} at n={n}, r={r}")
        return code

    prefix = 0
    elems = list(range(config.effective_size))  # the pool, in increasing order
    pool = (1 << config.effective_size) - 1  # the members of ``elems`` as a mask

    for layer in range(1, config.layer_count + 1):
        pool_size = len(elems)

        # Phase A: classify away the block elements outside the hidden set.
        base, accepted = prefix, 0  # base = prefix | T, with |T| = accepted
        bad: list[int] = []  # list indices, found in increasing order
        blocks = [(0, pool_size)]
        while blocks and len(bad) < r:
            i, j = blocks.pop()
            w = pool & ((2 << elems[j - 1]) - (1 << elems[i]))
            rel = decode_layer_answer(ask(base | w), radix, pool_size, accepted + j - i, r).relation
            if rel is _EQUAL or rel is _STRICT_SUBSET:
                base |= w
                accepted += j - i
            elif j - i == 1:
                bad.append(i)
            else:
                mid = i + (j - i) // 2
                blocks.append((mid, j))
                blocks.append((i, mid))
        if len(bad) != r:
            raise CorruptedOracleError(
                f"layer {layer}: found {len(bad)} off-pattern block elements, expected {r}"
            )
        # Remaining blocks are clean once all r bads are known: T is the rest of the pool.
        for i in reversed(bad):
            pool ^= 1 << elems.pop(i)

        # Phase B: extract the hidden set from T by group-tested removal.
        base = prefix | pool
        hidden: list[int] = []
        blocks = [(0, len(elems))]
        while blocks and len(hidden) < r:
            i, j = blocks.pop()
            w = pool & ((2 << elems[j - 1]) - (1 << elems[i]))
            rel = decode_layer_answer(ask(base ^ w), radix, pool_size, len(elems) - (j - i), r).relation
            if rel is _EQUAL:
                pass  # W misses the hidden set entirely
            elif rel is _STRICT_SUBSET:
                if j - i == 1:
                    hidden.append(i)
                else:
                    mid = i + (j - i) // 2
                    blocks.append((mid, j))
                    blocks.append((i, mid))
            else:
                raise CorruptedOracleError(f"layer {layer}: removal query decoded as {rel}")
        if len(hidden) != r:
            raise CorruptedOracleError(
                f"layer {layer}: found {len(hidden)} hidden elements, expected {r}"
            )
        for i in reversed(hidden):
            bit = 1 << elems.pop(i)
            pool ^= bit
            prefix |= bit

    # The prefix matches every layer, so any consistent oracle answers 0.
    code = ask(prefix)
    if code != 0:
        raise CorruptedOracleError(f"minimizer query answered code {code}, expected 0")
    return SolverResult("family_aware", Subset(n, prefix), Fraction(0), queries, queries)


# A singleton query's class by its decoded (relation, count below the block).
_SINGLETON_CLASSES = {
    (_INCOMPARABLE, None): "off_block",
    (_STRICT_SUBSET, 0): "hidden",
    (_STRICT_SUBSET, 1): "deeper",
}


def _singleton_class(code: int, radix: int, pool_size: int, layer: int, r: int) -> str:
    """Class of pool element e from the answer code of prefix + {e} at
    ``layer``, where prefix matches every earlier layer.  A code no
    singleton query produces raises :class:`CorruptedOracleError`.
    """
    ans = decode_layer_answer(code, radix, pool_size, 1, r)
    if ans.relation is _EQUAL and r == 1:
        return "hidden"  # at r = 1 the hidden element's query is an exact match
    label = _SINGLETON_CLASSES.get((ans.relation, ans.outside_block))
    if label is None:
        raise CorruptedOracleError(f"layer {layer}: singleton answer code {code} matches no class")
    return label


def singleton_parallel_minimize(oracle) -> SolverResult:
    """Solve one layer per batched round via singleton queries.

    Round k asks prefix + {e} for every unclassified element e as one
    batch, a :class:`SingletonBatch` of the pool, and classifies e from
    its value alone, through :func:`decode_layer_answer`
    (:func:`_singleton_class`).  Uses exactly one round per layer and
    pool-many queries per round; requires an honest oracle over a
    known-(n, r) instance.  The pool is one increasing list of elements
    for the whole solve, aligned with each round's answers.  A round is
    walked once as runs of equal answers (at most 4r + 1 on a consistent
    oracle: the 2r near members and the far runs between them), and the r
    hidden and r off-block elements are read off the run offsets and
    deleted from the list.
    """
    config = oracle.config
    n, r, radix = config.n, config.r, config.code_radix
    queries = 0
    prefix = 0
    elems = list(range(config.effective_size))  # the pool, in increasing order
    pool = (1 << config.effective_size) - 1  # the members of ``elems`` as a mask

    for layer in range(1, config.layer_count + 1):
        pool_size = len(elems)
        oracle.begin_round()
        codes = oracle.answer_batch(SingletonBatch(prefix, pool))
        if len(codes) != pool_size:
            raise CorruptedOracleError(f"a batch of {pool_size} masks was answered with {len(codes)} codes")
        queries += pool_size
        # Elements with the same answer share a class: decode each distinct
        # answer once, in order of first appearance.  ``groupby`` compares
        # neighbours in C, identity first, so an answer is hashed once or
        # twice per run, not once per element.
        labels: dict[int, str] = {}
        hidden: list[int] = []  # positions in ``elems``, increasing
        near: list[int] = []  # hidden and off-block positions, increasing
        start = 0
        for code, run in groupby(codes):
            stop = start + len(list(run))
            label = labels.get(code)
            if label is None:
                label = labels[code] = _singleton_class(code, radix, pool_size, layer, r)
            if label != "deeper":
                near += range(start, stop)
                if label == "hidden":
                    hidden += range(start, stop)
            start = stop
        if len(hidden) != r or len(near) != 2 * r:
            raise CorruptedOracleError(
                f"layer {layer}: classified {len(hidden)} hidden / "
                f"{len(near) - len(hidden)} off-block, expected {r} each"
            )
        for i in hidden:
            prefix |= 1 << elems[i]
        for i in reversed(near):  # the rest of the pool is deeper
            pool ^= 1 << elems.pop(i)

    # Every layer matched in its one round, so the minimum value is exactly 0.
    return SolverResult("singleton_parallel", Subset(n, prefix), Fraction(0), queries, config.layer_count)


SOLVERS = {
    "brute_force": brute_force_minimize,
    "family_aware": family_aware_minimize,
    "singleton_parallel": singleton_parallel_minimize,
}
