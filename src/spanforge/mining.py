"""Hard-negative selection over the dynamic prediction set.

The default strategy picks the candidate whose pooled representation is most
cosine-similar to the gold answer's while not matching the gold's normalized
text, compared on token keys (so never the gold's own span). Two ablation
strategies are provided: the top-ranked non-gold prediction, and a uniform
random eligible candidate.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Span, SpanIndex, span_text
from .encoder import ForwardTrace, item_pooling
from .numeric import Mat64, unit_rows
from .spandecode import text_matches

MOST_SIMILAR = "most_similar"
TOP1 = "top1"
RANDOM = "random"
_VARIANTS = (MOST_SIMILAR, TOP1, RANDOM)


@dataclass(frozen=True)
class MiningStrategy:
    variant: str = MOST_SIMILAR
    theta: int = 1

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown mining variant {self.variant!r}")
        if self.theta < 1:
            raise ValueError("theta must be >= 1")


def mining_rng(base_seed: int, example_id: str, step: int) -> np.random.Generator:
    """Deterministic per-(example, step) stream for the random strategy."""
    return np.random.default_rng(
        np.random.SeedSequence((base_seed, zlib.crc32(example_id.encode("utf-8")), step))
    )


def mine_batch(
    traces: Sequence[ForwardTrace],
    starts: np.ndarray,
    ends: np.ndarray,
    counts: np.ndarray,
    golds: Sequence[Span],
    strategy: MiningStrategy,
    rngs: Sequence[np.random.Generator | None],
) -> list[tuple[SpanIndex, tuple[Mat64, Mat64] | None]]:
    """Hard negatives of every example, each with its ``item_pooling`` for
    the loss (None with an empty SpanIndex, which signals skip-contrastive).

    Row b of the (B, K) ``starts``/``ends`` holds example b's counts[b]
    ranked candidates (sequence positions), then padding. Eligible
    candidates differ from the gold by normalized text, compared on the
    passage's token keys, so the gold's own position is never eligible.
    most_similar takes the theta highest by cosine similarity of mean-pooled
    token representations to the gold's (ties by candidate rank), scoring the
    gold and eligible rows of one pooling with one normalised mat-vec and
    keeping its question, gold and picked rows; top1 the first eligible by
    rank; random a uniform eligible draw from the example's generator; these
    two pool only their pick. Refuses a span outside the passage region, an
    empty question region and a pooled representation of zero norm.
    """
    encs = [tr.enc for tr in traces]
    B, K = starts.shape
    regions = np.array([enc.passage_region for enc in encs]).reshape(B, 2)
    p0, p1 = regions[:, :1], regions[:, 1:]
    gold_starts = np.array([g.start for g in golds])
    gold_ends = np.array([g.end for g in golds])
    # column 0 is the gold, the rest the candidates
    all_starts = np.concatenate([gold_starts[:, None], starts], axis=1)
    all_ends = np.concatenate([gold_ends[:, None], ends], axis=1)
    valid = np.arange(K + 1) <= counts[:, None]
    outside = np.argwhere(valid & ((all_starts < p0) | (all_ends > p1)))
    if outside.size:
        b, c = outside[0]
        span = (all_starts[b, c], all_ends[b, c])
        raise ValueError(f"{encs[b].id}: span ({span[0]}, {span[1]}) outside passage region ({p0[b, 0]}, {p1[b, 0]})")

    eligible = valid[:, 1:] & ~text_matches(encs, starts, ends, gold_starts, gold_ends)

    picked = []
    for b in range(B):
        idx = np.flatnonzero(eligible[b])
        pooling = None
        if idx.size:
            idx, pooling = _pick(strategy, idx, traces[b], starts[b], ends[b], golds[b], rngs[b])
        picked.append((SpanIndex(starts[b, idx], ends[b, idx]), pooling))
    return picked


def _pick(strategy, eligible, trace, starts, ends, gold, rng) -> tuple[np.ndarray, tuple[Mat64, Mat64]]:
    """The chosen entries of the non-empty, rank-ordered ``eligible`` indices, and their item pooling."""
    if strategy.variant == MOST_SIMILAR:
        pool, rows = item_pooling(trace, gold, SpanIndex(starts[eligible], ends[eligible]))
        unit, _ = unit_rows(rows[1:])
        sims = np.clip(unit[1:] @ unit[0], -1.0, 1.0)
        order = np.argsort(-sims, kind="stable")[: strategy.theta]
        keep = np.concatenate([[0, 1], 2 + order])
        return eligible[order], (pool[keep], rows[keep])
    if strategy.variant == RANDOM and rng is None:
        raise ValueError("random mining needs an explicit rng")
    chosen = eligible[:1] if strategy.variant == TOP1 else eligible[[int(rng.integers(eligible.size))]]
    return chosen, item_pooling(trace, gold, SpanIndex(starts[chosen], ends[chosen]))


def select_hard_negatives(
    trace: ForwardTrace,
    candidates: SpanIndex,
    gold: Span,
    strategy: MiningStrategy,
    rng: np.random.Generator | None = None,
) -> list[Span]:
    """Pick hard negatives from the candidate set; [] signals skip-contrastive.

    The one-example case of ``mine_batch``: ``candidates`` is rank-ordered
    (a PredictionSet or any SpanIndex), and the picked spans get their text
    from the passage.
    """
    ((picked, _),) = mine_batch(
        [trace], candidates.starts[None], candidates.ends[None], np.array([len(candidates)]), [gold], strategy, [rng]
    )
    return [Span(s, e, span_text(trace.enc, s, e)) for s, e in zip(picked.starts.tolist(), picked.ends.tolist())]
