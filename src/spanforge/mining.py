"""Hard-negative selection over the dynamic prediction set.

The default strategy picks the candidate whose pooled representation is most
cosine-similar to the gold answer's while not being the gold (neither by
position nor by normalized text). Two ablation strategies are provided: the
top-ranked non-gold prediction, and a uniform random eligible candidate.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .corpus import Span
from .encoder import ForwardTrace, span_bounds
from .metrics import normalize
from .numeric import pooling_matrix
from .spandecode import PredictionSet

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


def select_hard_negatives(
    trace: ForwardTrace,
    candidates: PredictionSet,
    gold: Span,
    strategy: MiningStrategy,
    rng: np.random.Generator | None = None,
) -> list[Span]:
    """Pick hard negatives from the candidate set; [] signals skip-contrastive.

    Eligible candidates differ from the gold both by (start, end) position and
    by normalized text. most_similar returns the theta highest by cosine
    similarity of mean-pooled token representations to the gold's (ties by
    candidate rank), pooling the gold and all candidates with one pooling
    matrix and scoring them with one normalised mat-vec; top1 the first
    eligible by rank; random a uniform eligible draw from ``rng``.
    Raises ValueError when a pooled representation has zero norm.
    """
    gold_text = normalize(gold.text)
    eligible = [
        s.span
        for s in candidates.ranked
        if s.span.positions != gold.positions and normalize(s.span.text) != gold_text
    ]
    if not eligible:
        return []

    if strategy.variant == TOP1:
        return [eligible[0]]
    if strategy.variant == RANDOM:
        if rng is None:
            raise ValueError("random mining needs an explicit rng")
        return [eligible[int(rng.integers(len(eligible)))]]

    starts, ends = span_bounds(trace.enc, [gold, *eligible])
    pooled = pooling_matrix(trace.length, starts, ends) @ trace.token_reprs
    norms = np.linalg.norm(pooled, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cosine similarity undefined for zero-norm input")
    unit = pooled / norms[:, None]
    sims = np.clip(unit[1:] @ unit[0], -1.0, 1.0)
    order = np.argsort(-sims, kind="stable")
    return [eligible[i] for i in order[: strategy.theta]]
