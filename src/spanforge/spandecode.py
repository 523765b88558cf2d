"""Top-k span extraction from start/end logits, frozen candidate-set
construction with a gold-insertion guarantee, and an independent brute-force
decoding oracle for the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import EncodedExample, Span, span_text
from .encoder import ForwardTrace

FROZEN = "frozen"
DYNAMIC = "dynamic"


@dataclass(frozen=True)
class ScoredSpan:
    span: Span
    score: float
    log_prob: float


@dataclass
class PredictionSet:
    """Ranked candidate spans; ``kind`` is "frozen" or "dynamic"."""

    ranked: list[ScoredSpan]
    kind: str

    def __post_init__(self):
        if self.kind not in (FROZEN, DYNAMIC):
            raise ValueError(f"unknown prediction-set kind {self.kind!r}")
        seen = set()
        for s in self.ranked:
            key = s.span.positions
            if key in seen:
                raise ValueError(f"duplicate span {key} in prediction set")
            seen.add(key)
        if self.kind == DYNAMIC:
            # decoder outputs are rank-ordered; a frozen set's last slot may
            # hold an inserted gold whose score floats free of the ranking
            scores = [s.score for s in self.ranked]
            if any(a < b for a, b in zip(scores, scores[1:])):
                raise ValueError("decoded prediction scores must be non-increasing")

    def __len__(self) -> int:
        return len(self.ranked)

    def spans(self) -> list[Span]:
        return [s.span for s in self.ranked]


def _check_decode_args(enc: EncodedExample, k: int, max_answer_len: int) -> tuple[int, int]:
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_answer_len < 1:
        raise ValueError("max_answer_len must be >= 1")
    p0, p1 = enc.passage_region
    if p1 < p0:
        raise ValueError(f"{enc.id}: empty passage region")
    return p0, p1


def topk_spans(trace: ForwardTrace, enc: EncodedExample, k: int, max_answer_len: int) -> PredictionSet:
    """Rank every legal (start, end) pair by summed logits and keep the top k.

    Legal means start <= end, length <= max_answer_len, both ends inside the
    passage region. Ties break by (start asc, end asc). Returns fewer than k
    only when fewer candidates exist.
    """
    p0, p1 = _check_decode_args(enc, k, max_answer_len)
    # each start with the next `width` ends, in (start, end) order: memory
    # grows with passage length x width, not with the square of the passage
    width = min(max_answer_len, p1 - p0 + 1)
    starts = np.repeat(np.arange(p0, p1 + 1), width)
    ends = starts + np.tile(np.arange(width), p1 - p0 + 1)
    legal = ends <= p1
    starts = starts[legal]
    ends = ends[legal]
    scores = trace.start_logits[starts] + trace.end_logits[ends]
    order = np.lexsort((ends, starts, -scores))[:k]
    ranked = [
        ScoredSpan(
            span=Span(int(starts[o]), int(ends[o]), span_text(enc, int(starts[o]), int(ends[o]))),
            score=float(scores[o]),
            log_prob=float(trace.start_logprobs[starts[o]] + trace.end_logprobs[ends[o]]),
        )
        for o in order
    ]
    return PredictionSet(ranked=ranked, kind=DYNAMIC)


def brute_force_topk(trace: ForwardTrace, enc: EncodedExample, k: int, max_answer_len: int) -> PredictionSet:
    """Oracle decoder: materialize every legal span, full sort, truncate.

    Kept deliberately independent of topk_spans (plain Python loops and
    list.sort) so the two can check each other.
    """
    p0, p1 = _check_decode_args(enc, k, max_answer_len)
    cands: list[tuple[float, int, int]] = []
    for i in range(p0, p1 + 1):
        for j in range(i, p1 + 1):
            if j - i + 1 > max_answer_len:
                break
            cands.append((float(trace.start_logits[i] + trace.end_logits[j]), i, j))
    cands.sort(key=lambda t: (-t[0], t[1], t[2]))
    ranked = [
        ScoredSpan(
            span=Span(i, j, span_text(enc, i, j)),
            score=sc,
            log_prob=float(trace.start_logprobs[i] + trace.end_logprobs[j]),
        )
        for sc, i, j in cands[:k]
    ]
    return PredictionSet(ranked=ranked, kind=DYNAMIC)


def candidate_count(passage_len: int, max_answer_len: int) -> int:
    """Number of legal spans for a given passage length and length cap."""
    return sum(min(max_answer_len, passage_len - i) for i in range(passage_len))


def build_frozen_set(
    preds: PredictionSet,
    gold: ScoredSpan,
    k: int,
    match: str = "position",
) -> tuple[PredictionSet, int | None]:
    """Guarantee the gold span a slot in the top-k candidate list.

    If the gold already sits in the top k (matched positionally by default, or
    by normalized text with match="text"), the top k is returned unchanged;
    otherwise the last slot is replaced by the gold. Returns the frozen set
    and the gold's 1-based rank among the original predictions (None when it
    was inserted). Padding short lists is forbidden.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if match not in ("position", "text"):
        raise ValueError(f"unknown gold-match mode {match!r}")
    top = preds.ranked[:k]

    def _is_gold(s: ScoredSpan) -> bool:
        if match == "position":
            return s.span.positions == gold.span.positions
        from .metrics import normalize

        return normalize(s.span.text) == normalize(gold.span.text)

    gold_rank = next((r + 1 for r, s in enumerate(top) if _is_gold(s)), None)
    if gold_rank is not None:
        if len(top) < k:
            raise ValueError(f"only {len(top)} candidates available, cannot fill k={k}")
        frozen = list(top)
    else:
        if len(preds.ranked) < k - 1:
            raise ValueError(f"only {len(preds.ranked)} candidates available, cannot fill k={k}")
        frozen = list(preds.ranked[: k - 1]) + [gold]
    return PredictionSet(ranked=frozen, kind=FROZEN), gold_rank


def store_record(example_id: str, frozen: PredictionSet, gold_rank: int | None) -> dict:
    return {
        "id": example_id,
        "spans": [
            {"start": s.span.start, "end": s.span.end, "score": s.score, "log_prob": s.log_prob}
            for s in frozen.ranked
        ],
        "gold_rank": gold_rank,
    }


def write_candidate_store(path: str | Path, records: Iterable[dict]) -> None:
    """Candidate store: one JSON object per line, spans in sequence coordinates."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_candidate_store(path: str | Path) -> dict[str, dict]:
    out: dict[str, dict] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            out[rec["id"]] = rec
    return out
