"""Top-k span extraction from start/end logits, frozen candidate-set
construction with a gold-insertion guarantee, and an independent brute-force
decoding oracle for the test suite.

Candidate sets are index arrays: a ``PredictionSet`` is a ``SpanIndex`` of
(start, end) positions with scores, so decoding, freezing, mining and the
losses all take it as it is. Span text comes only from the passage, built
where a caller reads it (``PredictionSet.ranked``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import EncodedExample, Span, SpanIndex, read_jsonl, span_text
from .encoder import ForwardTrace


@dataclass(frozen=True)
class ScoredSpan:
    span: Span
    score: float
    log_prob: float


@dataclass(frozen=True, eq=False)
class PredictionSet(SpanIndex):
    """Ranked candidate spans of one example: a SpanIndex of start and end
    positions (sequence coordinates) with parallel scores and
    log-probabilities.

    ``enc`` is the example the positions index. Span text comes only from its
    passage (``ranked``, ``texts``), and text matching compares its token
    keys. Decoders build a set from arrays they already guarantee;
    ``from_ranked`` builds one from ScoredSpans and checks them.
    """

    scores: np.ndarray
    log_probs: np.ndarray
    enc: EncodedExample | None = None

    @classmethod
    def from_ranked(cls, ranked: Sequence[ScoredSpan], enc: EncodedExample | None = None) -> "PredictionSet":
        """A set holding the positions, scores and log-probabilities of
        ``ranked`` (not its texts: ``ranked`` reads those from ``enc``);
        refuses duplicate positions and increasing scores."""
        positions = [s.span.positions for s in ranked]
        if len(set(positions)) < len(positions):
            dup = next(p for i, p in enumerate(positions) if p in positions[:i])
            raise ValueError(f"duplicate span {dup} in prediction set")
        scores = [s.score for s in ranked]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("prediction scores must be non-increasing")
        return cls(
            np.array([s.span.start for s in ranked], dtype=np.int64),
            np.array([s.span.end for s in ranked], dtype=np.int64),
            np.array(scores, dtype=np.float64),
            np.array([s.log_prob for s in ranked], dtype=np.float64),
            enc,
        )

    @cached_property
    def ranked(self) -> list[ScoredSpan]:
        """The set as ScoredSpans, texts from the passage; built on first read."""
        rows = zip(self.starts.tolist(), self.ends.tolist(), self.texts(), self.scores.tolist(), self.log_probs.tolist())
        return [ScoredSpan(Span(s, e, text), sc, lp) for s, e, text, sc, lp in rows]

    def texts(self) -> list[str]:
        """The span texts, in rank order, from the passage of ``enc``."""
        if self.enc is None:
            raise ValueError("span text needs the prediction set's encoded example")
        return [span_text(self.enc, s, e) for s, e in zip(self.starts.tolist(), self.ends.tolist())]


def _check_decode_args(enc: EncodedExample, k: int, max_answer_len: int) -> tuple[int, int]:
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_answer_len < 1:
        raise ValueError("max_answer_len must be >= 1")
    p0, p1 = enc.passage_region
    if p1 < p0:
        raise ValueError(f"{enc.id}: empty passage region")
    return p0, p1


def candidate_count(passage_len: int, max_answer_len: int) -> int:
    """Number of legal spans for a given passage length and length cap."""
    cap = min(max_answer_len, passage_len)
    return cap * passage_len - cap * (cap - 1) // 2


def topk_batch(
    start_logits: Sequence[np.ndarray], end_logits: Sequence[np.ndarray], encs: Sequence[EncodedExample],
    k: int, max_answer_len: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The top-k legal spans of every example, ranked by summed logits
    (entry b of ``start_logits`` and ``end_logits`` is example b's head).

    Legal means start <= end, length <= max_answer_len, both ends inside the
    example's passage region. Ties break by (start asc, end asc). Returns
    (starts, ends, scores, counts): row b of the (B, kk) arrays holds
    example b's counts[b] = min(k, legal spans) ranked spans, then padding;
    kk is the largest count.

    One banded (B, n, width) score tensor, entry (b, i, w) for the span
    (i, i + w), flattened per row in (start, end) order, so a stable argsort
    of the negated scores applies the tie rule.
    """
    regions = [_check_decode_args(enc, k, max_answer_len) for enc in encs]
    lo = min(a for a, _ in regions)  # column j of the band is position lo + j
    n = max(z for _, z in regions) + 1 - lo
    width = min(max_answer_len, max(z - a for a, z in regions) + 1)
    B = len(encs)
    # Region logits, zero elsewhere: no sum below touches MASK_VALUE.
    starts_in = np.zeros((B, n))
    ends_in = np.zeros((B, n + width - 1))
    for b, (sl, el, (a, z)) in enumerate(zip(start_logits, end_logits, regions)):
        starts_in[b, a - lo : z - lo + 1] = sl[a : z + 1]
        ends_in[b, a - lo : z - lo + 1] = el[a : z + 1]
    ends = np.arange(n)[:, None] + np.arange(width)
    band = starts_in[:, :, None] + ends_in[:, ends]
    bounds = np.array(regions)[:, :, None, None] - lo
    band[(ends[:, :1] < bounds[:, 0]) | (ends > bounds[:, 1])] = -np.inf
    counts = np.array([min(k, candidate_count(z - a + 1, max_answer_len)) for a, z in regions])
    flat = band.reshape(B, -1)
    order = np.argsort(-flat, axis=1, kind="stable")[:, : counts.max()]
    starts = order // width
    scores = flat[np.arange(B)[:, None], order]
    return starts + lo, starts + order % width + lo, scores, counts


def topk_spans(trace: ForwardTrace, enc: EncodedExample, k: int, max_answer_len: int) -> PredictionSet:
    """The top-k legal spans of one example (fewer only when fewer exist):
    the one-example case of ``topk_batch``, ranked and tie-broken alike."""
    ranked = topk_batch([trace.start_logits], [trace.end_logits], [enc], k, max_answer_len)
    return batch_row(ranked, 0, trace.start_logprobs, trace.end_logprobs, enc)


def batch_row(ranked: tuple, b: int, start_logprobs, end_logprobs, enc: EncodedExample) -> PredictionSet:
    """Row b of a ``topk_batch`` result as example b's PredictionSet."""
    m = int(ranked[3][b])
    starts, ends, scores = (a[b, :m] for a in ranked[:3])
    return PredictionSet(starts, ends, scores, start_logprobs[starts] + end_logprobs[ends], enc)


def text_matches(
    keys: np.ndarray, starts: np.ndarray, ends: np.ndarray, gold_starts: np.ndarray, gold_ends: np.ndarray
) -> np.ndarray:
    """Whether each candidate's normalized text equals its row's gold text.

    ``keys`` is (B, P), row b example b's ``passage_keys`` (padded); the
    (B, K) candidate and (B,) gold positions are passage-relative. Equal key
    windows mean equal normalized text (see ``EncodedExample``).
    """
    B, P = keys.shape
    gold_len = gold_ends - gold_starts + 1
    w = np.arange(int(gold_len.max()))
    row = np.arange(B)[:, None] * P
    # A window compared up to the gold's length on an equal-length span stays
    # inside its row; other entries are masked below, so clipping the flat
    # index only keeps them in bounds.
    cand = keys.take(row[:, :, None] + starts[:, :, None] + w, mode="clip")
    gold = keys.take(row + gold_starts[:, None] + w, mode="clip")
    agree = (cand == gold[:, None, :]) | (w >= gold_len[:, None, None])
    return agree.all(axis=2) & (ends - starts + 1 == gold_len[:, None])


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
        ScoredSpan(Span(i, j, span_text(enc, i, j)), sc, float(trace.start_logprobs[i] + trace.end_logprobs[j]))
        for sc, i, j in cands[:k]
    ]
    return PredictionSet.from_ranked(ranked, enc)


def build_frozen_set(
    preds: PredictionSet,
    gold: ScoredSpan,
    k: int,
    match: str = "position",
) -> tuple[PredictionSet, int | None]:
    """Guarantee the gold span a slot in the top-k candidate list.

    If the gold already sits in the top k (matched positionally by default, or
    by normalized text with match="text", which compares the token keys of
    ``preds.enc``), the top k is returned unchanged; otherwise the last slot is
    replaced by the gold. Returns the frozen set and the gold's 1-based rank
    among the original predictions (None when it was inserted). Padding short
    lists is forbidden.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if match not in ("position", "text"):
        raise ValueError(f"unknown gold-match mode {match!r}")
    starts, ends = preds.starts[:k], preds.ends[:k]
    g0, g1 = gold.span.positions
    if match == "position":
        hits = np.flatnonzero((starts == g0) & (ends == g1))
    else:
        if preds.enc is None:
            raise ValueError("text matching needs the prediction set's encoded example")
        p0 = preds.enc.passage_region[0]
        same = text_matches(
            preds.enc.passage_keys[None], starts[None] - p0, ends[None] - p0, np.array([g0 - p0]), np.array([g1 - p0])
        )
        hits = np.flatnonzero(same[0])
    gold_rank = int(hits[0]) + 1 if hits.size else None
    m = k if gold_rank is not None else k - 1  # predictions kept
    if len(preds) < m:
        raise ValueError(f"only {len(preds)} candidates available, cannot fill k={k}")
    if gold_rank is not None:
        return PredictionSet(starts, ends, preds.scores[:k], preds.log_probs[:k], preds.enc), gold_rank
    return PredictionSet(
        np.append(preds.starts[:m], g0),
        np.append(preds.ends[:m], g1),
        np.append(preds.scores[:m], gold.score),
        np.append(preds.log_probs[:m], gold.log_prob),
        preds.enc,
    ), None


def store_record(example_id: str, frozen: PredictionSet, gold_rank: int | None) -> dict:
    rows = zip(frozen.starts.tolist(), frozen.ends.tolist(), frozen.scores.tolist(), frozen.log_probs.tolist())
    return {
        "id": example_id,
        "spans": [{"start": s, "end": e, "score": sc, "log_prob": lp} for s, e, sc, lp in rows],
        "gold_rank": gold_rank,
    }


def write_candidate_store(path: str | Path, records: Iterable[dict]) -> None:
    """Candidate store: one JSON object per line, spans in sequence coordinates."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_candidate_store(path: str | Path) -> dict[str, dict]:
    """The store's records by id; refuses a line that is not a JSON object
    with a string id, and a repeated id, naming the path and the line."""
    out: dict[str, dict] = {}
    for where, rec in read_jsonl(path, "candidate"):
        if not isinstance(rec, dict) or not isinstance(rec.get("id"), str):
            raise ValueError(f"{where}: candidate record has no string id")
        if rec["id"] in out:
            raise ValueError(f"{where}: duplicate candidate id {rec['id']!r}")
        out[rec["id"]] = rec
    return out
