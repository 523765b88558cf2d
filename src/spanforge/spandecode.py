"""Top-k span extraction from start/end logits, frozen candidate-set
construction with a gold-insertion guarantee, and an independent brute-force
decoding oracle for the test suite.

Candidate sets are index arrays: a ``PredictionSet`` is a ``SpanIndex`` of
(start, end) positions with scores, so decoding, freezing, mining and the
losses all take it as it is. Span text comes only from the passage, built
where a caller reads it (``PredictionSet.ranked``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import EncodedExample, Span, SpanIndex, read_jsonl, span_text, write_jsonl
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


def candidate_count(passage_len, max_answer_len: int):
    """Number of legal spans for a given passage length (an int, or an int
    array for one count each) and length cap."""
    cap = np.minimum(max_answer_len, passage_len)
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
    example b's counts[b] = min(k, legal spans) ranked spans, then padding
    (score -inf, in index order); kk is the largest count. Refuses a
    non-finite logit inside a region, naming the example.

    One banded (B, n, width) score tensor, entry (b, i, w) for the span
    (i, i + w), flattened per row in (start, end) order, so ordering by
    (value, flat index) applies the tie rule. A partition finds each row's
    kk-th best score; only the entries at least that good (ties included)
    are sorted.
    """
    regions = [_check_decode_args(enc, k, max_answer_len) for enc in encs]
    lo = min(a for a, _ in regions)  # column j of the band is position lo + j
    n = max(z for _, z in regions) + 1 - lo
    width = min(max_answer_len, max(z - a for a, z in regions) + 1)
    B = len(encs)
    starts_in = np.zeros((B, n))
    ends_in = np.zeros((B, n + width - 1))
    for b, (sl, el, (a, z)) in enumerate(zip(start_logits, end_logits, regions)):
        starts_in[b, a - lo : z - lo + 1] = sl[a : z + 1]
        ends_in[b, a - lo : z - lo + 1] = el[a : z + 1]
    finite = np.isfinite(starts_in).all(axis=1) & np.isfinite(ends_in).all(axis=1)
    if not finite.all():
        raise ValueError(f"{encs[int(np.argmin(finite))].id}: non-finite start or end logit in the passage region")
    # -inf outside each region, so exactly the illegal spans sum to -inf.
    first, last = (np.array(regions) - lo).T[:, :, None]
    for heads in (starts_in, ends_in):
        cols = np.arange(heads.shape[1])
        heads[(cols < first) | (cols > last)] = -np.inf
    neg = starts_in[:, :, None] + sliding_window_view(ends_in, width, axis=1)
    np.negative(neg, out=neg)
    counts = np.minimum(k, candidate_count(last[:, 0] - first[:, 0] + 1, max_answer_len))
    kk = int(counts.max())
    flat = neg.reshape(B, -1)
    # A row with fewer than kk legal spans has +inf as its kk-th value, so it
    # keeps every entry and its padding comes out in index order.
    cut = np.partition(flat, kk - 1, axis=1)[:, kk - 1 : kk]
    rows, cols = np.divmod(np.flatnonzero(flat <= cut), flat.shape[1])
    # lexsort is stable and flatnonzero lists each row's entries in index
    # order, so ties keep it.
    order = np.lexsort((flat[rows, cols], rows))
    kept = np.bincount(rows, minlength=B)
    picked = cols[order[(np.cumsum(kept) - kept)[:, None] + np.arange(kk)]]
    starts = picked // width
    scores = -flat[np.arange(B)[:, None], picked]
    return starts + lo, starts + picked % width + lo, scores, counts


@dataclass(frozen=True, eq=False)
class RankedBatch:
    """Ranked candidate spans of a batch of examples: row b of the (B, K)
    arrays holds example b's ``counts[b]`` spans, best first, then padding
    (score and log-probability -inf). ``encs[b]`` is the example row b
    indexes (None when its text is never read)."""

    encs: Sequence[EncodedExample | None]
    starts: np.ndarray
    ends: np.ndarray
    scores: np.ndarray
    log_probs: np.ndarray
    counts: np.ndarray

    @classmethod
    def of_set(cls, preds: PredictionSet) -> "RankedBatch":
        """One prediction set as a batch of one row."""
        rows = (a[None] for a in (preds.starts, preds.ends, preds.scores, preds.log_probs))
        return cls([preds.enc], *rows, np.array([len(preds)]))

    def row(self, b: int) -> PredictionSet:
        """Row b as example b's PredictionSet (views of the batch's arrays)."""
        m = int(self.counts[b])
        return PredictionSet(
            self.starts[b, :m], self.ends[b, :m], self.scores[b, :m], self.log_probs[b, :m], self.encs[b]
        )


def rank_batch(heads: Sequence[tuple], encs: Sequence[EncodedExample], k: int, max_answer_len: int) -> RankedBatch:
    """``topk_batch`` with each span's log-probability; ``heads[b]`` holds
    example b's start logits, end logits, start log-probs and end log-probs."""
    start_logits, end_logits, start_logprobs, end_logprobs = zip(*heads)
    starts, ends, scores, counts = topk_batch(start_logits, end_logits, encs, k, max_answer_len)
    # One gather over the concatenated vectors; a padding entry may point past
    # its row, so it reads the row's position 0 and is then set to -inf.
    offsets = np.cumsum([0, *(len(v) for v in start_logprobs[:-1])])[:, None]
    live = np.arange(starts.shape[1]) < counts[:, None]
    at_start = np.where(live, starts, 0) + offsets
    at_end = np.where(live, ends, 0) + offsets
    log_probs = np.concatenate(start_logprobs)[at_start] + np.concatenate(end_logprobs)[at_end]
    log_probs[~live] = -np.inf
    return RankedBatch(encs, starts, ends, scores, log_probs, counts)


def topk_spans(trace: ForwardTrace, enc: EncodedExample, k: int, max_answer_len: int) -> PredictionSet:
    """The top-k legal spans of one example (fewer only when fewer exist):
    the one-example case of ``rank_batch``, ranked and tie-broken alike."""
    heads = (trace.start_logits, trace.end_logits, trace.start_logprobs, trace.end_logprobs)
    return rank_batch([heads], [enc], k, max_answer_len).row(0)


def text_matches(
    encs: Sequence[EncodedExample], starts: np.ndarray, ends: np.ndarray, gold_starts: np.ndarray, gold_ends: np.ndarray
) -> np.ndarray:
    """Whether each candidate's normalized text equals its row's gold text.

    The (B, K) candidate and (B,) gold positions are sequence positions,
    row b inside the passage region of ``encs[b]``. Equal windows of
    ``passage_keys`` mean equal normalized text (see ``EncodedExample``).
    """
    B, P = len(encs), max(len(enc.passage_keys) for enc in encs)
    keys = np.full((B, P), -1, dtype=np.int64)
    for b, enc in enumerate(encs):
        keys[b, : len(enc.passage_keys)] = enc.passage_keys
    # flat index of each row's sequence position 0
    row = (np.arange(B) * P - np.array([enc.passage_region[0] for enc in encs]))[:, None]
    gold_len = gold_ends - gold_starts + 1
    w = np.arange(int(gold_len.max()))
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


def freeze_batch(
    ranked: RankedBatch, golds: Sequence[ScoredSpan], k: int, match: str = "position"
) -> tuple[RankedBatch, list[int | None]]:
    """Guarantee each row's gold span a slot in its top-k candidate list.

    If the gold already sits in row b's top k (matched positionally by
    default, or by normalized text with match="text", which compares the
    token keys of ``ranked.encs[b]``), the top k is kept unchanged; otherwise
    the last slot is replaced by the gold. Returns the frozen sets, k spans
    per row, and each gold's 1-based rank among the original predictions
    (None when it was inserted). Padding short lists is forbidden.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if match not in ("position", "text"):
        raise ValueError(f"unknown gold-match mode {match!r}")
    B = len(golds)
    cols = min(k, ranked.starts.shape[1])
    starts, ends = ranked.starts[:, :cols], ranked.ends[:, :cols]
    gold_starts = np.array([g.span.start for g in golds], dtype=np.int64)
    gold_ends = np.array([g.span.end for g in golds], dtype=np.int64)
    if match == "position":
        same = (starts == gold_starts[:, None]) & (ends == gold_ends[:, None])
    else:
        if any(enc is None for enc in ranked.encs):
            raise ValueError("text matching needs the prediction set's encoded example")
        same = text_matches(ranked.encs, starts, ends, gold_starts, gold_ends)
    same &= np.arange(cols) < ranked.counts[:, None]
    found = same.any(axis=1)
    short = np.flatnonzero(ranked.counts < np.where(found, k, k - 1))
    if short.size:
        raise ValueError(f"only {ranked.counts[short[0]]} candidates available, cannot fill k={k}")
    # A row with a hit has k predictions, so cols == k and the row is whole;
    # every other row takes its gold in the last slot.
    inserted = ~found
    frozen = []
    for a, g in ((starts, gold_starts), (ends, gold_ends), (ranked.scores, [x.score for x in golds]),
                 (ranked.log_probs, [x.log_prob for x in golds])):
        out = np.empty((B, k), dtype=a.dtype)
        out[:, :cols] = a[:, :cols]
        out[inserted, k - 1] = np.asarray(g)[inserted]
        frozen.append(out)
    ranks = [int(r) + 1 if hit else None for r, hit in zip(same.argmax(axis=1).tolist(), found.tolist())]
    return RankedBatch(ranked.encs, *frozen, np.full(B, k)), ranks


def build_frozen_set(
    preds: PredictionSet,
    gold: ScoredSpan,
    k: int,
    match: str = "position",
) -> tuple[PredictionSet, int | None]:
    """The one-example case of ``freeze_batch``: ``preds``'s frozen set and
    the gold's 1-based rank among them (None when it was inserted)."""
    frozen, (rank,) = freeze_batch(RankedBatch.of_set(preds), [gold], k, match)
    return frozen.row(0), rank


def store_records(frozen: RankedBatch, gold_ranks: Sequence[int | None]) -> list[dict]:
    """One candidate-store record per row of ``frozen``, keyed by its example's id."""
    rows = zip(frozen.starts.tolist(), frozen.ends.tolist(), frozen.scores.tolist(), frozen.log_probs.tolist())
    return [
        {
            "id": enc.id,
            "spans": [{"start": s, "end": e, "score": sc, "log_prob": lp} for s, e, sc, lp in zip(*row)],
            "gold_rank": rank,
        }
        for enc, row, rank in zip(frozen.encs, rows, gold_ranks)
    ]


def write_candidate_store(path: str | Path, records: Iterable[dict]) -> None:
    """Candidate store: one JSON object per line, spans in sequence coordinates."""
    write_jsonl(path, records)


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
