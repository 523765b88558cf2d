"""Exact match, macro-averaged token-overlap F1, top-k exact match, and their
dataset-level aggregate ``evaluate`` (texts in, an ``EvalReport`` out; no model).

Default normalization is lowercase + whitespace collapse only. The
English-specific SQuAD conventions (article stripping, punctuation removal)
are available behind ``squad_style=True`` for real English data; the
synthetic corpus has neither articles nor punctuation.
"""

from __future__ import annotations

import json
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Example, write_csv, write_json

_PUNCT = set(string.punctuation)
_ARTICLES = {"a", "an", "the"}


def normalize(text: str, squad_style: bool = False) -> str:
    """Lowercase, trim, collapse runs of whitespace to single spaces."""
    text = text.lower()
    if squad_style:
        text = "".join(ch for ch in text if ch not in _PUNCT)
        return " ".join(t for t in text.split() if t not in _ARTICLES)
    return " ".join(text.split())


def exact_match(pred: str, gold: str, squad_style: bool = False) -> int:
    return int(normalize(pred, squad_style) == normalize(gold, squad_style))


def f1_overlap(pred: str, gold: str, squad_style: bool = False) -> float:
    """Token-multiset overlap F1; 1.0 when both normalize to empty."""
    return _normalized_f1(normalize(pred, squad_style), normalize(gold, squad_style))


def _normalized_f1(pred: str, gold: str) -> float:
    """``f1_overlap`` of two texts that are already normalized."""
    p_toks = pred.split()
    g_toks = gold.split()
    if not p_toks and not g_toks:
        return 1.0
    overlap = sum((Counter(p_toks) & Counter(g_toks)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(p_toks)
    recall = overlap / len(g_toks)
    return 2.0 * precision * recall / (precision + recall)


def topk_em(preds: Sequence[str], gold: str, k: int, squad_style: bool = False) -> int:
    """1 iff any of the first k ranked prediction texts exact-matches gold."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return int(any(exact_match(p, gold, squad_style) for p in preds[:k]))


@dataclass
class EvalReport:
    records: list[dict]
    em: float
    f1: float
    topk: dict[int, float]
    k_list: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "aggregates": {"em": self.em, "f1": self.f1, "topk_em": {str(k): v for k, v in self.topk.items()}},
            "records": self.records,
        }

    def save_json(self, path: str | Path) -> None:
        write_json(path, self.to_json())

    def save_csv(self, path: str | Path) -> None:
        """Aggregate CSV, one row per k: columns k, em, f1."""
        write_csv(path, [["k", "em", "f1"], *([k, repr(self.topk[k]), repr(self.f1)] for k in self.k_list)])

    @classmethod
    def load_json(cls, path: str | Path) -> "EvalReport":
        """The report ``save_json`` wrote; ``k_list`` keeps the file's order."""
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        agg = obj["aggregates"]
        topk = {int(k): v for k, v in agg["topk_em"].items()}
        return cls(
            records=obj["records"],
            em=agg["em"],
            f1=agg["f1"],
            topk=topk,
            k_list=tuple(topk),
        )


def evaluate(
    examples: Iterable[Example],
    ranked_texts: Iterable[Sequence[str]],
    k_list: Sequence[int] = (1, 3, 5, 10),
    squad_style: bool = False,
) -> EvalReport:
    """EM/F1 of each example's top prediction and its top-k EM, aggregated.
    ``ranked_texts`` holds each example's prediction texts, best first (kept
    whole as ``top_preds``); a count unequal to the examples' is refused.
    ``k_list`` keeps each distinct k once, in first-seen order, and is
    checked before either iterable is read.

    The same figures as ``exact_match``, ``f1_overlap`` and ``topk_em``, with
    each text normalized once: the gold, the top prediction, and the next
    ones up to the first that matches the gold, within max(k_list)."""
    k_list = tuple(dict.fromkeys(k_list))
    if not k_list or min(k_list) < 1:
        raise ValueError("k_list must contain positive ks")
    top = max(k_list)
    records = []
    for ex, texts in zip(examples, ranked_texts, strict=True):
        gold = normalize(ex.gold.text, squad_style)
        top1 = normalize(texts[0], squad_style) if texts else ""
        # rank (0-based) of the first match among the top max(k_list) texts
        hit = 0 if texts and top1 == gold else next(
            (r for r in range(1, min(top, len(texts))) if normalize(texts[r], squad_style) == gold), top
        )
        rec = {
            "id": ex.id,
            "top_preds": texts,
            "gold": ex.gold.text,
            "em": int(top1 == gold),
            "f1": _normalized_f1(top1, gold),
            "topk_em": {str(k): int(hit < k) for k in k_list},
        }
        records.append(rec)
    if not records:
        raise ValueError("evaluate needs a non-empty dataset")
    n = len(records)
    return EvalReport(
        records=records,
        em=sum(r["em"] for r in records) / n,
        f1=sum(r["f1"] for r in records) / n,
        topk={k: sum(r["topk_em"][str(k)] for r in records) / n for k in k_list},
        k_list=k_list,
    )
