"""Training objectives with exact analytic gradients.

Each *_grads function returns the scalar loss plus the upstream gradients the
encoder's backward consumes: gradients with respect to the start/end
log-probability vectors, the rank-weight logits, or pooled representation
vectors. A span's probability factorizes as P(start) * P(end), so its log
probability is the sum of the two log-softmax entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Span, SpanIndex
from .encoder import ForwardTrace, span_bounds
from .mining import MiningStrategy
from .numeric import Vec64, logsumexp, row_softmax, unit_rows


@dataclass(frozen=True)
class LossConfig:
    tau: float = 10.0
    alpha: float = 0.5
    k_frozen: int = 20
    k_dynamic: int = 50
    mining: MiningStrategy = field(default_factory=MiningStrategy)

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if min(self.k_frozen, self.k_dynamic) < 1:
            raise ValueError("k_frozen and k_dynamic must be >= 1")


# A candidate list is either Span objects or a SpanIndex of position arrays.
Spans = list[Span] | SpanIndex


def _gather(trace: ForwardTrace, spans: Spans) -> tuple[np.ndarray, np.ndarray, Vec64]:
    """Starts, ends and log-probabilities of ``spans``, after the region check."""
    starts, ends = span_bounds(trace.enc, spans)
    return starts, ends, trace.start_logprobs[starts] + trace.end_logprobs[ends]


def _scatter_neg(positions: np.ndarray, weights: Vec64, n: int) -> Vec64:
    """Length-n vector holding minus the sum of ``weights`` at each position.

    ``bincount`` adds each position's weights in list order from zero, and
    (0 - a) - b = 0 - (a + b) exactly under round-to-nearest, so this gives
    the bits of ``np.subtract.at`` on zeros at a fraction of its cost.
    """
    return 0.0 - np.bincount(positions, weights=weights, minlength=n)


def span_log_prob(trace: ForwardTrace, span: Span) -> float:
    """log P(start = span.start) + log P(end = span.end) under the trace."""
    return float(_gather(trace, [span])[2][0])


def ce_loss(trace: ForwardTrace, gold: Span) -> float:
    return ce_loss_grads(trace, gold)[0]


def ce_loss_grads(trace: ForwardTrace, gold: Span) -> tuple[float, Vec64, Vec64]:
    # One span: index the two log-probs directly rather than through the
    # array gather, whose per-call cost is most of this function's.
    p0, p1 = trace.enc.passage_region
    if gold.start < p0 or gold.end > p1:
        raise ValueError(f"{trace.enc.id}: span ({gold.start}, {gold.end}) outside passage region ({p0}, {p1})")
    loss = -float(trace.start_logprobs[gold.start] + trace.end_logprobs[gold.end])
    n = trace.length
    d_slp = np.zeros(n)
    d_elp = np.zeros(n)
    d_slp[gold.start] = -1.0
    d_elp[gold.end] = -1.0
    return loss, d_slp, d_elp


def mml_loss(trace: ForwardTrace, spans: Spans) -> float:
    """Negative log of the summed candidate probabilities (log-sum-exp form)."""
    return mml_loss_grads(trace, spans)[0]


def mml_loss_grads(trace: ForwardTrace, spans: Spans) -> tuple[float, Vec64, Vec64]:
    if not spans:
        raise ValueError("marginal likelihood over an empty candidate set")
    starts, ends, lps = _gather(trace, spans)
    lse = logsumexp(lps)
    posterior = np.exp(lps - lse)
    n = trace.length
    return float(-lse[0]), _scatter_neg(starts, posterior, n), _scatter_neg(ends, posterior, n)


def hard_loss(trace: ForwardTrace, spans: Spans, u: Vec64) -> float:
    """Rank-weighted negative log-probability over the frozen candidate set."""
    return hard_loss_grads(trace, spans, u)[0]


def hard_loss_grads(trace: ForwardTrace, spans: Spans, u: Vec64) -> tuple[float, Vec64, Vec64, Vec64]:
    """Loss plus gradients for the log-prob vectors and the weight logits u."""
    u = np.asarray(u, dtype=np.float64)
    if len(spans) != u.shape[0]:
        raise ValueError(f"candidate count {len(spans)} != weight count {u.shape[0]}")
    w = row_softmax(u)
    starts, ends, lps = _gather(trace, spans)
    ell = -lps
    loss = float((w * ell).sum())
    n = trace.length
    d_u = w * (ell - loss)
    return loss, _scatter_neg(starts, w, n), _scatter_neg(ends, w, n), d_u


def contrastive_loss_grads(rows: Sequence[np.ndarray], tau: float) -> tuple[float, list[np.ndarray]]:
    """Batch-mean InfoNCE over each item's pooled rows, with their gradients.

    Item i brings one (2 + h_i, d) array: its question row, its gold row, then
    its h_i hard-negative rows (h_i may be 0). Its denominator covers its own
    gold, its own hard negatives and every other item's gold; the positive
    pair sits in its own denominator. All similarities are cosine divided by
    tau. Returns the loss and one gradient array per item, shaped like that
    item's rows; cross-item gold entries receive gradient too.

    Computed in the in-batch matrix form: with Qn and Kn the unit-normalised
    questions and keys (golds, then every item's hards), row i of
    S = Qn Kn^T / tau is item i's logits, with other items' hards masked out.
    The cosine Jacobian (dXn - Xn <Xn, dXn>) / |X| maps the gradients back to
    the unnormalised rows.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not rows:
        raise ValueError("contrastive loss over an empty batch")
    rows = [np.asarray(r, dtype=np.float64) for r in rows]
    B = len(rows)
    counts = [r.shape[0] - 2 for r in rows]
    qn, q_norm = unit_rows(np.stack([r[0] for r in rows]))
    kn, k_norm = unit_rows(np.concatenate([np.stack([r[1] for r in rows])] + [r[2:] for r in rows]))

    items = np.arange(B)
    owner = np.repeat(items, counts)
    logits = (qn @ kn.T) / tau
    logits[:, B:][owner[None, :] != items[:, None]] = -np.inf
    lse = logsumexp(logits)
    loss = float(np.mean(lse[:, 0] - logits[items, items]))

    # d(loss)/d(logit) = (softmax - onehot(positive)) / B; masked entries are 0
    coeff = np.exp(logits - lse)
    coeff[items, items] -= 1.0
    coeff /= tau * B
    d_qn = coeff @ kn
    d_kn = coeff.T @ qn
    d_q = (d_qn - qn * np.sum(qn * d_qn, axis=1, keepdims=True)) / q_norm
    d_k = (d_kn - kn * np.sum(kn * d_kn, axis=1, keepdims=True)) / k_norm

    bounds = np.cumsum([B] + counts)
    return loss, [np.vstack([d_q[i], d_k[i], d_k[bounds[i] : bounds[i + 1]]]) for i in range(B)]


def contrastive_loss(batch: Sequence[tuple[Vec64, Vec64, object]], tau: float) -> float:
    """InfoNCE value on (question, gold, hard negatives) tuples; the hard
    negatives may be None, one vector, a sequence of vectors or a 2-d array."""
    rows = []
    for rq, rg, hards in batch:
        hards = np.asarray([] if hards is None else hards, dtype=np.float64)
        rows.append(np.vstack([rq, rg, np.atleast_2d(hards) if hards.size else hards.reshape(0, len(rq))]))
    return contrastive_loss_grads(rows, tau)[0]


def combined_loss(contrast: float, hard: float, alpha: float) -> float:
    """Mixing rule: alpha * contrastive + (1 - alpha) * hard."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return alpha * contrast + (1.0 - alpha) * hard
