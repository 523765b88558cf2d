"""Training objectives with exact analytic gradients.

Each *_grads function returns the scalar loss plus the upstream gradients the
encoder's backward consumes: gradients with respect to the start/end
log-probability vectors, the rank-weight logits, or pooled representation
vectors. A span's probability factorizes as P(start) * P(end), so its log
probability is the sum of the two log-softmax entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        raise ValueError(f"span ({gold.start}, {gold.end}) outside passage region ({p0}, {p1})")
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
    d_slp = np.zeros(n)
    d_elp = np.zeros(n)
    # subtract.at accumulates repeated positions, in list order
    np.subtract.at(d_slp, starts, posterior)
    np.subtract.at(d_elp, ends, posterior)
    return float(-lse[0]), d_slp, d_elp


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
    d_slp = np.zeros(n)
    d_elp = np.zeros(n)
    np.subtract.at(d_slp, starts, w)
    np.subtract.at(d_elp, ends, w)
    d_u = w * (ell - loss)
    return loss, d_slp, d_elp, d_u


def _as_hard_list(r_hard) -> list[Vec64]:
    if r_hard is None:
        return []
    if isinstance(r_hard, np.ndarray) and r_hard.ndim == 1:
        return [r_hard]
    return list(r_hard)


@dataclass
class ContrastiveItemGrads:
    d_question: Vec64
    d_gold: Vec64
    d_hards: list[Vec64]


def contrastive_loss_grads(
    batch: list[tuple[Vec64, Vec64, object]], tau: float
) -> tuple[float, list[ContrastiveItemGrads]]:
    """Batch-mean InfoNCE over (question, gold, hard-negative) representations.

    For item i the denominator covers its own gold, its hard negative(s), and
    every other item's gold; the positive pair sits in its own denominator.
    All similarities are cosine divided by tau. Gradients flow to every
    representation vector, including cross-item gold entries. Items may bring
    different numbers of hard negatives, none included.

    Computed in the in-batch matrix form: with Qn and Kn = [Gn; Hn] the
    unit-normalised questions and keys (golds, then every item's hards), row
    i of S = Qn Kn^T / tau is item i's logits, with other items' hards masked
    out. The cosine Jacobian (dXn - Xn <Xn, dXn>) / |X| maps the gradients
    back to the unnormalised vectors.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not batch:
        raise ValueError("contrastive loss over an empty batch")
    B = len(batch)
    hard_lists = [_as_hard_list(h) for _, _, h in batch]
    counts = [len(hards) for hards in hard_lists]
    q = np.stack([np.asarray(rq, dtype=np.float64) for rq, _, _ in batch])
    keys = np.stack(
        [np.asarray(rg, dtype=np.float64) for _, rg, _ in batch]
        + [np.asarray(rh, dtype=np.float64) for hards in hard_lists for rh in hards]
    )
    qn, q_norm = unit_rows(q)
    kn, k_norm = unit_rows(keys)

    rows = np.arange(B)
    owner = np.repeat(rows, counts)
    logits = (qn @ kn.T) / tau
    logits[:, B:][owner[None, :] != rows[:, None]] = -np.inf
    lse = logsumexp(logits)
    loss = float(np.mean(lse[:, 0] - logits[rows, rows]))

    # d(loss)/d(logit) = (softmax - onehot(positive)) / B; masked entries are 0
    coeff = np.exp(logits - lse)
    coeff[rows, rows] -= 1.0
    coeff /= tau * B
    d_qn = coeff @ kn
    d_kn = coeff.T @ qn
    d_q = (d_qn - qn * np.sum(qn * d_qn, axis=1, keepdims=True)) / q_norm
    d_k = (d_kn - kn * np.sum(kn * d_kn, axis=1, keepdims=True)) / k_norm

    bounds = np.cumsum([B] + counts)
    grads = [
        ContrastiveItemGrads(d_question=d_q[i], d_gold=d_k[i], d_hards=list(d_k[bounds[i] : bounds[i + 1]]))
        for i in range(B)
    ]
    return loss, grads


def contrastive_loss(batch: list[tuple[Vec64, Vec64, object]], tau: float) -> float:
    value, _ = contrastive_loss_grads(batch, tau)
    return value


def combined_loss(contrast: float, hard: float, alpha: float) -> float:
    """Mixing rule: alpha * contrastive + (1 - alpha) * hard."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return alpha * contrast + (1.0 - alpha) * hard
