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

from .corpus import Span
from .encoder import ForwardTrace
from .mining import MiningStrategy
from .numeric import Vec64
from .spandecode import PredictionSet


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


def _check_span(trace: ForwardTrace, span: Span) -> None:
    p0, p1 = trace.enc.passage_region
    if not (p0 <= span.start and span.end <= p1):
        raise ValueError(f"span ({span.start}, {span.end}) outside passage region ({p0}, {p1})")


def span_log_prob(trace: ForwardTrace, span: Span) -> float:
    """log P(start = span.start) + log P(end = span.end) under the trace."""
    _check_span(trace, span)
    return float(trace.start_logprobs[span.start] + trace.end_logprobs[span.end])


def ce_loss(trace: ForwardTrace, gold: Span) -> float:
    return -span_log_prob(trace, gold)


def ce_loss_grads(trace: ForwardTrace, gold: Span) -> tuple[float, Vec64, Vec64]:
    _check_span(trace, gold)
    n = trace.length
    d_slp = np.zeros(n)
    d_elp = np.zeros(n)
    d_slp[gold.start] = -1.0
    d_elp[gold.end] = -1.0
    return -span_log_prob(trace, gold), d_slp, d_elp


def _span_list(preds: PredictionSet | list[Span]) -> list[Span]:
    if isinstance(preds, PredictionSet):
        return preds.spans()
    return list(preds)


def mml_loss(trace: ForwardTrace, preds: PredictionSet | list[Span]) -> float:
    """Negative log of the summed candidate probabilities (log-sum-exp form)."""
    spans = _span_list(preds)
    if not spans:
        raise ValueError("marginal likelihood over an empty candidate set")
    lps = np.array([span_log_prob(trace, s) for s in spans])
    m = lps.max()
    return float(-(m + np.log(np.exp(lps - m).sum())))


def mml_loss_grads(trace: ForwardTrace, preds: PredictionSet | list[Span]) -> tuple[float, Vec64, Vec64]:
    spans = _span_list(preds)
    if not spans:
        raise ValueError("marginal likelihood over an empty candidate set")
    lps = np.array([span_log_prob(trace, s) for s in spans])
    m = lps.max()
    lse = m + np.log(np.exp(lps - m).sum())
    posterior = np.exp(lps - lse)
    n = trace.length
    d_slp = np.zeros(n)
    d_elp = np.zeros(n)
    for q, s in zip(posterior, spans):
        d_slp[s.start] -= q
        d_elp[s.end] -= q
    return float(-lse), d_slp, d_elp


def _rank_weights(u: Vec64) -> Vec64:
    u = np.asarray(u, dtype=np.float64)
    e = np.exp(u - u.max())
    return e / e.sum()


def hard_loss(trace: ForwardTrace, preds: PredictionSet | list[Span], u: Vec64) -> float:
    """Rank-weighted negative log-probability over the frozen candidate set."""
    spans = _span_list(preds)
    u = np.asarray(u, dtype=np.float64)
    if len(spans) != u.shape[0]:
        raise ValueError(f"candidate count {len(spans)} != weight count {u.shape[0]}")
    w = _rank_weights(u)
    lps = np.array([span_log_prob(trace, s) for s in spans])
    return float(-(w * lps).sum())


def hard_loss_grads(
    trace: ForwardTrace, preds: PredictionSet | list[Span], u: Vec64
) -> tuple[float, Vec64, Vec64, Vec64]:
    """Loss plus gradients for the log-prob vectors and the weight logits u."""
    spans = _span_list(preds)
    u = np.asarray(u, dtype=np.float64)
    if len(spans) != u.shape[0]:
        raise ValueError(f"candidate count {len(spans)} != weight count {u.shape[0]}")
    w = _rank_weights(u)
    lps = np.array([span_log_prob(trace, s) for s in spans])
    ell = -lps
    loss = float((w * ell).sum())
    n = trace.length
    d_slp = np.zeros(n)
    d_elp = np.zeros(n)
    for wl, s in zip(w, spans):
        d_slp[s.start] -= wl
        d_elp[s.end] -= wl
    d_u = w * (ell - loss)
    return loss, d_slp, d_elp, d_u


def _unclipped_cosine(u: Vec64, v: Vec64) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("zero-norm representation in contrastive loss")
    return float(np.dot(u, v) / (nu * nv))


def _cosine_grads(u: Vec64, v: Vec64) -> tuple[Vec64, Vec64]:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    psi = float(np.dot(u, v) / (nu * nv))
    du = v / (nu * nv) - psi * u / (nu * nu)
    dv = u / (nu * nv) - psi * v / (nv * nv)
    return du, dv


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
    representation vector, including cross-item gold entries.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not batch:
        raise ValueError("contrastive loss over an empty batch")
    items = [(np.asarray(q, dtype=np.float64), np.asarray(g, dtype=np.float64), _as_hard_list(h)) for q, g, h in batch]
    B = len(items)
    grads = [
        ContrastiveItemGrads(
            d_question=np.zeros_like(q),
            d_gold=np.zeros_like(g),
            d_hards=[np.zeros_like(h) for h in hards],
        )
        for q, g, hards in items
    ]

    total = 0.0
    for i, (rq, rg, hards) in enumerate(items):
        # members[0] is the positive pair; slots address the gradient targets
        members: list[tuple[Vec64, str, int, int]] = [(rg, "gold", i, -1)]
        for t, rh in enumerate(hards):
            members.append((rh, "hard", i, t))
        for n_other in range(B):
            if n_other != i:
                members.append((items[n_other][1], "gold", n_other, -1))
        sims = np.array([_unclipped_cosine(rq, vec) for vec, _, _, _ in members]) / tau
        m = sims.max()
        lse = m + np.log(np.exp(sims - m).sum())
        total += float(-sims[0] + lse)

        coeff = np.exp(sims - lse)
        coeff[0] -= 1.0
        for (vec, kind, owner, t), c in zip(members, coeff):
            if c == 0.0:
                continue
            dq, dv = _cosine_grads(rq, vec)
            grads[i].d_question += (c / tau) * dq
            if kind == "gold":
                grads[owner].d_gold += (c / tau) * dv
            else:
                grads[owner].d_hards[t] += (c / tau) * dv

    inv_b = 1.0 / B
    for g in grads:
        g.d_question *= inv_b
        g.d_gold *= inv_b
        for dh in g.d_hards:
            dh *= inv_b
    return total / B, grads


def contrastive_loss(batch: list[tuple[Vec64, Vec64, object]], tau: float) -> float:
    value, _ = contrastive_loss_grads(batch, tau)
    return value


def combined_loss(contrast: float, hard: float, alpha: float) -> float:
    """Mixing rule: alpha * contrastive + (1 - alpha) * hard."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return alpha * contrast + (1.0 - alpha) * hard
