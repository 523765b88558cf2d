"""Dense float64 math substrate.

Plain numpy arrays throughout; ``Vec64``/``Mat64`` are aliases, shapes are the
caller's contract. Every softmax, log-sum-exp and row normalisation in the
package goes through the helpers here. ``finite_diff_grad`` is the
independent gradient estimator the test suite uses to verify every analytic
backward pass, and ``cosine_sim`` the independent reference for mining, so
neither may share code with the paths they check.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Vec64 = np.ndarray
Mat64 = np.ndarray

# Head logits outside the passage region carry this value. Most-negative
# finite double: it passes finiteness checks, and no softmax reads it
# (region_softmax reads only the region).
MASK_VALUE = float(np.finfo(np.float64).min)


def _shifted_exp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max m, exp(x - m) and that exponential's sum over the last axis (keepdims)."""
    m = x.max(axis=-1, keepdims=True)
    e = x - m
    np.exp(e, out=e)
    return m, e, e.sum(axis=-1, keepdims=True)


def row_softmax(x: np.ndarray) -> np.ndarray:
    """Shift-stable softmax over the last axis, without masking or validation."""
    _, e, s = _shifted_exp(x)
    e /= s
    return e


def logsumexp(x: np.ndarray) -> np.ndarray:
    """Shift-stable log-sum-exp over the last axis, keeping that axis."""
    m, _, s = _shifted_exp(x)
    return m + np.log(s)


def region_softmax(heads: Vec64 | Mat64, p0: int, p1: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and log-probabilities over the entries ``p0..p1`` of one
    vector, or of each row of a 2-d block, from one exp pass.

    Entries outside the region get probability exactly 0 and log-probability
    -inf, whatever they hold. Only the region is read, so each row of a block
    gets the same bits as its own 1-d call. Refuses a region that is empty or
    reaches outside the last axis, and a non-finite entry inside it.
    """
    n = heads.shape[-1]
    if not 0 <= p0 <= p1 < n:
        raise ValueError(f"region_softmax region ({p0}, {p1}) is empty or outside [0, {n})")
    live = heads[..., p0 : p1 + 1]
    if not np.isfinite(live).all():
        raise ValueError("region_softmax input must be finite inside the region")
    m, e, s = _shifted_exp(live)
    probs = np.zeros(heads.shape)
    np.divide(e, s, out=probs[..., p0 : p1 + 1])
    logprobs = np.full(heads.shape, -np.inf)
    np.subtract(live, m + np.log(s), out=logprobs[..., p0 : p1 + 1])
    return probs, logprobs


def unit_rows(x: Mat64) -> tuple[Mat64, Mat64]:
    """Each row of a 2-d array divided by its Euclidean norm, and the (n, 1)
    norms; refuses a zero-norm row."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"row {int(zero[0])} is zero-norm, so it has no direction")
    return x / norms, norms


def cosine_sim(u: Vec64, v: Vec64) -> float:
    """Cosine similarity of two equal-length vectors with positive norms."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"cosine_sim shape mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm input")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def pooling_matrix(n: int, starts, ends) -> Mat64:
    """Mean-pooling operator over inclusive row ranges of an n-row array.

    Row r of the (len(starts), n) result averages rows ``starts[r]..ends[r]``,
    so ``P @ rows`` pools and ``P.T @ grads`` is that pooling's exact
    backward. Refuses a range that is empty or reaches outside [0, n).
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.ndim != 1 or starts.shape != ends.shape:
        raise ValueError("pooling_matrix expects equal-length 1-d start and end arrays")
    bad = np.flatnonzero((ends < starts) | (starts < 0) | (ends >= n))
    if bad.size:
        r = int(bad[0])
        raise ValueError(f"pooling row {r} covers rows {starts[r]}..{ends[r]}: empty or outside [0, {n})")
    cols = np.arange(n)
    inside = (cols >= starts[:, None]) & (cols <= ends[:, None])
    return inside / (ends - starts + 1)[:, None]


def finite_diff_grad(f: Callable[[Vec64], float], x: Vec64, eps: float = 1e-5) -> Vec64:
    """Central-difference gradient estimate of a scalar function of a flat vector.

    eps defaults to 1e-5, balancing truncation against cancellation in double
    precision. Raises if any probed evaluation is non-finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("finite_diff_grad expects a flat parameter vector")
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite evaluation while probing coordinate {i}")
        g[i] = (fp - fm) / (2.0 * eps)
    return g


def max_rel_error(analytic: Vec64, numeric: Vec64, abs_floor: float = 1e-8) -> float:
    """Worst-case mixed relative/absolute disagreement between two gradients.

    Elements where both magnitudes sit below ``abs_floor`` are compared
    absolutely, everything else relative to the larger magnitude.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise ValueError("gradient shape mismatch")
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    small = scale < abs_floor
    err = np.where(small, diff, diff / np.maximum(scale, abs_floor))
    return float(err.max()) if err.size else 0.0
