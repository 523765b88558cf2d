"""Trainable span-extraction encoder: token + position embeddings, one
residual self-attention block, a residual ReLU feed-forward, and a linear
start/end head, all in float64 with hand-derived exact backward passes.

An encoding holds only its real tokens, so attention needs no mask. The
start/end softmax runs over the passage region only, so no probability mass
ever lands on question or special tokens; the logits outside it hold the mask
sentinel.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import EncodedExample, Span, SpanIndex, atomic_write
from .numeric import MASK_VALUE, Mat64, Vec64, pooling_matrix, region_softmax, row_softmax


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 32
    d_ff: int = 64
    max_len: int = 64
    num_hard_weights: int = 20

    def __post_init__(self):
        dims = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        for name, value in dims.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"encoder dimension {name} must be an integer, not {value!r}")
        if min(dims.values()) < 1:
            raise ValueError("all encoder dimensions must be positive")


# Bias-like fields: initialized to zero and exempt from weight decay.
BIAS_FIELDS = ("head_b", "u")
PARAM_FIELDS = ("token_emb", "pos_emb", "wq", "wk", "wv", "w1", "w2", "head_w", *BIAS_FIELDS)


@dataclass
class ModelParams:
    """Every learnable tensor, including the hard-learning rank-weight logits u."""

    token_emb: Mat64
    pos_emb: Mat64
    wq: Mat64
    wk: Mat64
    wv: Mat64
    w1: Mat64
    w2: Mat64
    head_w: Mat64
    head_b: Vec64
    u: Vec64

    def copy(self) -> "ModelParams":
        return ModelParams(**{f: getattr(self, f).copy() for f in PARAM_FIELDS})

    def arrays(self):
        return [(f, getattr(self, f)) for f in PARAM_FIELDS]


def param_shapes(config: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    d, dff = config.d_model, config.d_ff
    return [
        ("token_emb", (config.vocab_size, d)),
        ("pos_emb", (config.max_len, d)),
        ("wq", (d, d)),
        ("wk", (d, d)),
        ("wv", (d, d)),
        ("w1", (d, dff)),
        ("w2", (dff, d)),
        ("head_w", (2, d)),
        ("head_b", (2,)),
        ("u", (config.num_hard_weights,)),
    ]


def init_params(config: EncoderConfig, seed: int) -> ModelParams:
    """Uniform [-1/sqrt(d), 1/sqrt(d)] weights; zero head bias and rank logits."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(config.d_model)
    fields = {}
    for name, shape in param_shapes(config):
        if name in BIAS_FIELDS:
            fields[name] = np.zeros(shape, dtype=np.float64)
        else:
            fields[name] = rng.uniform(-bound, bound, size=shape)
    return ModelParams(**fields)


def zero_params(config: EncoderConfig) -> ModelParams:
    return ModelParams(**{name: np.zeros(shape, dtype=np.float64) for name, shape in param_shapes(config)})


def flatten_params(params: ModelParams) -> Vec64:
    return np.concatenate([getattr(params, f).ravel() for f in PARAM_FIELDS])


def unflatten_params(flat: Vec64, config: EncoderConfig) -> ModelParams:
    flat = np.asarray(flat, dtype=np.float64)
    fields = {}
    off = 0
    for name, shape in param_shapes(config):
        size = int(np.prod(shape))
        fields[name] = flat[off : off + size].reshape(shape).copy()
        off += size
    if off != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, layout needs {off}")
    return ModelParams(**fields)


@dataclass
class ForwardTrace:
    """Activations cached by forward; sufficient for an exact backward.

    Each pair of head fields (logits, probs, logprobs) holds the start and
    end rows of one (2, n) block."""

    enc: EncodedExample
    h0: Mat64
    qm: Mat64
    km: Mat64
    vm: Mat64
    attn: Mat64
    h1: Mat64
    ffn_pre: Mat64
    ffn_act: Mat64
    token_reprs: Mat64
    start_logits: Vec64
    end_logits: Vec64
    start_probs: Vec64
    end_probs: Vec64
    start_logprobs: Vec64
    end_logprobs: Vec64

    @property
    def length(self) -> int:
        return self.token_reprs.shape[0]


def forward(params: ModelParams, enc: EncodedExample) -> ForwardTrace:
    """Run the encoder over one example and cache everything backward needs.

    The encoding checked its ids when it was built; forward checks only its
    largest id against the vocab and its length against the position table."""
    n = enc.length
    V, d = params.token_emb.shape
    if enc.max_token_id >= V:
        raise ValueError(f"{enc.id}: token id {enc.max_token_id} >= vocab size {V}")
    if n > params.pos_emb.shape[0]:
        raise ValueError(f"{enc.id}: encoding length {n} > model max_len {params.pos_emb.shape[0]}")

    h0 = params.token_emb[enc.token_ids] + params.pos_emb[:n]
    qm = h0 @ params.wq
    km = h0 @ params.wk
    vm = h0 @ params.wv
    scores = qm @ km.T
    scores /= math.sqrt(d)
    attn = row_softmax(scores)
    # Residual sums added into the product in place (addition commutes, so
    # the bits are those of h0 + attn @ vm).
    h1 = attn @ vm
    h1 += h0
    ffn_pre = h1 @ params.w1
    ffn_act = np.maximum(ffn_pre, 0.0)
    h2 = ffn_act @ params.w2
    h2 += h1

    # Row 0 holds the start head, row 1 the end head; both share the region.
    heads = (h2 @ params.head_w.T + params.head_b).T.copy()
    p0, p1 = enc.passage_region
    probs, logprobs = region_softmax(heads, p0, p1)
    heads[:, :p0] = MASK_VALUE
    heads[:, p1 + 1 :] = MASK_VALUE

    return ForwardTrace(
        enc=enc,
        h0=h0,
        qm=qm,
        km=km,
        vm=vm,
        attn=attn,
        h1=h1,
        ffn_pre=ffn_pre,
        ffn_act=ffn_act,
        token_reprs=h2,
        start_logits=heads[0],
        end_logits=heads[1],
        start_probs=probs[0],
        end_probs=probs[1],
        start_logprobs=logprobs[0],
        end_logprobs=logprobs[1],
    )


@dataclass
class UpstreamGrads:
    """Loss gradients entering the encoder.

    ``d_start_logprob``/``d_end_logprob`` are with respect to the masked
    log-softmax vectors (length n); ``d_token_reprs`` with respect to the
    contextualized token rows (n x d); ``d_u`` passes straight through to the
    rank-weight logits.
    """

    d_start_logprob: Vec64 | None = None
    d_end_logprob: Vec64 | None = None
    d_token_reprs: Mat64 | None = None
    d_u: Vec64 | None = None


def _logprob_to_logit_grad(d_logprob: Vec64, probs: Vec64) -> Vec64:
    # d/dlogit_j [sum_i c_i logsoftmax_i] = c_j - p_j * sum_i c_i; masked
    # positions have c = p = 0 so they receive exactly zero gradient.
    return d_logprob - probs * d_logprob.sum()


def backward(
    params: ModelParams, trace: ForwardTrace, upstream: UpstreamGrads, into: ModelParams | None = None
) -> ModelParams:
    """Exact gradient of the upstream-weighted objective w.r.t. every parameter.

    The gradient is added into ``into`` (a fresh zero ModelParams when None),
    which is returned, so a batch accumulates into one buffer. Each field
    receives the same floating-point additions as adding a separately
    computed gradient would make.
    """
    n = trace.length
    d = params.token_emb.shape[1]
    config_k = params.u.shape[0]
    p0, p1 = trace.enc.passage_region

    def _vec(g, name):
        if g is None:
            return np.zeros(n, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (n,):
            raise ValueError(f"{name} has shape {g.shape}, expected ({n},)")
        # The log-probability is -inf outside the passage region, so no finite
        # objective has a gradient there.
        if np.count_nonzero(g[:p0]) or np.count_nonzero(g[p1 + 1 :]):
            pos = next(i for i in np.flatnonzero(g).tolist() if not p0 <= i <= p1)
            raise ValueError(
                f"{trace.enc.id}: {name} is {g[pos]} at position {pos}, outside the passage region ({p0}, {p1})"
            )
        return g

    d_sl = _logprob_to_logit_grad(_vec(upstream.d_start_logprob, "d_start_logprob"), trace.start_probs)
    d_el = _logprob_to_logit_grad(_vec(upstream.d_end_logprob, "d_end_logprob"), trace.end_probs)
    g_u = None
    if upstream.d_u is not None:
        g_u = np.asarray(upstream.d_u, dtype=np.float64)
        if g_u.shape != (config_k,):
            raise ValueError(f"d_u has shape {g_u.shape}, expected ({config_k},)")

    d_h2 = d_sl[:, None] * params.head_w[0] + d_el[:, None] * params.head_w[1]
    if upstream.d_token_reprs is not None:
        dtr = np.asarray(upstream.d_token_reprs, dtype=np.float64)
        if dtr.shape != (n, d):
            raise ValueError(f"d_token_reprs has shape {dtr.shape}, expected ({n}, {d})")
        d_h2 += dtr
    if into is None:
        into = ModelParams(**{f: np.zeros_like(a) for f, a in params.arrays()})
    into.head_w[0] += d_sl @ trace.token_reprs
    into.head_w[1] += d_el @ trace.token_reprs
    into.head_b[0] += d_sl.sum()
    into.head_b[1] += d_el.sum()

    d_act = d_h2 @ params.w2.T
    into.w2 += trace.ffn_act.T @ d_h2
    d_pre = d_act * (trace.ffn_pre > 0.0)
    into.w1 += trace.h1.T @ d_pre
    d_h1 = d_h2 + d_pre @ params.w1.T

    d_ctx = d_h1
    d_attn = d_ctx @ trace.vm.T
    d_vm = trace.attn.T @ d_ctx
    row_dot = (d_attn * trace.attn).sum(axis=1, keepdims=True)
    d_scores = trace.attn * (d_attn - row_dot)
    scale = 1.0 / math.sqrt(d)
    d_qm = (d_scores @ trace.km) * scale
    d_km = (d_scores.T @ trace.qm) * scale

    into.wq += trace.h0.T @ d_qm
    into.wk += trace.h0.T @ d_km
    into.wv += trace.h0.T @ d_vm
    d_h0 = d_h1  # summed in place, left to right: d_h1 is not read again
    d_h0 += d_qm @ params.wq.T
    d_h0 += d_km @ params.wk.T
    d_h0 += d_vm @ params.wv.T

    # Sum each distinct token's rows in sequence order, then add the sums in:
    # the same additions as scattering into a zero (vocab, d) gradient first.
    # Rank 0 covers every id and starts from zero (0.0 + x is x but for -0.0);
    # each later rank adds the next occurrence of the ids that have one.
    uniq, order, sizes = trace.enc.token_groups
    rows = d_h0[order]
    block = rows[: sizes[0]]
    block += 0.0
    lo = sizes[0]
    for size in sizes[1:]:
        block[:size] += rows[lo : lo + size]
        lo += size
    into.token_emb[uniq] += block
    into.pos_emb[:n] += d_h0
    if g_u is not None:
        into.u += g_u
    return into


def span_bounds(enc: EncodedExample, spans: Sequence[Span] | SpanIndex) -> tuple[np.ndarray, np.ndarray]:
    """Start and end positions of ``spans``; refuses one that is empty or
    outside the passage region."""
    if not isinstance(spans, SpanIndex):
        starts = np.array([s.start for s in spans], dtype=np.int64)
        spans = SpanIndex(starts, np.array([s.end for s in spans], dtype=np.int64))
    p0, p1 = enc.passage_region
    bad = np.flatnonzero((spans.starts < p0) | (spans.ends > p1) | (spans.ends < spans.starts))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{enc.id}: span ({spans.starts[i]}, {spans.ends[i]}) empty or outside passage region ({p0}, {p1})"
        )
    return spans.starts, spans.ends


def item_pooling(trace: ForwardTrace, gold: Span, spans: Sequence[Span] | SpanIndex) -> tuple[Mat64, Mat64]:
    """The contrastive item's pooling matrix and its mean-pooled rows: the
    question, the gold, then ``spans``, all in one product, so a row is the
    same whichever spans follow it. ``pool.T @ d_rows`` is the rows' exact
    backward. Refuses an empty question region, and a span that is empty or
    outside the passage region."""
    enc = trace.enc
    q0, q1 = enc.question_region
    if q1 < q0:
        raise ValueError(f"{enc.id}: empty question region")
    gold_start, gold_end = span_bounds(enc, [gold])
    starts, ends = span_bounds(enc, spans)
    pool = pooling_matrix(trace.length, np.r_[q0, gold_start, starts], np.r_[q1, gold_end, ends])
    return pool, pool @ trace.token_reprs


CHECKPOINT_MAGIC = b"SPANFORGE-CKPT-1\n"


def save_checkpoint(path: str | Path, config: EncoderConfig, params: ModelParams) -> None:
    """Write magic + one JSON header line + little-endian float64 blobs.

    Field order is PARAM_FIELDS; byte output is a pure function of
    (config, params). The file is replaced whole, or not at all.
    """
    header = {
        "config": asdict(config),
        "fields": [{"name": name, "shape": list(shape)} for name, shape in param_shapes(config)],
        "dtype": "<f8",
    }
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in PARAM_FIELDS:
            arr = np.ascontiguousarray(getattr(params, name), dtype="<f8")
            fh.write(arr.tobytes())


def _checkpoint_config(path, header_line: bytes) -> EncoderConfig:
    """The EncoderConfig of a checkpoint header line, whose field list must
    match the layout that config implies; refuses a malformed header."""
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: checkpoint header is not JSON ({exc})") from None
    keys = sorted(header) if isinstance(header, dict) else None
    if keys != ["config", "dtype", "fields"]:
        raise ValueError(f"{path}: checkpoint header keys {keys} are not ['config', 'dtype', 'fields']")
    if header["dtype"] != "<f8":
        raise ValueError(f"{path}: unsupported checkpoint dtype {header['dtype']!r}")
    cfg = header["config"]
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: checkpoint config is not a JSON object")
    unknown = sorted(set(cfg) - {f.name for f in dataclass_fields(EncoderConfig)})
    if unknown:
        raise ValueError(f"{path}: checkpoint config has unknown keys {unknown}")
    try:
        config = EncoderConfig(**cfg)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: invalid checkpoint config ({exc})") from None
    if header["fields"] != [{"name": name, "shape": list(shape)} for name, shape in param_shapes(config)]:
        raise ValueError(f"{path}: field list does not match the parameter layout of its config")
    return config


def load_checkpoint(path: str | Path) -> tuple[EncoderConfig, ModelParams]:
    """Read a checkpoint written by save_checkpoint.

    Every refusal is a ValueError naming the path: a header that is not a
    JSON object with exactly the keys config, dtype and fields, a dtype other
    than "<f8", a config that EncoderConfig refuses (unknown keys and
    dimensions that are not positive integers included), a field list that
    differs from the layout its config implies (names, order or shapes), field
    data shorter than that layout (checked before any field is read, so a
    huge declared size costs nothing), and trailing bytes.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a spanforge checkpoint")
        config = _checkpoint_config(path, fh.readline())
        need = 8 * sum(math.prod(shape) for _, shape in param_shapes(config))
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < need:
            raise ValueError(f"{path}: truncated checkpoint ({left} bytes of field data, its config needs {need})")
        if left > need:
            raise ValueError(f"{path}: trailing bytes after the last field")
        blob = fh.read(need)
    return config, unflatten_params(np.frombuffer(blob, dtype="<f8"), config)
