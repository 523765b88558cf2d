"""Training pipeline: base-model training on span cross-entropy, frozen
candidate-set collection with the gold-slot guarantee, and combined-objective
finetuning (rank-weighted hard loss over the frozen set plus answer-aware
contrastive loss with per-step hard-negative mining), driven by AdamW with
linear warm-up.

Base training, the cross-entropy control and combined finetuning run one
loop (``_run_loop``: shuffling, warm-up, the finiteness check, AdamW, logging,
checkpoints, evaluation); each supplies only a stage, a generator of per-batch
gradients and losses.

Everything is deterministic given (config, seed, data): shuffling comes from
one seeded generator, random mining from per-(example, step) derived streams,
and every reduction runs in a fixed order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .corpus import EncodedExample, Example, Span, SpanIndex, Vocab, encode, read_jsonl, span_text, write_json, write_jsonl
from .encoder import (
    BIAS_FIELDS,
    EncoderConfig,
    ForwardTrace,
    ModelParams,
    PARAM_FIELDS,
    UpstreamGrads,
    backward,
    forward,
    init_params,
    item_pooling,
    save_checkpoint,
    span_bounds,
    zero_params,
)
from .losses import (
    LossConfig,
    ce_loss_grads,
    combined_loss,
    contrastive_loss_grads,
    hard_loss_grads,
)
from .mining import mine_batch, mining_rng
from .metrics import EvalReport, evaluate
from .numeric import Mat64
from .spandecode import (
    PredictionSet,
    RankedBatch,
    ScoredSpan,
    freeze_batch,
    rank_batch,
    store_records,
    topk_batch,
    write_candidate_store,
)

DECODE_CHUNK = 32  # examples per topk_batch call in decode


@dataclass
class TrainConfig:
    encoder: EncoderConfig
    loss: LossConfig = field(default_factory=LossConfig)
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.01
    epochs: int = 3
    batch_size: int = 32
    checkpoint_every: int = 1000
    eval_every: int = 0
    seed: int = 0
    warmup: float = 0.1
    max_answer_len: int = 8
    question_max_len: int = 64
    objective: str = "combined"  # finetune objective: "combined" or "ce"
    z_match: str = "position"  # gold membership test when freezing: position | text
    z_refresh_every: int = 0  # steps between frozen-set refreshes; 0 = frozen
    remine_every: int = 1  # steps a mined selection is reused before re-mining
    probe_count: int = 3
    probe_top_n: int = 4
    log_mined: bool = True

    def __post_init__(self):
        if self.objective not in ("combined", "ce"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.z_match not in ("position", "text"):
            raise ValueError(f"unknown z_match {self.z_match!r}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if not 0.0 <= self.warmup <= 1.0:
            raise ValueError("warmup must lie in [0, 1]")
        if self.remine_every < 1:
            raise ValueError("remine_every must be >= 1")
        for name in ("checkpoint_every", "eval_every", "z_refresh_every", "probe_count", "question_max_len"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("probe_top_n", "max_answer_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class RunLog:
    """Append-only record stream, written as JSON Lines."""

    def __init__(self):
        self.records: list[dict] = []

    def add(self, **record) -> None:
        self.records.append(record)

    def of_kind(self, kind: str) -> list[dict]:
        return [r for r in self.records if r.get("kind") == kind]

    def save(self, path: str | Path) -> None:
        write_jsonl(path, self.records)

    @classmethod
    def load(cls, path: str | Path) -> "RunLog":
        """Refuses a line that is not a JSON object, naming the path and the line."""
        log = cls()
        for where, rec in read_jsonl(path, "run-log"):
            if not isinstance(rec, dict):
                raise ValueError(f"{where}: run-log record is not an object")
            log.records.append(rec)
        return log


@dataclass
class AdamState:
    m: ModelParams
    v: ModelParams
    t: int = 0


def init_adam_state(config: EncoderConfig) -> AdamState:
    return AdamState(m=zero_params(config), v=zero_params(config), t=0)


def adamw_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """One decoupled-weight-decay Adam update, in place.

    Decay multiplies the parameter by (1 - lr * wd) before the adaptive term
    is subtracted; the bias-like BIAS_FIELDS are never decayed. A
    non-finite gradient in any field is refused before any state changes.
    """
    for name in PARAM_FIELDS:
        if not np.all(np.isfinite(getattr(grads, name))):
            raise RuntimeError(f"non-finite gradient in {name}")
    b1, b2 = betas
    state.t += 1
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name in PARAM_FIELDS:
        g = getattr(grads, name)
        m = getattr(state.m, name)
        v = getattr(state.v, name)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p = getattr(params, name)
        if weight_decay != 0.0 and name not in BIAS_FIELDS:
            p *= 1.0 - lr * weight_decay
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def _lr_at(base_lr: float, step: int, warmup_steps: int) -> float:
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    return base_lr


def _encode_usable(
    config: TrainConfig, examples: Sequence[Example], vocab: Vocab
) -> tuple[list[EncodedExample], int]:
    encs = []
    skipped = 0
    seen = set()
    for ex in examples:
        if ex.id in seen:
            raise ValueError(f"duplicate example id {ex.id!r}")
        seen.add(ex.id)
        enc = encode(ex, vocab, config.encoder.max_len, config.question_max_len)
        if enc.usable:
            encs.append(enc)
        else:
            skipped += 1
    if not encs:
        raise ValueError("no usable examples after encoding")
    return encs, skipped


def _batches(rng: np.random.Generator, n: int, batch_size: int) -> Iterable[np.ndarray]:
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo : lo + batch_size]


def total_steps(n_examples: int, batch_size: int, epochs: int) -> int:
    return epochs * math.ceil(n_examples / batch_size)


def gold_scored(trace: ForwardTrace, gold: Span) -> ScoredSpan:
    return ScoredSpan(
        span=gold,
        score=float(trace.start_logits[gold.start] + trace.end_logits[gold.end]),
        log_prob=float(trace.start_logprobs[gold.start] + trace.end_logprobs[gold.end]),
    )


def decode_chunks(
    params: ModelParams, encs: Iterable[EncodedExample], k: int, max_answer_len: int
) -> Iterator[tuple[RankedBatch, list[ScoredSpan | None]]]:
    """The one inference path: per chunk of DECODE_CHUNK examples, one forward
    each and one ``rank_batch`` call, yielding the chunk's top-k RankedBatch
    and each gold's ScoredSpan (None if unusable); ``encs`` is read one chunk
    at a time."""
    encs = iter(encs)
    while chunk := list(islice(encs, DECODE_CHUNK)):
        heads, golds = [], []
        for enc in chunk:
            trace = forward(params, enc)
            heads.append((trace.start_logits, trace.end_logits, trace.start_logprobs, trace.end_logprobs))
            golds.append(gold_scored(trace, enc.gold_in_sequence) if enc.usable else None)
            del trace  # only the head vectors outlive a forward, so at most one trace is ever alive
        yield rank_batch(heads, chunk, k, max_answer_len), golds


def decode(params: ModelParams, encs: Iterable[EncodedExample], k: int, max_answer_len: int) -> Iterator[PredictionSet]:
    """``decode_chunks`` one example at a time: each example's top-k PredictionSet, in order."""
    for ranked, _ in decode_chunks(params, encs, k, max_answer_len):
        yield from map(ranked.row, range(len(ranked.encs)))


def frozen_chunks(
    params: ModelParams, encs: Iterable[EncodedExample], config: TrainConfig
) -> Iterator[tuple[RankedBatch, list[int | None]]]:
    """The one freezing pass, shared by ``collect_candidates`` and the
    frozen-set refresh: per ``decode_chunks`` chunk, ``freeze_batch``'s frozen
    sets of k_frozen spans and each gold's rank (None when inserted)."""
    k = config.loss.k_frozen
    for ranked, golds in decode_chunks(params, encs, k, config.max_answer_len):
        yield freeze_batch(ranked, golds, k, config.z_match)


def log_probe_predictions(
    params: ModelParams,
    config: TrainConfig,
    probe_encs: Sequence[EncodedExample],
    n: int,
    step: int,
) -> list[dict]:
    """Top-n spans with probabilities for each probe example at a checkpoint."""
    return [
        {
            "kind": "probe",
            "step": step,
            "id": preds.enc.id,
            "preds": [
                {"start": s.span.start, "end": s.span.end, "text": s.span.text, "prob": float(np.exp(s.log_prob))}
                for s in preds.ranked
            ],
        }
        for preds in decode(params, probe_encs, n, config.max_answer_len)
    ]


# A stage takes the stream of (step, batch) pairs and yields, per batch, the
# batch gradients, the batch loss, the fields of the step record and any
# follow-up (kind, fields) records.
Batches = Iterator[tuple[int, list[EncodedExample]]]
StepResult = tuple[ModelParams, float, dict, list[tuple[str, dict]]]
Stage = Callable[[Batches], Iterator[StepResult]]


def _run_loop(config, params, encs, stage: Stage, log, phase, dev_examples, vocab, out_dir, final_ckpt) -> None:
    """Minibatch AdamW with linear warm-up over ``config.epochs`` shuffled
    epochs, updating ``params`` in place. No update is applied unless the
    batch loss is finite."""
    state = init_adam_state(config.encoder)
    rng = np.random.default_rng(config.seed)
    steps = total_steps(len(encs), config.batch_size, config.epochs)
    warmup_steps = math.ceil(config.warmup * steps)
    probe = encs[: config.probe_count]
    batches = enumerate(
        [encs[int(i)] for i in batch_idx]
        for _ in range(config.epochs)
        for batch_idx in _batches(rng, len(encs), config.batch_size)
    )

    for step, (grads, loss, fields, follow) in enumerate(stage(batches)):
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at step {step}")
        adamw_step(params, grads, state, _lr_at(config.lr, step, warmup_steps), config.betas, config.eps, config.weight_decay)
        done = step + 1
        log.add(kind="step", phase=phase, step=done, **fields)
        for kind, rec in follow:
            log.add(kind=kind, step=done, **rec)
        _maybe_checkpoint(config, params, probe, done, steps, out_dir, log, phase)
        _maybe_eval(config, params, dev_examples, vocab, done, log)
    if out_dir is not None:
        out = Path(out_dir)
        save_checkpoint(out / final_ckpt, config.encoder, params)
        log.save(out / f"runlog_{phase}.jsonl")


def _ce_steps(params: ModelParams, config: TrainConfig, loss_key: str, batches: Batches, **tags) -> Iterator[StepResult]:
    """Gold-span cross-entropy steps; the batch loss goes into the step
    record under ``loss_key``, after ``tags``."""
    for _, batch_encs in batches:
        grads = zero_params(config.encoder)
        batch_loss = 0.0
        inv_b = 1.0 / len(batch_encs)
        for enc in batch_encs:
            # Keep the trace bound, across the yield too, until the next
            # example replaces it: freeing it sooner lets the allocator trim
            # the heap and fault the pages back in on every example or step.
            trace = forward(params, enc)
            loss, d_slp, d_elp = ce_loss_grads(trace, enc.gold_in_sequence)
            batch_loss += loss * inv_b
            backward(params, trace, UpstreamGrads(d_slp * inv_b, d_elp * inv_b), into=grads)
        yield grads, batch_loss, {**tags, loss_key: batch_loss}, []


def train_base(
    config: TrainConfig,
    train_examples: Sequence[Example],
    vocab: Vocab,
    dev_examples: Sequence[Example] = (),
    out_dir: str | Path | None = None,
    init: ModelParams | None = None,
) -> tuple[ModelParams, RunLog]:
    """Minibatch AdamW over the gold-span cross-entropy.

    Pass ``init`` to resume from existing parameters (optimizer state starts
    fresh); otherwise parameters are drawn from the seeded initializer.
    """
    log = RunLog()
    encs, skipped = _encode_usable(config, train_examples, vocab)
    log.add(kind="setup", phase="base", examples=len(encs), skipped_unusable=skipped)
    params = init.copy() if init is not None else init_params(config.encoder, config.seed)
    stage = partial(_ce_steps, params, config, "loss")
    _run_loop(config, params, encs, stage, log, "base", dev_examples, vocab, out_dir, "base.ckpt")
    return params, log


def _maybe_checkpoint(config, params, probe, step, steps, out_dir, log, tag):
    at_cadence = config.checkpoint_every > 0 and step % config.checkpoint_every == 0
    if not (at_cadence or step == steps):
        return
    for rec in log_probe_predictions(params, config, probe, config.probe_top_n, step):
        log.add(**rec)
    if out_dir is not None and at_cadence:
        save_checkpoint(Path(out_dir) / f"{tag}_step{step:06d}.ckpt", config.encoder, params)


def _maybe_eval(config, params, dev_examples, vocab, step, log):
    if config.eval_every > 0 and dev_examples and step % config.eval_every == 0:
        report = run_eval(params, config, dev_examples, vocab, k_list=(1,))
        log.add(kind="eval", step=step, em=report.em, f1=report.f1)


def collect_candidates(
    params: ModelParams,
    config: TrainConfig,
    examples: Sequence[Example],
    vocab: Vocab,
    out_path: str | Path | None = None,
) -> tuple[list[dict], dict]:
    """Decode the frozen candidate set for every example and summarize recall.

    Each record keeps the example's top-k spans with the gold guaranteed a
    slot, plus the gold's original rank (None when it had to be inserted).
    """
    k = config.loss.k_frozen
    encs, skipped = _encode_usable(config, examples, vocab)
    records = [rec for frozen in frozen_chunks(params, encs, config) for rec in store_records(*frozen)]
    rank_hist = Counter(str(r["gold_rank"]) for r in records)
    n = len(records)
    ranked = [r["gold_rank"] for r in records if r["gold_rank"] is not None]
    summary = {
        "count": n,
        "skipped_unusable": skipped,
        "k": k,
        "gold_rank_hist": dict(sorted(rank_hist.items(), key=lambda kv: (kv[0] == "None", kv[0].zfill(4)))),
        "recall_at": {str(kk): sum(1 for r in ranked if r <= kk) / n for kk in (1, 3, 5, 10, k)},
    }
    if out_path is not None:
        write_candidate_store(out_path, records)
        write_json(Path(out_path).with_suffix(".summary.json"), summary, sort_keys=True)
    return records, summary


@dataclass
class BatchItem:
    """One example's frozen inputs for a single optimization step. Span
    lists may be Span objects or a SpanIndex of positions."""

    enc: EncodedExample
    gold: Span
    frozen_spans: list[Span] | SpanIndex
    neg_spans: list[Span] | SpanIndex  # empty = skip the contrastive term for this item


@dataclass
class BatchResult:
    combined: float
    hard: float
    contrast: float
    grads: ModelParams
    contrastive_items: int


def combined_batch(params: ModelParams, items: Sequence[BatchItem], config: TrainConfig) -> BatchResult:
    """Loss and exact gradients of the combined objective on one batch.

    Pure in (params, items, config): candidate sets and mined negatives are
    already frozen inside the items, so the value is differentiable in the
    parameters and finite-difference checkable. The hard side averages over
    the whole batch; the contrastive side averages over items that brought a
    negative. At alpha extremes the excluded side contributes no gradient at
    all (not even exact zeros added in).

    One forward per item and, where the loss reads it, one ``item_pooling``,
    then the same computation the training step runs on the traces and
    poolings it already holds, so both give bitwise-equal results.
    """
    traces = [forward(params, it.enc) for it in items]
    alpha = config.loss.alpha
    poolings = [
        item_pooling(tr, it.gold, it.neg_spans) if alpha > 0.0 and it.neg_spans else None
        for it, tr in zip(items, traces)
    ]
    return _combined_from_traces(params, items, traces, poolings, config)


def _combined_from_traces(
    params: ModelParams, items: Sequence[BatchItem], traces: Sequence[ForwardTrace], poolings, config: TrainConfig
) -> BatchResult:
    """combined_batch on ``traces``, each item's forward under ``params``, and
    ``poolings``, each item's ``item_pooling`` (None where the loss reads none)."""
    loss_cfg = config.loss
    alpha = loss_cfg.alpha
    B = len(items)
    if B == 0:
        raise ValueError("empty batch")

    # one pass before the loss: each item's hard-loss terms
    hard_scale = (1.0 - alpha) / B
    hard_vals, ups = [], []
    d_u_total = np.zeros_like(params.u)
    for it, tr in zip(items, traces):
        hl, d_slp, d_elp, d_u = hard_loss_grads(tr, it.frozen_spans, params.u)
        hard_vals.append(hl)
        d_u_total += d_u
        up = UpstreamGrads()
        if alpha < 1.0:
            up.d_start_logprob = d_slp * hard_scale
            up.d_end_logprob = d_elp * hard_scale
        ups.append(up)
    hard_mean = float(sum(hard_vals) / B)
    rows = [pooling[1] for pooling in poolings if pooling is not None]
    contrast_val, d_rows = contrastive_loss_grads(rows, loss_cfg.tau) if rows else (0.0, [])

    # one pass after: each item's upstream gradients into one backward
    total = zero_params(config.encoder)
    d_rows = iter(d_rows)
    for up, pooling, tr in zip(ups, poolings, traces):
        if pooling is not None:
            up.d_token_reprs = alpha * (pooling[0].T @ next(d_rows))
        if up.d_start_logprob is not None or up.d_token_reprs is not None:
            backward(params, tr, up, into=total)
    if alpha < 1.0:
        total.u += hard_scale * d_u_total

    return BatchResult(
        combined=combined_loss(contrast_val, hard_mean, alpha),
        hard=hard_mean,
        contrast=contrast_val,
        grads=total,
        contrastive_items=len(rows),
    )


def _frozen_spans_from_record(rec: dict, enc: EncodedExample, k: int) -> SpanIndex:
    """A candidate-store record's frozen set; refuses a record whose spans are
    not a list of objects with integer ``start`` and ``end``, a wrong count,
    and a span that is empty or outside the passage region."""
    spans = rec.get("spans")
    if not isinstance(spans, list):
        raise ValueError(f"{enc.id}: candidate record's spans are not a list")
    if len(spans) != k:
        raise ValueError(f"{enc.id}: store has {len(spans)} candidate spans, config expects {k}")
    for i, s in enumerate(spans):
        if not isinstance(s, dict) or "start" not in s or "end" not in s:
            raise ValueError(f"{enc.id}: candidate span {i} is not an object with start and end")
        if type(s["start"]) is not int or type(s["end"]) is not int:  # not JSON true, not 10.0
            raise ValueError(f"{enc.id}: candidate span {i} position ({s['start']!r}, {s['end']!r}) is not an integer")
    index = SpanIndex(
        np.array([s["start"] for s in spans], dtype=np.int64),
        np.array([s["end"] for s in spans], dtype=np.int64),
    )
    span_bounds(enc, index)
    return index


def finetune(
    config: TrainConfig,
    train_examples: Sequence[Example],
    vocab: Vocab,
    store: dict[str, dict],
    init: ModelParams,
    dev_examples: Sequence[Example] = (),
    out_dir: str | Path | None = None,
) -> tuple[ModelParams, RunLog]:
    """Combined-objective finetuning from a base checkpoint.

    Runs train_base's loop with a different step. Per batch: re-decode the
    dynamic top-k and mine a hard negative per example (skipping the
    contrastive term where none is eligible), then take one AdamW step on the
    combined objective, rank-weight logits included. With objective="ce" the
    step is train_base's gold-span cross-entropy, as a control.
    """
    log = RunLog()
    encs, skipped = _encode_usable(config, train_examples, vocab)
    params = init.copy()
    if params.u.shape[0] != config.loss.k_frozen:
        params.u = np.zeros(config.loss.k_frozen)
        log.add(kind="setup_note", note="hard-weight logits re-initialized to match k_frozen")
    enc_cfg = replace(config.encoder, num_hard_weights=config.loss.k_frozen)
    config = replace(config, encoder=enc_cfg)

    if config.objective == "ce":
        stage = partial(_ce_steps, params, config, "combined", objective="ce")
    else:
        missing = [enc.id for enc in encs if enc.id not in store]
        if missing:
            raise ValueError(f"candidate store is missing {len(missing)} example(s), e.g. {missing[:3]}")
        frozen_map = {enc.id: _frozen_spans_from_record(store[enc.id], enc, config.loss.k_frozen) for enc in encs}
        stage = partial(_combined_steps, params, config, encs, frozen_map, log)
    log.add(kind="setup", phase="finetune", objective=config.objective, examples=len(encs), skipped_unusable=skipped)
    _run_loop(config, params, encs, stage, log, "finetune", dev_examples, vocab, out_dir, "finetuned.ckpt")
    return params, log


def _combined_steps(
    params, config, encs, frozen_map: dict[str, SpanIndex], log, batches: Batches
) -> Iterator[StepResult]:
    """Combined-objective steps: refresh the frozen sets on cadence, mine (or
    reuse) the hard negatives, then the loss and gradients of combined_batch,
    all from one forward per example."""
    mine_cache: dict[str, tuple[int, SpanIndex]] = {}
    for step, batch_encs in batches:
        if config.z_refresh_every > 0 and step > 0 and step % config.z_refresh_every == 0:
            chunks = frozen_chunks(params, encs, config)
            frozen_map = {enc.id: frozen.row(b) for frozen, _ in chunks for b, enc in enumerate(frozen.encs)}
            log.add(kind="z_refresh", step=step)

        items, traces, poolings, mined_log = _assemble_batch(params, config, batch_encs, frozen_map, mine_cache, step)
        res = _combined_from_traces(params, items, traces, poolings, config)
        # Drop the batch's traces and poolings before the yield, so they do not
        # stay alive beside the next batch's and raise the peak memory.
        del traces, poolings
        fields = dict(
            objective="combined",
            hard=res.hard,
            contrast=res.contrast,
            combined=res.combined,
            contrastive_items=res.contrastive_items,
            contrastive_skipped=len(items) - res.contrastive_items,
        )
        follow = [("mined", {"selections": mined_log})] if mined_log else []
        yield res.grads, res.combined, fields, follow


def _assemble_batch(
    params: ModelParams,
    config: TrainConfig,
    batch_encs: Sequence[EncodedExample],
    frozen_map: dict[str, SpanIndex],
    mine_cache: dict[str, tuple[int, SpanIndex]],
    step: int,
) -> tuple[list[BatchItem], list[ForwardTrace], list[tuple[Mat64, Mat64] | None], list[dict]]:
    """The batch's items, one forward trace and one ``item_pooling`` (None
    without a negative) per item, which mining and the loss share, and the
    ``mined`` log entries (none unless alpha > 0 and log_mined).

    The examples whose cached negatives are stale are decoded and mined
    together, on index arrays; a cached selection is pooled on this step's
    trace. Span text is built only for the log."""
    traces = [forward(params, enc) for enc in batch_encs]
    negs = [SpanIndex(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))] * len(batch_encs)
    poolings = [None] * len(batch_encs)
    mined_log = []
    if config.loss.alpha > 0.0:
        stale = []
        for b, enc in enumerate(batch_encs):
            cached = mine_cache.get(enc.id)
            if cached is not None and step - cached[0] < config.remine_every:
                negs[b] = cached[1]
                if len(cached[1]):
                    poolings[b] = item_pooling(traces[b], enc.gold_in_sequence, cached[1])
            else:
                stale.append(b)
        if stale:
            sub = [traces[b] for b in stale]
            encs = [batch_encs[b] for b in stale]
            heads = [tr.start_logits for tr in sub], [tr.end_logits for tr in sub]
            starts, ends, _, counts = topk_batch(*heads, encs, config.loss.k_dynamic, config.max_answer_len)
            seeded = config.loss.mining.variant == "random"
            rngs = [mining_rng(config.seed, enc.id, step) if seeded else None for enc in encs]
            golds = [enc.gold_in_sequence for enc in encs]
            mined = mine_batch(sub, starts, ends, counts, golds, config.loss.mining, rngs)
            for b, (picked, pooling) in zip(stale, mined):
                negs[b], poolings[b] = picked, pooling
                if config.remine_every > 1:
                    mine_cache[batch_encs[b].id] = (step, picked)
        if config.log_mined:
            for enc, picked in zip(batch_encs, negs):
                gold = enc.gold_in_sequence
                neg_pos = zip(picked.starts.tolist(), picked.ends.tolist())
                mined_log.append(
                    {
                        "id": enc.id,
                        "gold": [gold.start, gold.end, gold.text],
                        "negatives": [[s, e, span_text(enc, s, e)] for s, e in neg_pos],
                    }
                )
    items = [
        BatchItem(enc=enc, gold=enc.gold_in_sequence, frozen_spans=frozen_map[enc.id], neg_spans=picked)
        for enc, picked in zip(batch_encs, negs)
    ]
    return items, traces, poolings, mined_log


def run_eval(
    params: ModelParams,
    config: TrainConfig,
    examples: Sequence[Example],
    vocab: Vocab,
    k_list: Sequence[int] = (1, 3, 5, 10),
) -> EvalReport:
    """EM, F1 and top-k EM of ``params`` on every example, usable or not, from the texts of its
    top max(k_list) spans; encoding and decoding are lazy, so a bad k_list stops before either."""
    k_list = tuple(k_list)
    encs = (encode(ex, vocab, config.encoder.max_len, config.question_max_len) for ex in examples)
    preds = decode(params, encs, max(k_list, default=1), config.max_answer_len)
    return evaluate(examples, (p.texts() for p in preds), k_list)
