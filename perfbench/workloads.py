"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed (the program receives
only the generated inputs), runs one *round* of timed calls into spanforge's
public entry points, and checks the round's outputs. A round is fixed and
deterministic, so every round of a run must reproduce the first one
bit for bit; the first round is run untimed as a warm-up and kept as the
reference that later rounds are compared with.

An *op* is the unit that failures and per-op figures count: one optimizer
step on the training workloads, one 32-example inference chunk on
``infer_ragged``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from tracing import ROOT_SPAN, SpanRecorder, resolve

BATCH = 32


class MissingEntryPoint(Exception):
    pass


class Program:
    """spanforge's public names, looked up on their modules at every call.

    Looking names up late means a traced run's wrappers are the ones called.
    """

    def __init__(self, bindings: dict[str, str]):
        self._where = {}
        missing = []
        for name, binding in bindings.items():
            module, attr, obj = resolve(binding)
            if obj is None:
                missing.append(binding)
            else:
                self._where[name] = (module, attr)
        if missing:
            raise MissingEntryPoint(", ".join(missing))

    def __getattr__(self, name):
        try:
            module, attr = self._where[name]
        except KeyError:
            raise AttributeError(name) from None
        return getattr(module, attr)


class StepClock:
    """Timestamps the trainer's 'setup' and 'step' log records.

    ``install`` swaps ``spanforge.trainer.RunLog`` for a subclass whose
    ``add`` reads the clock once for those two kinds. The log objects made
    during a round are kept, so the step records survive an exception.
    """

    def __init__(self):
        self.stamps: list[tuple[str, int]] = []
        self.logs: list = []
        self._restore = None

    def install(self, binding: str) -> None:
        module, attr, base = resolve(binding)
        if base is None:
            raise MissingEntryPoint(binding)
        clock = self

        class StampedRunLog(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clock.logs.append(self)

            def add(self, **record):
                kind = record.get("kind")
                if kind == "step" or kind == "setup":
                    clock.stamps.append((kind, time.perf_counter_ns()))
                super().add(**record)

        setattr(module, attr, StampedRunLog)
        self._restore = (module, attr, base)

    def uninstall(self) -> None:
        if self._restore is not None:
            module, attr, base = self._restore
            setattr(module, attr, base)
            self._restore = None

    def reset(self) -> None:
        self.stamps.clear()
        self.logs.clear()


@dataclass
class Round:
    """What one round produced. ``outputs`` has one entry per attempted op;
    None marks an op that raised."""

    outputs: list
    op_ns: list[int] = field(default_factory=list)
    wall_ns: int = 0
    pre_ns: list[int] = field(default_factory=list)
    phase_ns: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _digest(examples) -> str:
    h = hashlib.sha256()
    for ex in examples:
        h.update(repr((ex.id, ex.question, ex.passage, ex.gold.start, ex.gold.end)).encode("utf-8"))
    return h.hexdigest()[:16]


def _norm(text: str) -> str:
    # Independent of spanforge.metrics.normalize: lowercase, collapse whitespace.
    return " ".join(text.lower().split())


class _Training:
    """A round is one call of a training entry point; an op is one step."""

    subset_size = 320
    examples_per_op = BATCH

    @property
    def ops_per_round(self) -> int:
        return self.epochs * math.ceil(self.subset_size / BATCH)

    def _corpus(self, prog, seed):
        ds = prog.generate_corpus(prog.CorpusSpec(seed=seed))
        self.vocab = ds.vocab
        self.train = ds.train[: self.subset_size]
        self.encoder = prog.EncoderConfig(vocab_size=len(ds.vocab), d_model=64, d_ff=128)

    def input_digest(self) -> str:
        return _digest(self.train)

    def run_round(self, prog, clock: StepClock, recorder: SpanRecorder | None) -> Round:
        clock.reset()
        error = None
        if recorder is not None:
            recorder.open(recorder.name_id(ROOT_SPAN))
        t0 = time.perf_counter_ns()
        try:
            self.call(prog)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        if recorder is not None:
            recorder.close()

        setup = [ns for kind, ns in clock.stamps if kind == "setup"]
        steps = [ns for kind, ns in clock.stamps if kind == "step"]
        bounds = setup[:1] + steps
        rnd = Round(outputs=self._outputs(clock.logs[0].records if clock.logs else []), wall_ns=t1 - t0)
        rnd.op_ns = [b - a for a, b in zip(bounds, bounds[1:])]
        if setup:
            rnd.pre_ns.append(setup[0] - t0)
        if error is not None:
            rnd.errors.append(error)
            if len(rnd.outputs) < self.ops_per_round:
                rnd.outputs.append(None)
            else:
                rnd.outputs[-1] = None
        return rnd

    def _outputs(self, records) -> list:
        return [r["loss"] for r in records if r.get("kind") == "step"]

    def _loss(self, out) -> float:
        return out

    def reference_problems(self, prog, ref: Round) -> dict[int, str]:
        problems = {}
        for i, out in enumerate(ref.outputs):
            if out is None or not math.isfinite(self._loss(out)):
                problems[i] = f"step {i + 1}: non-finite or missing loss"
        for i in range(len(ref.outputs), self.ops_per_round):
            problems[i] = f"step {i + 1}: not reached in the reference round"
        return problems

    def loss_final(self, rnd: Round) -> float:
        last = rnd.outputs[-10:]
        if len(rnd.outputs) < self.ops_per_round or any(o is None for o in last):
            return math.nan
        return sum(self._loss(o) for o in last) / len(last)


class BaseCE(_Training):
    name = "base_ce"
    epochs = 3

    def setup(self, prog, seed: int) -> None:
        self._corpus(prog, seed)
        self.config = prog.TrainConfig(
            encoder=self.encoder, loss=prog.LossConfig(), lr=5e-3, epochs=self.epochs,
            batch_size=BATCH, seed=seed, checkpoint_every=0, log_mined=False,
        )

    def call(self, prog) -> None:
        prog.train_base(self.config, self.train, self.vocab)


class FinetuneCombined(_Training):
    name = "finetune_combined"
    epochs = 2

    def setup(self, prog, seed: int) -> None:
        self._corpus(prog, seed)
        base_config = prog.TrainConfig(
            encoder=self.encoder, lr=5e-3, epochs=1, batch_size=BATCH, seed=seed, checkpoint_every=0,
        )
        self.base, _ = prog.train_base(base_config, self.train, self.vocab)
        self.config = prog.TrainConfig(
            encoder=self.encoder,
            loss=prog.LossConfig(alpha=0.5, tau=10.0, k_frozen=20, k_dynamic=50),
            lr=1e-3, epochs=self.epochs, batch_size=BATCH, seed=seed, checkpoint_every=0,
            remine_every=1, log_mined=True,
        )
        records, _ = prog.collect_candidates(self.base, self.config, self.train, self.vocab)
        self.store = {r["id"]: r for r in records}

    def call(self, prog) -> None:
        prog.finetune(self.config, self.train, self.vocab, self.store, self.base)

    def _outputs(self, records) -> list:
        mined = {r["step"]: r["selections"] for r in records if r.get("kind") == "mined"}
        return [(r["combined"], mined.get(r["step"])) for r in records if r.get("kind") == "step"]

    def _loss(self, out) -> float:
        return out[0]

    def reference_problems(self, prog, ref: Round) -> dict[int, str]:
        problems = super().reference_problems(prog, ref)
        for i, out in enumerate(ref.outputs):
            if out is None:
                continue
            if out[1] is None:
                problems[i] = f"step {i + 1}: no mined record"
                continue
            for sel in out[1]:
                g0, g1, gtext = sel["gold"]
                for n0, n1, ntext in sel["negatives"]:
                    if (n0, n1) == (g0, g1) or _norm(ntext) == _norm(gtext):
                        problems[i] = f"step {i + 1}: {sel['id']} mined the gold ({n0}, {n1}) {ntext!r}"
        return problems


class InferRagged:
    name = "infer_ragged"
    passage_lens = (24, 48, 72, 96, 120)
    per_len = 128
    k_list = (1, 3, 5, 10)
    examples_per_op = BATCH

    @property
    def ops_per_round(self) -> int:
        return len(self.chunks)

    def setup(self, prog, seed: int) -> None:
        examples = []
        vocab = None
        for plen in self.passage_lens:
            spec = prog.CorpusSpec(passage_len=plen, num_examples=self.per_len + 2, num_dev=1, num_test=1,
                                   seed=1000 * seed + plen)
            ds = prog.generate_corpus(spec)
            if vocab is None:
                vocab = ds.vocab
            elif [vocab.token(i) for i in range(len(vocab))] != [ds.vocab.token(i) for i in range(len(ds.vocab))]:
                raise ValueError("ragged corpora disagree on the vocabulary")
            examples += [replace(ex, id=f"p{plen}-{ex.id}") for ex in ds.train]
        order = np.random.default_rng(seed).permutation(len(examples))
        examples = [examples[int(i)] for i in order]
        self.vocab = vocab
        self.chunks = [examples[lo : lo + BATCH] for lo in range(0, len(examples), BATCH)]
        self.config = prog.TrainConfig(
            encoder=prog.EncoderConfig(vocab_size=len(vocab), d_model=64, d_ff=128, max_len=128),
            loss=prog.LossConfig(alpha=0.5, tau=10.0, k_frozen=20, k_dynamic=50), seed=seed, checkpoint_every=0,
        )
        self.params = prog.init_params(self.config.encoder, seed)
        self.sample = [int(j) for j in np.random.default_rng([seed, 1]).integers(BATCH, size=len(self.chunks))]

    def input_digest(self) -> str:
        return _digest(ex for chunk in self.chunks for ex in chunk)

    def run_round(self, prog, clock: StepClock, recorder: SpanRecorder | None) -> Round:
        rnd = Round(outputs=[], phase_ns={"collect": 0, "eval": 0})
        loop_id = recorder.name_id(ROOT_SPAN) if recorder is not None else -1
        for chunk in self.chunks:
            if recorder is not None:
                recorder.open(loop_id)
            t0 = time.perf_counter_ns()
            t1 = t0
            try:
                records, summary = prog.collect_candidates(self.params, self.config, chunk, self.vocab)
                t1 = time.perf_counter_ns()
                report = prog.run_eval(self.params, self.config, chunk, self.vocab, k_list=self.k_list)
                out = (records, summary, report.records, report.em, report.f1, report.topk)
            except Exception as exc:  # a failed op is counted, not fatal
                rnd.errors.append(f"{type(exc).__name__}: {exc}")
                out = None
            t2 = time.perf_counter_ns()
            if recorder is not None:
                recorder.close()
            rnd.wall_ns += t2 - t0
            if out is not None:
                rnd.op_ns.append(t2 - t0)
                rnd.phase_ns["collect"] += t1 - t0
                rnd.phase_ns["eval"] += t2 - t1
            rnd.outputs.append(out)
        return rnd

    def reference_problems(self, prog, ref: Round) -> dict[int, str]:
        cfg = self.config
        k = cfg.loss.k_frozen
        problems = {}
        self.gold = {}
        for i, (chunk, out) in enumerate(zip(self.chunks, ref.outputs)):
            encs = [prog.encode(ex, self.vocab, cfg.encoder.max_len, cfg.question_max_len) for ex in chunk]
            self.gold.update((enc.id, enc.gold_in_sequence.positions) for enc in encs)
            if out is None:
                problems[i] = f"chunk {i}: raised"
                continue
            records, _, eval_records, _, _, _ = out
            if [r["id"] for r in records] != [ex.id for ex in chunk] or len(eval_records) != len(chunk):
                problems[i] = f"chunk {i}: output does not cover the chunk"
                continue
            for rec in records:
                if len(rec["spans"]) != k or self._gold_entry(rec) is None:
                    problems[i] = f"chunk {i}: frozen record {rec['id']} lacks the gold or has != {k} spans"
            j = self.sample[i]
            problem = self._oracle_problem(prog, encs[j], records[j], eval_records[j])
            if problem:
                problems[i] = f"chunk {i}, example {chunk[j].id}: {problem}"
        return problems

    def _gold_entry(self, record) -> dict | None:
        gold = self.gold[record["id"]]
        return next((s for s in record["spans"] if (s["start"], s["end"]) == gold), None)

    def _oracle_problem(self, prog, enc, record, eval_record) -> str | None:
        cfg = self.config
        k = cfg.loss.k_frozen
        trace = prog.forward(self.params, enc)
        fast = prog.topk_spans(trace, enc, k, cfg.max_answer_len).ranked
        brute = prog.brute_force_topk(trace, enc, k, cfg.max_answer_len).ranked
        if [(s.span.positions, s.span.text) for s in fast] != [(s.span.positions, s.span.text) for s in brute]:
            return "topk_spans differs from brute_force_topk"
        if any(not math.isclose(a.score, b.score, rel_tol=1e-12, abs_tol=1e-12) for a, b in zip(fast, brute)):
            return "topk_spans scores differ from brute_force_topk"
        if eval_record["top_preds"] != [s.span.text for s in brute[: max(self.k_list)]]:
            return "run_eval top predictions differ from brute_force_topk"
        expected = [s.span.positions for s in brute]
        if record["gold_rank"] is None:
            expected = expected[: k - 1] + [enc.gold_in_sequence.positions]
        if [(s["start"], s["end"]) for s in record["spans"]] != expected:
            return "frozen record differs from brute_force_topk"
        return None

    def loss_final(self, rnd: Round) -> float:
        last = rnd.outputs[-10:]
        if len(rnd.outputs) < self.ops_per_round or any(o is None for o in last):
            return math.nan
        entries = [self._gold_entry(rec) for records, *_ in last for rec in records]
        if any(e is None for e in entries):
            return math.nan
        return -sum(e["log_prob"] for e in entries) / len(entries)


WORKLOADS = {w.name: w for w in (BaseCE, FinetuneCombined, InferRagged)}
