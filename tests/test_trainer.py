import importlib
import pkgutil
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spanforge.corpus import CorpusSpec, DistractorPolicy, encode, generate_corpus
from spanforge.encoder import (
    EncoderConfig,
    flatten_params,
    forward,
    init_params,
    unflatten_params,
    zero_params,
)
from spanforge.losses import LossConfig
from spanforge.mining import MiningStrategy
from spanforge.numeric import finite_diff_grad, max_rel_error
from spanforge.spandecode import read_candidate_store, topk_spans
from spanforge.trainer import (
    DECODE_CHUNK,
    BatchItem,
    RunLog,
    TrainConfig,
    adamw_step,
    collect_candidates,
    combined_batch,
    decode,
    decode_chunks,
    finetune,
    gold_scored,
    init_adam_state,
    log_probe_predictions,
    run_eval,
    total_steps,
    train_base,
)
from spanforge.trainer import _encode_usable, _frozen_spans_from_record


def tiny_corpus(seed=0, n=60, passage_len=16, vocab=60):
    return generate_corpus(
        CorpusSpec(
            vocab_size=vocab,
            num_examples=n,
            passage_len=passage_len,
            answer_len_range=(1, 2),
            distractors=DistractorPolicy(1, 1, 1),
            seed=seed,
            num_dev=max(4, n // 6),
            num_test=max(4, n // 6),
        )
    )


def tiny_config(ds, **kw):
    enc_kw = kw.pop("encoder", {})
    loss_kw = kw.pop("loss", {})
    enc_defaults = dict(vocab_size=len(ds.vocab), d_model=8, d_ff=12, max_len=24, num_hard_weights=loss_kw.get("k_frozen", 4))
    enc_defaults.update(enc_kw)
    loss_defaults = dict(k_frozen=4, k_dynamic=8, tau=10.0, alpha=0.5)
    loss_defaults.update(loss_kw)
    defaults = dict(
        encoder=EncoderConfig(**enc_defaults),
        loss=LossConfig(**loss_defaults),
        lr=5e-3,
        epochs=1,
        batch_size=8,
        checkpoint_every=0,
        seed=0,
        max_answer_len=4,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestAdamW:
    def _single(self, value=1.0):
        cfg = EncoderConfig(vocab_size=2, d_model=1, d_ff=1, max_len=1, num_hard_weights=1)
        params = zero_params(cfg)
        params.w1[:] = value
        return cfg, params

    def test_zero_grads_no_decay_unchanged(self):
        cfg, params = self._single(0.7)
        before = flatten_params(params).copy()
        adamw_step(params, zero_params(cfg), init_adam_state(cfg), lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(flatten_params(params), before)

    def test_first_step_magnitude_close_to_lr(self):
        cfg, params = self._single(0.0)
        grads = zero_params(cfg)
        grads.w1[:] = 1.0
        adamw_step(params, grads, init_adam_state(cfg), lr=1e-3, weight_decay=0.0)
        # bias-corrected ratio is 1 on the first step, so the move is lr/(1+eps)
        assert abs(-params.w1[0, 0] - 1e-3) <= 1e-8

    def test_decoupled_decay_shrinks_exponentially(self):
        cfg, params = self._single(2.0)
        state = init_adam_state(cfg)
        lr, wd = 0.01, 0.5
        for t in range(5):
            adamw_step(params, zero_params(cfg), state, lr=lr, weight_decay=wd)
        assert params.w1[0, 0] == pytest.approx(2.0 * (1 - lr * wd) ** 5)

    def test_no_decay_fields_exempt(self):
        cfg, params = self._single()
        params.u[:] = 3.0
        params.head_b[:] = 2.0
        adamw_step(params, zero_params(cfg), init_adam_state(cfg), lr=0.01, weight_decay=0.5)
        assert params.u[0] == 3.0 and params.head_b[0] == 2.0

    def test_non_finite_grad_aborts(self):
        cfg, params = self._single()
        grads = zero_params(cfg)
        grads.w1[:] = np.nan
        with pytest.raises(RuntimeError):
            adamw_step(params, grads, init_adam_state(cfg), lr=0.01)

    def test_non_finite_grad_changes_no_state(self):
        # the NaN sits in the last field, after every other field's update
        cfg, params = self._single()
        grads = zero_params(cfg)
        grads.token_emb[:] = 1.0
        grads.u[:] = np.nan
        state = init_adam_state(cfg)
        before = [flatten_params(x).copy() for x in (params, state.m, state.v)]
        with pytest.raises(RuntimeError, match="non-finite gradient in u"):
            adamw_step(params, grads, state, lr=0.01, weight_decay=0.1)
        assert state.t == 0
        for got, want in zip((params, state.m, state.v), before):
            np.testing.assert_array_equal(flatten_params(got), want)


class TestTrainConfigRefusals:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("probe_top_n", 0),
            ("probe_count", -1),
            ("checkpoint_every", -1),
            ("eval_every", -1),
            ("z_refresh_every", -1),
            ("max_answer_len", 0),
            ("question_max_len", -1),
        ],
    )
    def test_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(encoder=EncoderConfig(vocab_size=10), **{field: value})

    def test_zero_cadences_and_probe_count_accepted(self):
        cfg = TrainConfig(
            encoder=EncoderConfig(vocab_size=10), probe_count=0, checkpoint_every=0, eval_every=0, z_refresh_every=0
        )
        assert cfg.probe_count == 0


def test_run_log_bad_line_refused_with_its_number(tmp_path):
    log = RunLog()
    log.add(kind="setup")
    path = tmp_path / "run.jsonl"
    log.save(path)
    path.write_text(path.read_text() + '{"kind": "step",\n')
    with pytest.raises(ValueError, match="not JSON") as err:
        RunLog.load(path)
    assert f"{path}:2:" in str(err.value)


@pytest.mark.parametrize("line", ["3", '"step"', "[1, 2]", "null"])
def test_run_log_non_object_line_refused_with_its_number(tmp_path, line):
    path = tmp_path / "run.jsonl"
    path.write_text('{"kind": "setup"}\n' + line + "\n")
    with pytest.raises(ValueError, match="run-log record is not an object") as err:
        RunLog.load(path)
    assert f"{path}:2:" in str(err.value)


class TestTrainBase:
    def test_lr_zero_leaves_params_unchanged(self):
        ds = tiny_corpus()
        cfg = tiny_config(ds, lr=0.0, epochs=1)
        params, _ = train_base(cfg, ds.train[:8], ds.vocab)
        np.testing.assert_array_equal(flatten_params(params), flatten_params(init_params(cfg.encoder, cfg.seed)))

    def test_deterministic_checkpoints(self, tmp_path):
        ds = tiny_corpus()
        cfg = tiny_config(ds, epochs=2)
        for run in ("a", "b"):
            train_base(cfg, ds.train[:24], ds.vocab, out_dir=tmp_path / run)
        assert (tmp_path / "a" / "base.ckpt").read_bytes() == (tmp_path / "b" / "base.ckpt").read_bytes()
        assert (tmp_path / "a" / "runlog_base.jsonl").read_bytes() == (tmp_path / "b" / "runlog_base.jsonl").read_bytes()

    def test_loss_decreases(self):
        ds = tiny_corpus(n=80)
        cfg = tiny_config(ds, epochs=6, lr=0.01)
        _, log = train_base(cfg, ds.train, ds.vocab)
        steps = log.of_kind("step")
        first = np.mean([r["loss"] for r in steps[:5]])
        last = np.mean([r["loss"] for r in steps[-5:]])
        assert last < first

    def test_warmup_schedule_shape(self):
        assert total_steps(10, 4, 2) == 6

    def test_default_corpus_beats_uniform_baseline_after_200_steps(self):
        # uniform guessing over the legal candidate spans of a 48-token
        # passage with cap 8 succeeds with probability 1/356
        from spanforge.spandecode import candidate_count

        ds = generate_corpus(CorpusSpec())
        cfg = TrainConfig(
            encoder=EncoderConfig(vocab_size=len(ds.vocab)),
            loss=LossConfig(),
            lr=1e-3,
            epochs=4,  # 63 steps/epoch on 2000 examples at batch 32
            batch_size=32,
            seed=0,
            checkpoint_every=0,
        )
        params, log = train_base(cfg, ds.train, ds.vocab)
        assert len(log.of_kind("step")) >= 200
        report = run_eval(params, cfg, ds.dev, ds.vocab, k_list=(1,))
        baseline = 1.0 / candidate_count(48, cfg.max_answer_len)
        assert report.em > baseline


class TestCollect:
    def test_every_record_contains_gold_once(self, tmp_path):
        ds = tiny_corpus()
        cfg = tiny_config(ds)
        params = init_params(cfg.encoder, seed=3)
        out = tmp_path / "candidates.jsonl"
        records, summary = collect_candidates(params, cfg, ds.train, ds.vocab, out)
        store = read_candidate_store(out)
        encs, _ = _encode_usable(cfg, ds.train, ds.vocab)
        by_id = {e.id: e for e in encs}
        for rec in store.values():
            enc = by_id[rec["id"]]
            gold = enc.gold_in_sequence
            hits = [s for s in rec["spans"] if (s["start"], s["end"]) == gold.positions]
            assert len(hits) == 1
            assert len(rec["spans"]) == cfg.loss.k_frozen
        assert summary["count"] == len(records)

    def test_gold_rank_recount(self, tmp_path):
        ds = tiny_corpus(seed=5)
        cfg = tiny_config(ds)
        params = init_params(cfg.encoder, seed=9)
        records, summary = collect_candidates(params, cfg, ds.train, ds.vocab)
        n = len(records)
        ranked = [r["gold_rank"] for r in records if r["gold_rank"] is not None]
        for k_str, frac in summary["recall_at"].items():
            k = int(k_str)
            assert frac == pytest.approx(sum(1 for r in ranked if r <= k) / n)

    def test_duplicate_example_ids_refused(self):
        from dataclasses import replace

        ds = tiny_corpus()
        train = ds.train[:8]
        train[1] = replace(train[1], id=train[0].id)
        cfg = tiny_config(ds)
        params = init_params(cfg.encoder, seed=3)
        with pytest.raises(ValueError, match=re.escape(f"duplicate example id {train[0].id!r}")):
            collect_candidates(params, cfg, train, ds.vocab)
        store = {r["id"]: r for r in collect_candidates(params, cfg, ds.train[:8], ds.vocab)[0]}
        with pytest.raises(ValueError, match="duplicate example id"):
            finetune(cfg, train, ds.vocab, store, params)

    def test_oracle_params_give_rank_one(self):
        # value-detector oracle on single-token-answer corpus: gold is always top-1
        ds = generate_corpus(
            CorpusSpec(
                vocab_size=40,
                num_examples=16,
                passage_len=8,
                answer_len_range=(1, 1),
                distractors=DistractorPolicy(0, 0, 0),
                seed=2,
                num_dev=4,
                num_test=4,
            )
        )
        cfg = tiny_config(ds, encoder=dict(vocab_size=len(ds.vocab), d_model=2, d_ff=2, max_len=16, num_hard_weights=4))
        params = zero_params(cfg.encoder)
        for tok_id in range(len(ds.vocab)):
            params.token_emb[tok_id] = [1.0, 0.0] if ds.vocab.token(tok_id).startswith("v") else [-1.0, 0.0]
        params.head_w[0] = [30.0, 0.0]
        params.head_w[1] = [30.0, 0.0]
        _, summary = collect_candidates(params, cfg, ds.train, ds.vocab)
        assert summary["recall_at"]["1"] == 1.0


def _items_for(params, cfg, encs, store, negs_by_id):
    from spanforge.trainer import _frozen_spans_from_record

    items = []
    for enc in encs:
        items.append(
            BatchItem(
                enc=enc,
                gold=enc.gold_in_sequence,
                frozen_spans=_frozen_spans_from_record(store[enc.id], enc, cfg.loss.k_frozen),
                neg_spans=negs_by_id.get(enc.id, []),
            )
        )
    return items


class TestCombinedBatch:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_gradient_matches_finite_diff(self, alpha):
        ds = tiny_corpus(n=40, passage_len=10, vocab=50)
        cfg = tiny_config(
            ds,
            encoder=dict(vocab_size=len(ds.vocab), d_model=4, d_ff=6, max_len=18, num_hard_weights=3),
            loss=dict(k_frozen=3, k_dynamic=6, alpha=alpha, tau=10.0),
            max_answer_len=3,
        )
        params = init_params(cfg.encoder, seed=1)
        encs, _ = _encode_usable(cfg, ds.train[:3], ds.vocab)
        store = {r["id"]: r for r in collect_candidates(params, cfg, ds.train[:3], ds.vocab)[0]}

        negs = {}
        if alpha > 0:
            from spanforge.mining import select_hard_negatives

            for enc in encs:
                tr = forward(params, enc)
                dyn = topk_spans(tr, enc, cfg.loss.k_dynamic, cfg.max_answer_len)
                negs[enc.id] = select_hard_negatives(tr, dyn, enc.gold_in_sequence, MiningStrategy())

        items = _items_for(params, cfg, encs, store, negs)
        res = combined_batch(params, items, cfg)

        def loss_of(flat):
            return combined_batch(unflatten_params(flat, cfg.encoder), items, cfg).combined

        numeric = finite_diff_grad(loss_of, flatten_params(params), eps=1e-5)
        assert max_rel_error(flatten_params(res.grads), numeric) <= 1e-4

    def test_alpha_one_u_grad_exactly_zero(self):
        ds = tiny_corpus(n=40)
        cfg = tiny_config(ds, loss=dict(alpha=1.0, k_frozen=4, k_dynamic=8))
        params = init_params(cfg.encoder, seed=2)
        encs, _ = _encode_usable(cfg, ds.train[:4], ds.vocab)
        store = {r["id"]: r for r in collect_candidates(params, cfg, ds.train[:4], ds.vocab)[0]}
        from spanforge.mining import select_hard_negatives

        negs = {}
        for enc in encs:
            tr = forward(params, enc)
            dyn = topk_spans(tr, enc, cfg.loss.k_dynamic, cfg.max_answer_len)
            negs[enc.id] = select_hard_negatives(tr, dyn, enc.gold_in_sequence, MiningStrategy())
        res = combined_batch(params, _items_for(params, cfg, encs, store, negs), cfg)
        assert np.all(res.grads.u == 0.0)


    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_empty_question_refused(self, alpha):
        from conftest import make_enc
        from spanforge.corpus import Span

        enc = make_enc(["a", "b", "c"], question_tokens=())
        p0, _ = enc.passage_region
        cfg = TrainConfig(
            encoder=EncoderConfig(vocab_size=104, d_model=4, d_ff=4, max_len=8, num_hard_weights=1),
            loss=LossConfig(k_frozen=1, k_dynamic=4, alpha=alpha),
        )
        params = init_params(cfg.encoder, seed=0)
        item = BatchItem(enc=enc, gold=enc.gold_in_sequence, frozen_spans=[enc.gold_in_sequence],
                         neg_spans=[Span(p0 + 1, p0 + 1, "b")])
        with pytest.raises(ValueError, match="empty question region"):
            combined_batch(params, [item], cfg)


class TestFinetune:
    def _setup(self, tmp_path, **cfg_kw):
        ds = tiny_corpus(n=60)
        cfg = tiny_config(ds, epochs=2, **cfg_kw)
        base, _ = train_base(cfg, ds.train, ds.vocab)
        store = {r["id"]: r for r in collect_candidates(base, cfg, ds.train, ds.vocab)[0]}
        return ds, cfg, base, store

    def test_missing_store_entry_fails_before_training(self, tmp_path):
        ds, cfg, base, store = self._setup(tmp_path)
        victim = next(iter(store))
        del store[victim]
        before = flatten_params(base).copy()
        with pytest.raises(ValueError, match="missing"):
            finetune(cfg, ds.train, ds.vocab, store, base)
        np.testing.assert_array_equal(flatten_params(base), before)

    def test_alpha_zero_equals_hard_only_bitwise(self, tmp_path):
        ds, cfg, base, store = self._setup(tmp_path)
        from dataclasses import replace

        cfg0 = replace(cfg, loss=LossConfig(alpha=0.0, k_frozen=4, k_dynamic=8))
        params, log = finetune(cfg0, ds.train, ds.vocab, store, base)
        for rec in log.of_kind("step"):
            assert rec["contrast"] == 0.0
            assert rec["combined"] == rec["hard"]

    def test_alpha_one_combined_equals_contrast_bitwise(self, tmp_path):
        ds, cfg, base, store = self._setup(tmp_path)
        from dataclasses import replace

        cfg1 = replace(cfg, loss=LossConfig(alpha=1.0, k_frozen=4, k_dynamic=8))
        params, log = finetune(cfg1, ds.train, ds.vocab, store, base)
        saw_items = False
        for rec in log.of_kind("step"):
            assert rec["combined"] == rec["contrast"]
            saw_items = saw_items or rec["contrastive_items"] > 0
        assert saw_items
        # u only appears in the hard loss, so it must not move at alpha=1
        np.testing.assert_array_equal(params.u, np.zeros(cfg1.loss.k_frozen))

    def test_deterministic(self, tmp_path):
        ds, cfg, base, store = self._setup(tmp_path)
        a, _ = finetune(cfg, ds.train, ds.vocab, store, base)
        b, _ = finetune(cfg, ds.train, ds.vocab, store, base)
        np.testing.assert_array_equal(flatten_params(a), flatten_params(b))

    def test_u_moves_under_nonuniform_quality(self, tmp_path):
        ds, cfg, base, store = self._setup(tmp_path)
        params, _ = finetune(cfg, ds.train, ds.vocab, store, base)
        w = np.exp(params.u) / np.exp(params.u).sum()
        assert np.max(np.abs(w - 1.0 / w.size)) > 0.0

    def test_mined_negatives_never_equal_gold(self, tmp_path):
        from spanforge.metrics import normalize

        ds, cfg, base, store = self._setup(tmp_path)
        _, log = finetune(cfg, ds.train, ds.vocab, store, base)
        checked = 0
        for rec in log.of_kind("mined"):
            for sel in rec["selections"]:
                gs, ge, gtext = sel["gold"]
                for ns, ne, ntext in sel["negatives"]:
                    assert (ns, ne) != (gs, ge)
                    assert normalize(ntext) != normalize(gtext)
                    checked += 1
        assert checked > 0

    def test_ce_objective_control(self, tmp_path):
        ds, cfg, base, store = self._setup(tmp_path, objective="ce")
        params, log = finetune(cfg, ds.train, ds.vocab, store={}, init=base)
        steps = log.of_kind("step")
        assert steps and all(r["objective"] == "ce" for r in steps)

    def test_z_refresh_logs_events(self, tmp_path):
        ds, cfg, base, store = self._setup(tmp_path)
        from dataclasses import replace

        cfg_r = replace(cfg, z_refresh_every=3)
        _, log = finetune(cfg_r, ds.train, ds.vocab, store, base)
        assert log.of_kind("z_refresh")
        for rec in log.of_kind("z_refresh"):
            assert rec["step"] % 3 == 0

    def test_remine_cache_reuses_selection(self, tmp_path):
        ds, cfg, base, store = self._setup(tmp_path)
        from dataclasses import replace

        cfg_c = replace(cfg, remine_every=10_000)
        _, log = finetune(cfg_c, ds.train, ds.vocab, store, base)
        first_seen: dict[str, list] = {}
        for rec in log.of_kind("mined"):
            for sel in rec["selections"]:
                negs = [tuple(n[:2]) for n in sel["negatives"]]
                if sel["id"] in first_seen:
                    assert first_seen[sel["id"]] == negs
                else:
                    first_seen[sel["id"]] = negs
        assert first_seen

    def test_u_resized_when_k_changes(self, tmp_path):
        ds, cfg, base, store = self._setup(tmp_path)
        from dataclasses import replace

        cfg2 = replace(cfg, loss=LossConfig(alpha=0.0, k_frozen=2, k_dynamic=8))
        store2 = {r["id"]: r for r in collect_candidates(base, cfg2, ds.train, ds.vocab)[0]}
        params, _ = finetune(cfg2, ds.train, ds.vocab, store2, base)
        assert params.u.shape == (2,)


class TestTrainingLoop:
    @pytest.mark.parametrize("entry", ["train_base", "finetune_ce"])
    def test_non_finite_loss_raises_before_any_update(self, entry, monkeypatch):
        import spanforge.trainer as trainer

        ds = tiny_corpus()
        cfg = tiny_config(ds, objective="ce")
        real_ce = trainer.ce_loss_grads

        def nan_loss(trace, gold):
            _, d_slp, d_elp = real_ce(trace, gold)
            return float("nan"), d_slp, d_elp

        updates = []
        monkeypatch.setattr(trainer, "ce_loss_grads", nan_loss)
        monkeypatch.setattr(trainer, "adamw_step", lambda *args, **kwargs: updates.append(args))
        with pytest.raises(RuntimeError, match="non-finite loss"):
            if entry == "train_base":
                train_base(cfg, ds.train[:16], ds.vocab)
            else:
                finetune(cfg, ds.train[:16], ds.vocab, {}, init_params(cfg.encoder, cfg.seed))
        assert updates == []

    def test_ce_control_continues_base_training_bitwise(self):
        ds = tiny_corpus()
        cfg = tiny_config(ds, epochs=2, objective="ce")
        base, _ = train_base(cfg, ds.train[:24], ds.vocab)
        tuned, ft_log = finetune(cfg, ds.train[:24], ds.vocab, {}, base)
        resumed, base_log = train_base(cfg, ds.train[:24], ds.vocab, init=base)
        np.testing.assert_array_equal(flatten_params(tuned), flatten_params(resumed))
        assert [r["combined"] for r in ft_log.of_kind("step")] == [r["loss"] for r in base_log.of_kind("step")]

    def test_z_refresh_at_lr_zero_reproduces_collected_sets(self):
        from dataclasses import replace

        ds = tiny_corpus(n=60)
        cfg = tiny_config(ds, epochs=2, lr=0.0)
        base, _ = train_base(replace(cfg, lr=5e-3), ds.train, ds.vocab)
        store = {r["id"]: r for r in collect_candidates(base, cfg, ds.train, ds.vocab)[0]}
        _, frozen_log = finetune(cfg, ds.train, ds.vocab, store, base)
        _, refresh_log = finetune(replace(cfg, z_refresh_every=1), ds.train, ds.vocab, store, base)
        assert len(refresh_log.of_kind("z_refresh")) == len(frozen_log.of_kind("step")) - 1
        assert [r for r in refresh_log.records if r["kind"] != "z_refresh"] == frozen_log.records

    @pytest.mark.parametrize("variant", [{}, {"remine_every": 2}, {"loss": {"alpha": 0.0}}])
    def test_one_forward_per_example_step(self, variant, monkeypatch):
        import spanforge.trainer as trainer

        ds = tiny_corpus()
        cfg = tiny_config(ds, epochs=2, probe_count=0, eval_every=0, **variant)
        base = init_params(cfg.encoder, cfg.seed)
        store = {r["id"]: r for r in collect_candidates(base, cfg, ds.train[:20], ds.vocab)[0]}
        calls = []
        real_forward = trainer.forward

        def counting_forward(params, enc):
            calls.append(enc.id)
            return real_forward(params, enc)

        monkeypatch.setattr(trainer, "forward", counting_forward)
        _, log = finetune(cfg, ds.train[:20], ds.vocab, store, base)
        assert len(log.of_kind("step")) == 6
        assert sorted(calls) == sorted(2 * list(store))

    @pytest.mark.parametrize(
        "variant",
        [
            {},
            {"remine_every": 2},
            {"loss": {"mining": MiningStrategy("top1")}},
            {"loss": {"mining": MiningStrategy("random")}},
            {"loss": {"alpha": 0.0}},
        ],
    )
    def test_one_pooling_per_example_step_with_a_negative(self, variant, monkeypatch):
        # mining and the loss share one item pooling: every module's binding of
        # pooling_matrix is counted, and each (example, step) that brings a
        # negative pools once; none pools at alpha = 0
        import spanforge
        from spanforge import numeric

        ds = tiny_corpus()
        cfg = tiny_config(ds, epochs=2, probe_count=0, eval_every=0, **variant)
        base = init_params(cfg.encoder, cfg.seed)
        store = {r["id"]: r for r in collect_candidates(base, cfg, ds.train[:20], ds.vocab)[0]}
        calls = []
        real_pooling_matrix = numeric.pooling_matrix

        def counting_pooling_matrix(*args):
            calls.append(args)
            return real_pooling_matrix(*args)

        for info in pkgutil.iter_modules(spanforge.__path__):
            module = importlib.import_module(f"spanforge.{info.name}")
            if hasattr(module, "pooling_matrix"):
                monkeypatch.setattr(module, "pooling_matrix", counting_pooling_matrix)
        _, log = finetune(cfg, ds.train[:20], ds.vocab, store, base)
        with_negative = sum(r["contrastive_items"] for r in log.of_kind("step"))
        assert (with_negative > 0) == (cfg.loss.alpha > 0.0)
        assert len(calls) == with_negative

    def test_combined_batch_equals_step_from_traces_bitwise(self):
        from spanforge.trainer import _assemble_batch, _combined_from_traces, _frozen_spans_from_record

        ds = tiny_corpus()
        cfg = tiny_config(ds, loss=dict(alpha=0.5, k_frozen=4, k_dynamic=8))
        params = init_params(cfg.encoder, seed=3)
        encs, _ = _encode_usable(cfg, ds.train[:8], ds.vocab)
        store = {r["id"]: r for r in collect_candidates(params, cfg, ds.train[:8], ds.vocab)[0]}
        frozen = {enc.id: _frozen_spans_from_record(store[enc.id], enc, cfg.loss.k_frozen) for enc in encs}
        items, traces, poolings, _ = _assemble_batch(params, cfg, encs, frozen, {}, 0)
        assert any(it.neg_spans for it in items)
        a = combined_batch(params, items, cfg)
        b = _combined_from_traces(params, items, traces, poolings, cfg)
        assert (a.combined, a.hard, a.contrast, a.contrastive_items) == (b.combined, b.hard, b.contrast, b.contrastive_items)
        np.testing.assert_array_equal(flatten_params(a.grads), flatten_params(b.grads))


    def test_combined_step_does_not_warn(self):
        from spanforge.trainer import _assemble_batch, _combined_from_traces, _frozen_spans_from_record

        ds = tiny_corpus()
        cfg = tiny_config(ds, loss=dict(alpha=0.5, k_frozen=4, k_dynamic=8))
        params = init_params(cfg.encoder, seed=3)
        encs, _ = _encode_usable(cfg, ds.train[:8], ds.vocab)
        store = {r["id"]: r for r in collect_candidates(params, cfg, ds.train[:8], ds.vocab)[0]}
        frozen = {enc.id: _frozen_spans_from_record(store[enc.id], enc, cfg.loss.k_frozen) for enc in encs}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            items, traces, poolings, _ = _assemble_batch(params, cfg, encs, frozen, {}, 0)
            assert any(it.neg_spans for it in items)
            _combined_from_traces(params, items, traces, poolings, cfg)

    def _store_record(self):
        ds = tiny_corpus()
        cfg = tiny_config(ds)
        params = init_params(cfg.encoder, seed=3)
        enc = _encode_usable(cfg, ds.train[:1], ds.vocab)[0][0]
        rec = collect_candidates(params, cfg, ds.train[:1], ds.vocab)[0][0]
        return rec, enc, cfg.loss.k_frozen

    def test_store_span_outside_region_refused(self):
        rec, enc, k = self._store_record()
        rec["spans"][1]["start"] = 0
        with pytest.raises(ValueError, match=rf"^{enc.id}: span \(0, \d+\) empty or outside passage region"):
            _frozen_spans_from_record(rec, enc, k)

    @pytest.mark.parametrize("spans", ["absent", None, {"start": 5, "end": 5}, "5,5"])
    def test_store_spans_not_a_list_refused(self, spans):
        rec, enc, k = self._store_record()
        if spans == "absent":
            del rec["spans"]
        else:
            rec["spans"] = spans
        with pytest.raises(ValueError, match=f"{enc.id}: candidate record's spans are not a list"):
            _frozen_spans_from_record(rec, enc, k)

    @pytest.mark.parametrize("entry", [[5, 5], None, {"start": 5}, {"end": 5}])
    def test_store_span_entry_without_start_and_end_refused(self, entry):
        rec, enc, k = self._store_record()
        rec["spans"][2] = entry
        with pytest.raises(ValueError, match=f"{enc.id}: candidate span 2 is not an object with start and end"):
            _frozen_spans_from_record(rec, enc, k)

    @pytest.mark.parametrize("side,value", [("start", 10.9), ("end", 10.0), ("end", "10"), ("start", True)])
    def test_store_span_position_not_an_integer_refused(self, side, value):
        rec, enc, k = self._store_record()
        rec["spans"][1][side] = value
        with pytest.raises(ValueError, match=f"{enc.id}: candidate span 1 position .* is not an integer"):
            _frozen_spans_from_record(rec, enc, k)


class TestDecode:
    def test_chunks_equal_one_example_decoding(self):
        # 33 usable examples (more than one chunk) of two passage lengths, and
        # one whose gold max_len cuts, in shuffled order
        short, long = tiny_corpus(seed=1, passage_len=8), tiny_corpus(seed=2, passage_len=20)
        examples = [replace(ex, id=f"{tag}{ex.id}") for tag, ds in (("s", short), ("l", long)) for ex in ds.train]
        encs = [encode(ex, short.vocab, 20) for ex in examples]
        usable = [enc for enc in encs if enc.usable]
        encs = usable[:17] + usable[-16:] + [next(enc for enc in encs if not enc.usable)]
        encs = [encs[int(i)] for i in np.random.default_rng(0).permutation(len(encs))]
        assert len({enc.passage_region for enc in encs}) > 1
        cfg = tiny_config(short, encoder=dict(max_len=20))
        params = init_params(cfg.encoder, seed=5)

        out = list(decode(params, encs, 7, 4))
        golds = [gold for _, chunk_golds in decode_chunks(params, encs, 7, 4) for gold in chunk_golds]
        assert len(out) == len(golds) == len(encs) == 34
        for enc, preds, gold in zip(encs, out, golds):
            tr = forward(params, enc)
            ref = topk_spans(tr, enc, 7, 4)
            assert preds.enc is enc
            for name in ("starts", "ends", "scores", "log_probs"):
                assert getattr(preds, name).tobytes() == getattr(ref, name).tobytes(), name
            assert gold == (gold_scored(tr, enc.gold_in_sequence) if enc.usable else None)
        assert list(decode(params, [], 7, 4)) == []

    def test_one_shot_inputs_are_read_a_chunk_at_a_time(self):
        ds = tiny_corpus()
        cfg = tiny_config(ds)
        params = init_params(cfg.encoder, seed=5)
        encs, _ = _encode_usable(cfg, ds.train, ds.vocab)
        assert len(encs) > DECODE_CHUNK
        pulled = []

        def stream():
            for enc in encs:
                pulled.append(enc.id)
                yield enc

        out = decode(params, stream(), 3, cfg.max_answer_len)
        first = next(out)
        assert len(pulled) == DECODE_CHUNK
        assert [p.enc.id for p in [first, *out]] == [enc.id for enc in encs]
        # a one-shot k_list is read once: it both sizes the decode and keys the report
        report = run_eval(params, cfg, ds.dev, ds.vocab, k_list=(k for k in (1, 3)))
        assert report.k_list == (1, 3)
        assert report.topk == run_eval(params, cfg, ds.dev, ds.vocab, k_list=(1, 3)).topk


class TestProbe:
    def test_replay_matches_fresh_decode(self):
        ds = tiny_corpus()
        cfg = tiny_config(ds)
        params = init_params(cfg.encoder, seed=4)
        encs, _ = _encode_usable(cfg, ds.dev[:2], ds.vocab)
        recs = log_probe_predictions(params, cfg, encs, n=3, step=7)
        for enc, rec in zip(encs, recs):
            tr = forward(params, enc)
            fresh = topk_spans(tr, enc, 3, cfg.max_answer_len)
            assert [(p["start"], p["end"]) for p in rec["preds"]] == [s.span.positions for s in fresh.ranked]
            total = sum(p["prob"] for p in rec["preds"])
            assert total <= 1.0 + 1e-12

    def test_oracle_probe_probability_near_one(self):
        ds = generate_corpus(
            CorpusSpec(
                vocab_size=40,
                num_examples=12,
                passage_len=8,
                answer_len_range=(1, 1),
                distractors=DistractorPolicy(0, 0, 0),
                seed=3,
                num_dev=4,
                num_test=4,
            )
        )
        cfg = tiny_config(ds, encoder=dict(vocab_size=len(ds.vocab), d_model=2, d_ff=2, max_len=16, num_hard_weights=4))
        params = zero_params(cfg.encoder)
        for tok_id in range(len(ds.vocab)):
            params.token_emb[tok_id] = [1.0, 0.0] if ds.vocab.token(tok_id).startswith("v") else [-1.0, 0.0]
        params.head_w[0] = [40.0, 0.0]
        params.head_w[1] = [40.0, 0.0]
        encs, _ = _encode_usable(cfg, ds.dev[:1], ds.vocab)
        rec = log_probe_predictions(params, cfg, encs, n=1, step=0)[0]
        assert rec["preds"][0]["prob"] >= 0.99
