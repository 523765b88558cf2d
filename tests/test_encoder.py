import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spanforge.corpus import Example, Span, SpanIndex, Vocab, encode
from spanforge.encoder import (
    EncoderConfig,
    ModelParams,
    UpstreamGrads,
    backward,
    flatten_params,
    forward,
    init_params,
    item_pooling,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    unflatten_params,
    zero_params,
)
from spanforge.numeric import MASK_VALUE, finite_diff_grad, max_rel_error


VOCAB = Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]"] + [f"t{i}" for i in range(8)])


def tiny_config(**kw):
    base = dict(vocab_size=len(VOCAB), d_model=6, d_ff=10, max_len=14, num_hard_weights=3)
    base.update(kw)
    return EncoderConfig(**base)


def tiny_example(q=("t0",), p=("t1", "t2", "t3", "t4"), gold=(1, 2)):
    text = " ".join(p[gold[0] : gold[1] + 1])
    return Example(id="x", question=q, passage=p, gold=Span(gold[0], gold[1], text))


def tiny_enc(max_len=14, **kw):
    return encode(tiny_example(**kw), VOCAB, max_len)


def in_region(trace, g):
    """``g`` with every entry outside the passage region set to zero."""
    p0, p1 = trace.enc.passage_region
    out = np.zeros_like(g)
    out[p0 : p1 + 1] = g[p0 : p1 + 1]
    return out


class TestInit:
    def test_deterministic(self):
        a = init_params(tiny_config(), seed=5)
        b = init_params(tiny_config(), seed=5)
        for name, arr in a.arrays():
            np.testing.assert_array_equal(arr, getattr(b, name))

    def test_uniform_hard_weights(self):
        p = init_params(tiny_config(), seed=0)
        w = np.exp(p.u) / np.exp(p.u).sum()
        np.testing.assert_allclose(w, np.full(3, 1 / 3), atol=1e-15)

    def test_head_shape(self):
        p = init_params(tiny_config(d_model=32), seed=0)
        assert p.head_w.shape == (2, 32)

    def test_bounds(self):
        cfg = tiny_config()
        p = init_params(cfg, seed=1)
        bound = 1 / math.sqrt(cfg.d_model)
        for name in ("token_emb", "wq", "w1"):
            arr = getattr(p, name)
            assert arr.min() >= -bound and arr.max() <= bound


class TestForward:
    def test_mask_contract(self):
        params = init_params(tiny_config(), seed=0)
        enc = tiny_enc()
        tr = forward(params, enc)
        p0, p1 = enc.passage_region
        assert tr.start_probs[: p0].sum() == 0.0
        assert abs(tr.start_probs[p0 : p1 + 1].sum() - 1.0) <= 1e-12
        assert np.all(tr.start_logits[:p0] == MASK_VALUE)

    def test_zero_weights_give_uniform(self):
        params = zero_params(tiny_config())
        enc = tiny_enc()
        tr = forward(params, enc)
        p0, p1 = enc.passage_region
        width = p1 - p0 + 1
        np.testing.assert_allclose(tr.start_probs[p0 : p1 + 1], np.full(width, 1 / width), atol=1e-15)

    def test_matches_straight_line_reference(self):
        # independent re-evaluation with explicit loops, no shared code
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        enc = tiny_enc()
        tr = forward(params, enc)

        n = enc.length
        d = cfg.d_model
        h0 = np.zeros((n, d))
        for t in range(n):
            for j in range(d):
                h0[t, j] = params.token_emb[enc.token_ids[t], j] + params.pos_emb[t, j]
        q = h0 @ params.wq
        k = h0 @ params.wk
        v = h0 @ params.wv
        h1 = np.zeros_like(h0)
        for i in range(n):
            scores = np.array([q[i] @ k[j] / math.sqrt(d) for j in range(n)])
            e = np.exp(scores - scores.max())
            a = e / e.sum()
            h1[i] = h0[i] + sum(a[j] * v[j] for j in range(n))
        h2 = np.zeros_like(h1)
        for i in range(n):
            act = np.maximum(h1[i] @ params.w1, 0.0)
            h2[i] = h1[i] + act @ params.w2
        start_ref = np.array([params.head_w[0] @ h2[i] + params.head_b[0] for i in range(n)])
        end_ref = np.array([params.head_w[1] @ h2[i] + params.head_b[1] for i in range(n)])

        p0, p1 = enc.passage_region
        np.testing.assert_allclose(tr.token_reprs, h2, atol=1e-12)
        np.testing.assert_allclose(tr.start_logits[p0 : p1 + 1], start_ref[p0 : p1 + 1], atol=1e-12)
        np.testing.assert_allclose(tr.end_logits[p0 : p1 + 1], end_ref[p0 : p1 + 1], atol=1e-12)

    def test_determinism(self):
        params = init_params(tiny_config(), seed=3)
        enc = tiny_enc()
        a = forward(params, enc)
        b = forward(params, enc)
        assert a.token_reprs.tobytes() == b.token_reprs.tobytes()
        assert a.start_logits.tobytes() == b.start_logits.tobytes()

    def test_id_out_of_range_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        small = ModelParams(**{n: getattr(params, n) for n in [f for f, _ in param_shapes(cfg)]})
        small.token_emb = params.token_emb[:3]
        with pytest.raises(ValueError):
            forward(small, tiny_enc())

    def test_id_out_of_range_rejected_after_a_larger_vocab(self):
        # the encoding keeps its largest id, so each forward checks it anew
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        enc = tiny_enc(p=("t1", "t7", "t3"), gold=(0, 0))
        forward(params, enc)
        small = params.copy()
        small.token_emb = params.token_emb[: enc.max_token_id]
        with pytest.raises(ValueError, match=f"x: token id {enc.max_token_id} >= vocab size {enc.max_token_id}"):
            forward(small, enc)

    def test_encoding_longer_than_the_position_table_rejected(self):
        enc = tiny_enc()  # 8 tokens: [CLS] t0 [SEP] t1..t4 [SEP]
        assert forward(init_params(tiny_config(max_len=8), seed=0), enc).length == 8
        with pytest.raises(ValueError, match="x: encoding length 8 > model max_len 7"):
            forward(init_params(tiny_config(max_len=7), seed=0), enc)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = init_params(tiny_config(), seed=0)
        tr = forward(params, tiny_enc())
        g = backward(params, tr, UpstreamGrads())
        for _, arr in g.arrays():
            assert np.all(arr == 0.0)

    def test_into_adds_bitwise_like_separate_gradients(self):
        # repeated tokens exercise the token_emb scatter
        params = init_params(tiny_config(), seed=5)
        rng = np.random.default_rng(5)
        total = zero_params(tiny_config())
        buffer = zero_params(tiny_config())
        for p in [("t1", "t2", "t1", "t1"), ("t3", "t3", "t2", "t4")]:
            tr = forward(params, encode(tiny_example(p=p), VOCAB, max_len=14))
            n = tr.length
            d_slp, d_elp = in_region(tr, rng.normal(size=n)), in_region(tr, rng.normal(size=n))
            up = UpstreamGrads(d_slp, d_elp, rng.normal(size=(n, 6)), rng.normal(size=3))
            for name, arr in backward(params, tr, up).arrays():
                arr_total = getattr(total, name)
                arr_total += arr
            assert backward(params, tr, up, into=buffer) is buffer
        np.testing.assert_array_equal(flatten_params(buffer), flatten_params(total))

    def test_token_emb_bytes_equal_unique_and_add_at(self):
        # t1 occurs 5 times and [SEP] twice in the first encoding; two
        # examples accumulate through one buffer. The reference scatters each
        # example's d_h0 (its pos_emb gradient) with np.unique and np.add.at.
        cfg = tiny_config()
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(11)
        buffer = zero_params(cfg)
        reference = np.zeros_like(params.token_emb)
        for q, p in [(("t1",), ("t1", "t2", "t1", "t1", "t3", "t1")), (("t4",), ("t3", "t3", "t2", "t4", "t3", "t3"))]:
            enc = encode(tiny_example(q=q, p=p, gold=(0, 1)), VOCAB, max_len=14)
            tr = forward(params, enc)
            n = tr.length
            counts = np.bincount(enc.token_ids[:n])
            assert counts.max() >= 4 and counts[VOCAB.id("[SEP]")] == 2
            up = UpstreamGrads(in_region(tr, rng.normal(size=n)), in_region(tr, rng.normal(size=n)), rng.normal(size=(n, 6)))
            d_h0 = backward(params, tr, up).pos_emb[:n]
            uniq, inverse = np.unique(enc.token_ids[:n], return_inverse=True)
            block = np.zeros((uniq.size, cfg.d_model))
            np.add.at(block, inverse, d_h0)
            reference[uniq] += block
            backward(params, tr, up, into=buffer)
        assert buffer.token_emb.tobytes() == reference.tobytes()

    def test_shape_mismatch_rejected(self):
        params = init_params(tiny_config(), seed=0)
        tr = forward(params, tiny_enc())
        with pytest.raises(ValueError):
            backward(params, tr, UpstreamGrads(d_start_logprob=np.zeros(3)))

    @pytest.mark.parametrize("name", ["d_start_logprob", "d_end_logprob"])
    def test_log_prob_gradient_outside_the_region_refused(self, name):
        # the log-probability is -inf there, so no finite objective sends one
        params = init_params(tiny_config(), seed=0)
        tr = forward(params, tiny_enc())
        p0, p1 = tr.enc.passage_region
        inside = np.zeros(tr.length)
        inside[p0 : p1 + 1] = 1.0
        backward(params, tr, UpstreamGrads(**{name: inside}))
        for pos in (p0 - 1, p1 + 1):
            g = inside.copy()
            g[pos] = 0.5
            with pytest.raises(ValueError, match=rf"x: {name} is 0.5 at position {pos}, outside the passage region \({p0}, {p1}\)"):
                backward(params, tr, UpstreamGrads(**{name: g}))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_logprob_gradient_matches_finite_diff(self, seed):
        # loss: -(log P(start=s) + log P(end=e)) for the gold span
        cfg = tiny_config()
        params = init_params(cfg, seed=seed)
        enc = tiny_enc()
        gold = enc.gold_in_sequence

        def loss_of(flat):
            p = unflatten_params(flat, cfg)
            t = forward(p, enc)
            return -(t.start_logprobs[gold.start] + t.end_logprobs[gold.end])

        tr = forward(params, enc)
        n = tr.length
        d_slp = np.zeros(n)
        d_elp = np.zeros(n)
        d_slp[gold.start] = -1.0
        d_elp[gold.end] = -1.0
        analytic = flatten_params(backward(params, tr, UpstreamGrads(d_slp, d_elp)))
        numeric = finite_diff_grad(loss_of, flatten_params(params), eps=1e-5)
        assert max_rel_error(analytic, numeric) <= 1e-4

    @pytest.mark.parametrize("seed", [0, 1])
    def test_token_repr_gradient_matches_finite_diff(self, seed):
        # loss: a fixed random projection of the pooled question, gold and negative rows
        cfg = tiny_config()
        params = init_params(cfg, seed=seed)
        enc = tiny_enc()
        rng = np.random.default_rng(99 + seed)
        w_q, w_span, w_neg = rng.normal(size=(3, cfg.d_model))
        span = enc.gold_in_sequence
        p0, p1 = enc.passage_region
        neg = Span(p0, p1, " ".join(enc.passage_tokens))

        def loss_of(flat):
            _, rows = item_pooling(forward(unflatten_params(flat, cfg), enc), span, [neg])
            return float(w_q @ rows[0] + w_span @ rows[1] + w_neg @ rows[2])

        tr = forward(params, enc)
        n, d = tr.length, cfg.d_model
        dtr = np.zeros((n, d))
        width = span.end - span.start + 1
        dtr[span.start : span.end + 1] += w_span / width
        q0, q1 = enc.question_region
        dtr[q0 : q1 + 1] += w_q / (q1 - q0 + 1)
        dtr[p0 : p1 + 1] += w_neg / (p1 - p0 + 1)
        analytic = flatten_params(backward(params, tr, UpstreamGrads(d_token_reprs=dtr)))
        numeric = finite_diff_grad(loss_of, flatten_params(params), eps=1e-5)
        assert max_rel_error(analytic, numeric) <= 1e-4


class TestReprs:
    """``item_pooling``'s rows are the question, the gold, then the spans."""

    def test_single_token_span_is_row(self):
        params = init_params(tiny_config(), seed=0)
        enc = tiny_enc()
        tr = forward(params, enc)
        p0, _ = enc.passage_region
        one = Span(p0, p0, enc.passage_tokens[0])
        _, rows = item_pooling(tr, one, [one])
        np.testing.assert_array_equal(rows[1], tr.token_reprs[p0])
        np.testing.assert_array_equal(rows[2], tr.token_reprs[p0])

    def test_two_token_span_is_average(self):
        params = init_params(tiny_config(), seed=0)
        enc = tiny_enc()
        tr = forward(params, enc)
        p0, _ = enc.passage_region
        two = Span(p0, p0 + 1, " ".join(enc.passage_tokens[:2]))
        _, rows = item_pooling(tr, two, SpanIndex(np.array([p0]), np.array([p0 + 1])))
        expected = (tr.token_reprs[p0] + tr.token_reprs[p0 + 1]) / 2
        np.testing.assert_allclose(rows[1], expected, atol=1e-15)
        np.testing.assert_allclose(rows[2], expected, atol=1e-15)

    def test_whole_passage_pooling_linearity(self):
        params = init_params(tiny_config(), seed=1)
        enc = tiny_enc()
        tr = forward(params, enc)
        p0, p1 = enc.passage_region
        whole = Span(p0, p1, " ".join(enc.passage_tokens))
        per_token = [Span(i, i, enc.passage_tokens[i - p0]) for i in range(p0, p1 + 1)]
        _, rows = item_pooling(tr, whole, per_token)
        np.testing.assert_allclose(rows[1], np.mean(rows[2:], axis=0), atol=1e-12)

    def test_out_of_region_span_rejected(self):
        enc = tiny_enc()
        tr = forward(init_params(tiny_config(), seed=0), enc)
        cls = Span(0, 0, "[CLS]")
        for gold, spans in ((cls, []), (enc.gold_in_sequence, [cls])):
            with pytest.raises(ValueError, match=r"span \(0, 0\) empty or outside passage region"):
                item_pooling(tr, gold, spans)

    def test_empty_span_rejected(self):
        enc = tiny_enc()
        tr = forward(init_params(tiny_config(), seed=0), enc)
        p0, _ = enc.passage_region
        with pytest.raises(ValueError, match="empty or outside passage region"):
            item_pooling(tr, enc.gold_in_sequence, SpanIndex(np.array([p0 + 1]), np.array([p0])))

    def test_question_repr_single_token(self):
        params = init_params(tiny_config(), seed=0)
        enc = tiny_enc(q=("t0",))
        tr = forward(params, enc)
        _, rows = item_pooling(tr, enc.gold_in_sequence, [])
        np.testing.assert_array_equal(rows[0], tr.token_reprs[1])

    def test_question_repr_two_tokens_average(self):
        params = init_params(tiny_config(), seed=0)
        enc = tiny_enc(q=("t0", "t5"))
        tr = forward(params, enc)
        _, rows = item_pooling(tr, enc.gold_in_sequence, [])
        np.testing.assert_allclose(rows[0], (tr.token_reprs[1] + tr.token_reprs[2]) / 2, atol=1e-15)

    def test_question_repr_pooling_linearity(self):
        params = init_params(tiny_config(), seed=2)
        enc = tiny_enc(q=("t0", "t5", "t6"))
        tr = forward(params, enc)
        per_token = [tr.token_reprs[i] for i in range(1, 4)]
        _, rows = item_pooling(tr, enc.gold_in_sequence, [])
        np.testing.assert_allclose(rows[0], np.mean(per_token, axis=0), atol=1e-12)

    def test_empty_question_rejected(self):
        enc = tiny_enc(q=())
        tr = forward(init_params(tiny_config(), seed=0), enc)
        with pytest.raises(ValueError, match=rf"^{enc.id}: empty question region$"):
            item_pooling(tr, enc.gold_in_sequence, [])

    def test_rows_are_the_pooling_of_the_token_reprs(self):
        params = init_params(tiny_config(), seed=3)
        enc = tiny_enc()
        tr = forward(params, enc)
        p0, p1 = enc.passage_region
        spans = SpanIndex(np.array([p0, p0 + 1]), np.array([p1, p0 + 2]))
        pool, rows = item_pooling(tr, enc.gold_in_sequence, spans)
        assert pool.shape == (4, tr.length)
        np.testing.assert_array_equal(rows, pool @ tr.token_reprs)
        np.testing.assert_allclose(pool.sum(axis=1), np.ones(4), atol=1e-15)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, cfg, params)
        cfg2, params2 = load_checkpoint(path)
        assert cfg2 == cfg
        for name, arr in params.arrays():
            np.testing.assert_array_equal(arr, getattr(params2, name))

    def test_byte_deterministic(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, seed=4)
        save_checkpoint(tmp_path / "a.ckpt", cfg, params)
        save_checkpoint(tmp_path / "b.ckpt", cfg, params)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def _rewrite(self, tmp_path, edit_header=None, tail=b""):
        cfg = tiny_config()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, seed=4))
        magic, header_line, blobs = path.read_bytes().split(b"\n", 2)
        if edit_header is not None:
            header = json.loads(header_line)
            edit_header(header)
            header_line = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(magic + b"\n" + header_line + b"\n" + blobs + tail)
        return path

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self._rewrite(tmp_path, tail=b"\0" * 8)
        with pytest.raises(ValueError, match="trailing bytes") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_missing_field_rejected(self, tmp_path):
        def drop_u(header):
            header["fields"] = [f for f in header["fields"] if f["name"] != "u"]

        path = self._rewrite(tmp_path, drop_u)
        with pytest.raises(ValueError, match="field list") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_config_disagreeing_with_field_shapes_rejected(self, tmp_path):
        def shrink_vocab(header):
            header["config"]["vocab_size"] = 10

        path = self._rewrite(tmp_path, shrink_vocab)
        with pytest.raises(ValueError, match="field list") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("key", ["fields", "config", "dtype"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        path = self._rewrite(tmp_path, lambda header: header.pop(key))
        with pytest.raises(ValueError, match="header keys") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_unknown_config_key_rejected(self, tmp_path):
        def add_dropout(header):
            header["config"]["dropout"] = 0.1

        path = self._rewrite(tmp_path, add_dropout)
        with pytest.raises(ValueError, match="unknown keys") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and "dropout" in str(err.value)

    def test_header_not_json_rejected(self, tmp_path):
        path = self._rewrite(tmp_path)
        magic, _, blobs = path.read_bytes().split(b"\n", 2)
        path.write_bytes(magic + b"\n{not json\n" + blobs)
        with pytest.raises(ValueError, match="not JSON") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("key", ["d_ff", "num_hard_weights"])
    def test_float_dimension_rejected(self, tmp_path, key):
        # [10] == [10.0] in Python, so the field list alone would let it pass
        def to_float(header):
            header["config"][key] = float(header["config"][key])

        path = self._rewrite(tmp_path, to_float)
        with pytest.raises(ValueError, match="must be an integer") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("value", [True, 2.0, "3", None])
    def test_config_refuses_a_dimension_that_is_not_an_int(self, value):
        with pytest.raises(ValueError, match="d_model must be an integer"):
            EncoderConfig(vocab_size=10, d_model=value)

    def test_huge_declared_size_rejected_before_reading(self, tmp_path):
        def huge_vocab(header):
            header["config"]["vocab_size"] = 10**15
            header["fields"][0]["shape"][0] = 10**15

        path = self._rewrite(tmp_path, huge_vocab)
        with pytest.raises(ValueError, match="truncated") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


_CONFIG_VALUES = st.one_of(
    st.integers(min_value=-2, max_value=10**15),
    st.floats(),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)


class TestCheckpointProperties:
    """load_checkpoint either returns or raises a ValueError naming the path,
    whatever is done to a saved checkpoint."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        cfg = tiny_config()
        save_checkpoint(path, cfg, init_params(cfg, seed=4))
        return path, path.read_bytes()

    @staticmethod
    def _load_or_refuse(path, data):
        path.write_bytes(data)
        try:
            load_checkpoint(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            return False
        return True

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.integers(min_value=0, max_value=2**20))
    def test_truncation_at_any_offset(self, saved, cut):
        path, data = saved
        cut = cut % (len(data) + 1)
        assert self._load_or_refuse(path, data[:cut]) == (cut == len(data))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tail=st.binary(min_size=1, max_size=64))
    def test_any_trailing_bytes(self, saved, tail):
        path, data = saved
        assert not self._load_or_refuse(path, data + tail)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(offset=st.integers(min_value=0), byte=st.integers(min_value=0, max_value=255))
    def test_any_one_byte_change_in_the_header_line(self, saved, offset, byte):
        path, data = saved
        first = data.index(b"\n") + 1
        at = first + offset % (data.index(b"\n", first) + 1 - first)
        self._load_or_refuse(path, data[:at] + bytes([byte]) + data[at + 1 :])

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        key=st.sampled_from(["vocab_size", "d_model", "d_ff", "max_len", "num_hard_weights"]),
        value=_CONFIG_VALUES,
        match_fields=st.booleans(),
    )
    def test_any_config_value(self, saved, key, value, match_fields):
        path, data = saved
        magic, header_line, blobs = data.split(b"\n", 2)
        header = json.loads(header_line)
        header["config"][key] = value
        if match_fields:  # the field list its config implies, so only the config can refuse it
            shapes = param_shapes(SimpleNamespace(**header["config"]))
            header["fields"] = [{"name": name, "shape": list(shape)} for name, shape in shapes]
        line = json.dumps(header, sort_keys=True).encode("utf-8")
        self._load_or_refuse(path, magic + b"\n" + line + b"\n" + blobs)
