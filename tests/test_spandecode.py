import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fake_trace, make_enc
from spanforge.corpus import Span, SpanIndex, span_text
from spanforge.losses import hard_loss_grads
from spanforge.metrics import normalize
from spanforge.numeric import MASK_VALUE
from spanforge.spandecode import (
    PredictionSet,
    RankedBatch,
    ScoredSpan,
    brute_force_topk,
    build_frozen_set,
    candidate_count,
    freeze_batch,
    read_candidate_store,
    store_records,
    text_matches,
    topk_batch,
    topk_spans,
    write_candidate_store,
)


class TestTopK:
    def test_hand_ranked_two_tokens(self):
        enc = make_enc(["a", "b"])
        tr = fake_trace(enc, [3.0, 1.0], [1.0, 3.0])
        p0, _ = enc.passage_region
        out = topk_spans(tr, enc, k=2, max_answer_len=2)
        assert [(s.span.start - p0, s.span.end - p0, s.score) for s in out.ranked] == [
            (0, 1, 6.0),
            (0, 0, 4.0),
        ]

    def test_tie_break_lexicographic(self):
        enc = make_enc(["a", "b", "c"])
        tr = fake_trace(enc, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        p0, _ = enc.passage_region
        out = topk_spans(tr, enc, k=3, max_answer_len=3)
        rel = [(s.span.start - p0, s.span.end - p0) for s in out.ranked]
        assert rel == [(0, 0), (0, 1), (0, 2)]

    def test_length_cap_respected(self):
        enc = make_enc(["a", "b", "c", "d"])
        tr = fake_trace(enc, [0.0] * 4, [0.0] * 4)
        out = topk_spans(tr, enc, k=100, max_answer_len=2)
        assert all(len(s.span) <= 2 for s in out.ranked)
        assert len(out) == candidate_count(4, 2)

    def test_fewer_than_k(self):
        enc = make_enc(["a"])
        tr = fake_trace(enc, [1.0], [1.0])
        out = topk_spans(tr, enc, k=5, max_answer_len=3)
        assert len(out) == 1

    def test_text_resolution(self):
        enc = make_enc(["saint", "bernadette", "soubirous"])
        tr = fake_trace(enc, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        out = topk_spans(tr, enc, k=1, max_answer_len=3)
        assert out.ranked[0].span.text == "saint bernadette"

    def test_bad_args_rejected(self):
        enc = make_enc(["a"])
        tr = fake_trace(enc, [1.0], [1.0])
        with pytest.raises(ValueError):
            topk_spans(tr, enc, k=0, max_answer_len=2)
        with pytest.raises(ValueError):
            topk_spans(tr, enc, k=1, max_answer_len=0)


class TestOracleEquivalence:
    def test_same_three_cases_as_topk(self):
        enc = make_enc(["a", "b"])
        tr = fake_trace(enc, [3.0, 1.0], [1.0, 3.0])
        a = topk_spans(tr, enc, 2, 2)
        b = brute_force_topk(tr, enc, 2, 2)
        assert [(s.span.positions, s.score) for s in a.ranked] == [
            (s.span.positions, s.score) for s in b.ranked
        ]

    def test_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            plen = int(rng.integers(1, 13))
            enc = make_enc([f"p{i}" for i in range(plen)])
            tr = fake_trace(enc, rng.normal(size=plen), rng.normal(size=plen))
            k = int(rng.integers(1, 11))
            cap = int(rng.integers(1, 9))
            a = topk_spans(tr, enc, k, cap)
            b = brute_force_topk(tr, enc, k, cap)
            assert [(s.span.positions, s.score, s.log_prob) for s in a.ranked] == [
                (s.span.positions, s.score, s.log_prob) for s in b.ranked
            ]

    def test_batch_rows_equal_single_examples(self):
        # ragged rows (passage and question lengths differ); integer logits force ties
        rng = np.random.default_rng(3)
        for _ in range(200):
            encs = [
                make_enc(
                    [f"p{i}" for i in range(int(rng.integers(1, 13)))],
                    question_tokens=[f"q{i}" for i in range(int(rng.integers(0, 4)))],
                    ex_id=f"b{b}",
                )
                for b in range(int(rng.integers(1, 6)))
            ]
            traces = [fake_trace(enc, *rng.integers(-2, 3, size=(2, len(enc.passage_tokens)))) for enc in encs]
            k = int(rng.integers(1, 40))
            cap = int(rng.integers(1, 9))
            heads = [tr.start_logits for tr in traces], [tr.end_logits for tr in traces]
            starts, ends, scores, counts = topk_batch(*heads, encs, k, cap)
            for b, (tr, enc) in enumerate(zip(traces, encs)):
                brute = brute_force_topk(tr, enc, k, cap).ranked
                m = int(counts[b])
                assert list(zip(starts[b, :m].tolist(), ends[b, :m].tolist(), scores[b, :m].tolist())) == [
                    (*s.span.positions, s.score) for s in brute
                ]

    def test_decoding_does_not_warn(self):
        # the passage is flanked by MASK_VALUE logits; a warning is an error here
        rng = np.random.default_rng(4)
        encs = [make_enc([f"p{i}" for i in range(n)], ex_id=f"w{n}") for n in (1, 5, 12)]
        traces = [fake_trace(enc, *rng.normal(size=(2, len(enc.passage_tokens))) * 1e3) for enc in encs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            topk_batch([tr.start_logits for tr in traces], [tr.end_logits for tr in traces], encs, 50, 8)
            for tr, enc in zip(traces, encs):
                topk_spans(tr, enc, 50, 8).ranked

    def test_monotone_scores(self):
        rng = np.random.default_rng(1)
        enc = make_enc([f"p{i}" for i in range(10)])
        tr = fake_trace(enc, rng.normal(size=10), rng.normal(size=10))
        out = topk_spans(tr, enc, 20, 5)
        scores = [s.score for s in out.ranked]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_candidate_count_formula(self):
        for plen in range(1, 12):
            for cap in range(1, 9):
                direct = sum(
                    1 for i in range(plen) for j in range(i, plen) if j - i + 1 <= cap
                )
                assert candidate_count(plen, cap) == direct


def reference_topk(start_logits, end_logits, enc, k, max_answer_len):
    """A full stable argsort over every legal span, listed in (start, end) order."""
    p0, p1 = enc.passage_region
    spans = [(i, j) for i in range(p0, p1 + 1) for j in range(i, min(p1, i + max_answer_len - 1) + 1)]
    scores = np.array([start_logits[i] + end_logits[j] for i, j in spans])
    order = np.argsort(-scores, kind="stable")[:k]
    return [spans[o] for o in order], scores[order]


@st.composite
def ragged_heads(draw):
    """Examples of ragged passage and question lengths with head logits
    (MASK_VALUE outside the region), quantized to force ties or not."""
    quantized = draw(st.booleans())
    value = st.integers(-2, 2).map(float) if quantized else st.floats(-1e3, 1e3)
    encs, starts, ends = [], [], []
    for b in range(draw(st.integers(1, 6))):
        plen, qlen = draw(st.integers(1, 15)), draw(st.integers(0, 3))
        enc = make_enc([f"p{i}" for i in range(plen)], [f"q{i}" for i in range(qlen)], ex_id=f"r{b}")
        p0, p1 = enc.passage_region
        for heads in (starts, ends):
            logits = np.full(enc.length, MASK_VALUE)
            logits[p0 : p1 + 1] = draw(st.lists(value, min_size=plen, max_size=plen))
            heads.append(logits)
        encs.append(enc)
    longest = max(len(enc.passage_tokens) for enc in encs)
    cap = draw(st.one_of(st.just(1), st.just(longest + 1), st.integers(1, longest)))
    # up to past the largest legal-span count, so short rows pad
    k = draw(st.integers(1, candidate_count(longest, cap) + 3))
    return starts, ends, encs, k, cap


class TestTopKBatchProperties:
    @given(ragged_heads())
    @settings(max_examples=300, deadline=None)
    def test_equals_a_full_stable_argsort(self, drawn):
        start_logits, end_logits, encs, k, cap = drawn
        starts, ends, scores, counts = topk_batch(start_logits, end_logits, encs, k, cap)
        assert starts.shape == ends.shape == scores.shape == (len(encs), counts.max())
        for b, enc in enumerate(encs):
            spans, ref_scores = reference_topk(start_logits[b], end_logits[b], enc, k, cap)
            m = int(counts[b])
            assert m == len(spans) == min(k, candidate_count(len(enc.passage_tokens), cap))
            assert list(zip(starts[b, :m].tolist(), ends[b, :m].tolist())) == spans
            assert scores[b, :m].tobytes() == ref_scores.tobytes()
            assert np.all(scores[b, m:] == -np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("head", [0, 1])
    def test_non_finite_region_logit_refused(self, bad, head):
        encs = [make_enc(["a", "b", "c"], ex_id=f"n{b}") for b in range(3)]
        heads = [[np.zeros(enc.length) for enc in encs] for _ in range(2)]
        p0 = encs[1].passage_region[0]
        heads[head][1][p0 + 1] = bad
        with pytest.raises(ValueError, match="n1: non-finite start or end logit in the passage region"):
            topk_batch(*heads, encs, 3, 2)
        # outside the region the value is never read
        heads[head][1][p0 + 1] = 0.0
        heads[head][1][0] = bad
        topk_batch(*heads, encs, 3, 2)


@st.composite
def ragged_candidates(draw):
    """A ragged batch of passages over case variants of one token (and one
    other token), with each row's gold and K candidate spans in sequence
    coordinates: the first counts[b] legal, of any length, so shorter and
    longer than the gold; the rest padding columns at any position, start
    after end included. A short row's windows run into the padded key
    columns."""
    K = draw(st.integers(1, 6))
    encs, golds, cands, counts = [], [], [], []
    for b in range(draw(st.integers(1, 5))):
        plen, qlen = draw(st.integers(1, 10)), draw(st.integers(0, 3))
        tokens = draw(st.lists(st.sampled_from(["ab", "Ab", "AB", "c"]), min_size=plen, max_size=plen))
        enc = make_enc(tokens, [f"q{i}" for i in range(qlen)], ex_id=f"r{b}")
        p0, p1 = enc.passage_region
        span = st.integers(p0, p1).flatmap(lambda s: st.tuples(st.just(s), st.integers(s, p1)))
        count = draw(st.integers(0, K))
        pad = st.tuples(st.integers(0, 30), st.integers(0, 30))
        live = draw(st.lists(span, min_size=count, max_size=count))
        cands.append(live + draw(st.lists(pad, min_size=K - count, max_size=K - count)))
        golds.append(draw(span))
        encs.append(enc)
        counts.append(count)
    return encs, golds, cands, counts


class TestTextMatches:
    @given(ragged_candidates())
    @settings(max_examples=300, deadline=None)
    def test_equals_normalized_span_text(self, drawn):
        encs, golds, cands, counts = drawn
        starts, ends = np.array(cands, dtype=np.int64).transpose(2, 0, 1)
        gold_starts, gold_ends = np.array(golds, dtype=np.int64).T
        same = text_matches(encs, starts, ends, gold_starts, gold_ends)
        assert same.shape == starts.shape
        for enc, gold, row, count, got in zip(encs, golds, cands, counts, same.tolist()):
            want = normalize(span_text(enc, *gold))
            assert got[:count] == [normalize(span_text(enc, s, e)) == want for s, e in row[:count]]

    @given(ragged_candidates(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_gold_matches_itself(self, drawn, data):
        # mining excludes the gold by text alone: a candidate at the gold's
        # own position, in any column, must match
        encs, golds, cands, _ = drawn
        cols = [data.draw(st.integers(0, len(cands[0]) - 1)) for _ in encs]
        for row, gold, col in zip(cands, golds, cols):
            row[col] = gold
        starts, ends = np.array(cands, dtype=np.int64).transpose(2, 0, 1)
        gold_starts, gold_ends = np.array(golds, dtype=np.int64).T
        same = text_matches(encs, starts, ends, gold_starts, gold_ends)
        assert same[np.arange(len(encs)), cols].all()


def _scored(start, end, score, enc=None):
    text = span_text(enc, start, end) if enc is not None else f"s{start}e{end}"
    return ScoredSpan(span=Span(start, end, text), score=score, log_prob=-1.0)


def _preds(n, base=10.0):
    # distinct single-token spans at passage slots 0..n-1 of a passage with
    # ten more slots, scores decreasing
    enc = make_enc([f"t{i}" for i in range(n + 10)])
    p0 = enc.passage_region[0]
    return PredictionSet.from_ranked([_scored(p0 + i, p0 + i, base - i, enc) for i in range(n)], enc)


class TestBuildFrozen:
    def test_gold_in_topk_unchanged(self):
        preds = _preds(25)
        p0 = preds.enc.passage_region[0]
        gold = _scored(p0 + 2, p0 + 2, 8.0, preds.enc)
        frozen, rank = build_frozen_set(preds, gold, k=20)
        assert rank == 3
        assert frozen.ranked == preds.ranked[:20]

    def test_gold_absent_replaces_last(self):
        preds = _preds(20)
        p0 = preds.enc.passage_region[0]
        gold = ScoredSpan(span=Span(p0 + 25, p0 + 25, "t25"), score=-5.0, log_prob=-9.0)
        frozen, rank = build_frozen_set(preds, gold, k=20)
        assert rank is None
        assert len(frozen) == 20
        assert frozen.ranked[:19] == preds.ranked[:19]
        assert frozen.ranked[19] == gold

    def test_k1_gold_not_top1(self):
        preds = _preds(5)
        p0 = preds.enc.passage_region[0]
        gold = ScoredSpan(span=Span(p0 + 9, p0 + 9, "t9"), score=0.0, log_prob=-9.0)
        frozen, rank = build_frozen_set(preds, gold, k=1)
        assert rank is None
        assert [s.span.positions for s in frozen.ranked] == [(p0 + 9, p0 + 9)]

    def test_insufficient_candidates_rejected(self):
        preds = _preds(3)
        p0 = preds.enc.passage_region[0]
        gold = ScoredSpan(span=Span(p0 + 9, p0 + 9, "t9"), score=0.0, log_prob=-9.0)
        with pytest.raises(ValueError):
            build_frozen_set(preds, gold, k=5)

    def test_text_match_mode(self):
        # the gold's text recurs, differently cased, at passage slot 1
        enc = make_enc(["a", "dup", "b", "Dup"])
        p0 = enc.passage_region[0]
        ranked = [_scored(p0, p0, 5.0, enc), _scored(p0 + 1, p0 + 1, 4.0, enc)]
        preds = PredictionSet.from_ranked(ranked, enc)
        gold = ScoredSpan(span=Span(p0 + 3, p0 + 3, "Dup"), score=1.0, log_prob=-2.0)
        frozen_pos, rank_pos = build_frozen_set(preds, gold, k=2, match="position")
        assert rank_pos is None and frozen_pos.ranked[1] == gold
        frozen_txt, rank_txt = build_frozen_set(preds, gold, k=2, match="text")
        assert rank_txt == 2 and frozen_txt.ranked == ranked

    def test_text_match_needs_the_passage(self):
        preds = PredictionSet.from_ranked([_scored(i, i, 10.0 - i) for i in range(3)])
        with pytest.raises(ValueError, match="encoded example"):
            build_frozen_set(preds, _scored(1, 1, 9.0), k=2, match="text")

    @pytest.mark.parametrize("gold_slot", [2, 25])
    def test_frozen_set_is_a_span_index_for_the_hard_loss(self, gold_slot):
        # both branches: the gold kept at rank 3, and the gold inserted
        preds = _preds(20)
        enc = preds.enc
        p0 = enc.passage_region[0]
        gold = _scored(p0 + gold_slot, p0 + gold_slot, -5.0, enc)
        frozen, _ = build_frozen_set(preds, gold, k=20)
        assert isinstance(frozen, SpanIndex)
        rng = np.random.default_rng(5)
        tr = fake_trace(enc, rng.normal(size=30), rng.normal(size=30))
        u = rng.normal(size=20)
        plain = SpanIndex(frozen.starts.copy(), frozen.ends.copy())
        for a, b in zip(hard_loss_grads(tr, frozen, u), hard_loss_grads(tr, plain, u)):
            assert np.array_equal(a, b)


class TestPredictionSetInvariants:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            PredictionSet.from_ranked([_scored(0, 0, 2.0), _scored(0, 0, 1.0)])

    def test_increasing_scores_rejected(self):
        with pytest.raises(ValueError):
            PredictionSet.from_ranked([_scored(0, 0, 1.0), _scored(1, 1, 2.0)])

    def test_decoded_set_is_a_span_index(self):
        enc = make_enc(["a", "b", "c"])
        out = topk_spans(fake_trace(enc, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), enc, k=4, max_answer_len=2)
        assert isinstance(out, SpanIndex)

    def test_ranked_text_comes_from_the_passage(self):
        enc = make_enc(["saint", "bernadette", "soubirous"])
        p0 = enc.passage_region[0]
        wrong = ScoredSpan(span=Span(p0 + 1, p0 + 2, "not the passage"), score=1.0, log_prob=-1.0)
        preds = PredictionSet.from_ranked([wrong], enc)
        assert preds.texts() == ["bernadette soubirous"]
        assert preds.ranked == [ScoredSpan(Span(p0 + 1, p0 + 2, "bernadette soubirous"), 1.0, -1.0)]

    def test_text_without_the_example_refused(self):
        preds = PredictionSet.from_ranked([_scored(0, 1, 1.0)])
        with pytest.raises(ValueError, match="encoded example"):
            preds.ranked
        with pytest.raises(ValueError, match="encoded example"):
            preds.texts()


class TestStore:
    def test_roundtrip_exact_floats(self, tmp_path):
        preds = _preds(4, base=0.123456789012345)
        p0 = preds.enc.passage_region[0]
        gold = _scored(p0 + 1, p0 + 1, 0.123456789012345 - 1, preds.enc)
        frozen, ranks = freeze_batch(RankedBatch.of_set(preds), [gold], k=4)
        (rec,) = store_records(frozen, ranks)
        path = tmp_path / "candidates.jsonl"
        write_candidate_store(path, [rec])
        back = read_candidate_store(path)
        assert back[preds.enc.id] == json.loads(json.dumps(rec))
        assert back[preds.enc.id]["spans"][0]["score"] == preds.ranked[0].score

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"spans": [], "gold_rank": null}', "no string id"),
            ("[1, 2]", "no string id"),
            ('{"id": "ex0", "spans": [', "not JSON"),
            ('{"id": "ex0", "spans": [], "gold_rank": 1}', "duplicate candidate id 'ex0'"),
        ],
    )
    def test_malformed_line_refused(self, tmp_path, line, message):
        path = tmp_path / "candidates.jsonl"
        path.write_text('{"id": "ex0", "spans": [], "gold_rank": 1}\n\n' + line + "\n")
        with pytest.raises(ValueError, match=message) as err:
            read_candidate_store(path)
        assert f"{path}:3:" in str(err.value)
