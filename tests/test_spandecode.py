import json
import warnings

import numpy as np
import pytest

from conftest import fake_trace, make_enc
from spanforge.corpus import Span
from spanforge.spandecode import (
    FROZEN,
    PredictionSet,
    ScoredSpan,
    brute_force_topk,
    build_frozen_set,
    candidate_count,
    read_candidate_store,
    store_record,
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
            starts, ends, scores, counts = topk_batch(traces, encs, k, cap)
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
            topk_batch(traces, encs, 50, 8)
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


def _scored(start, end, score):
    return ScoredSpan(span=Span(start, end, f"s{start}e{end}"), score=score, log_prob=-1.0)


def _preds(n, base=10.0):
    # distinct single-token spans at positions 0..n-1 with decreasing scores
    return PredictionSet.from_ranked([_scored(i, i, base - i) for i in range(n)], "dynamic")


class TestBuildFrozen:
    def test_gold_in_topk_unchanged(self):
        preds = _preds(25)
        gold = _scored(2, 2, 8.0)
        frozen, rank = build_frozen_set(preds, gold, k=20)
        assert rank == 3
        assert frozen.ranked == preds.ranked[:20]
        assert frozen.kind == FROZEN

    def test_gold_absent_replaces_last(self):
        preds = _preds(20)
        gold = ScoredSpan(span=Span(50, 50, "gold"), score=-5.0, log_prob=-9.0)
        frozen, rank = build_frozen_set(preds, gold, k=20)
        assert rank is None
        assert len(frozen) == 20
        assert frozen.ranked[:19] == preds.ranked[:19]
        assert frozen.ranked[19] is gold

    def test_k1_gold_not_top1(self):
        preds = _preds(5)
        gold = ScoredSpan(span=Span(9, 9, "gold"), score=0.0, log_prob=-9.0)
        frozen, rank = build_frozen_set(preds, gold, k=1)
        assert rank is None
        assert [s.span.positions for s in frozen.ranked] == [(9, 9)]

    def test_insufficient_candidates_rejected(self):
        preds = _preds(3)
        gold = ScoredSpan(span=Span(9, 9, "gold"), score=0.0, log_prob=-9.0)
        with pytest.raises(ValueError):
            build_frozen_set(preds, gold, k=5)

    def test_text_match_mode(self):
        # the gold's text recurs, differently cased, at passage slot 1
        enc = make_enc(["a", "dup", "b", "Dup"])
        p0 = enc.passage_region[0]
        ranked = [_scored(p0, p0, 5.0), ScoredSpan(span=Span(p0 + 1, p0 + 1, "dup"), score=4.0, log_prob=-1.0)]
        preds = PredictionSet.from_ranked(ranked, "dynamic", enc)
        gold = ScoredSpan(span=Span(p0 + 3, p0 + 3, "Dup"), score=1.0, log_prob=-2.0)
        frozen_pos, rank_pos = build_frozen_set(preds, gold, k=2, match="position")
        assert rank_pos is None and frozen_pos.ranked[1] is gold
        frozen_txt, rank_txt = build_frozen_set(preds, gold, k=2, match="text")
        assert rank_txt == 2 and frozen_txt.ranked == ranked

    def test_text_match_needs_the_passage(self):
        with pytest.raises(ValueError, match="encoded example"):
            build_frozen_set(_preds(3), _scored(1, 1, 9.0), k=2, match="text")


class TestPredictionSetInvariants:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            PredictionSet.from_ranked([_scored(0, 0, 2.0), _scored(0, 0, 1.0)], "dynamic")

    def test_increasing_scores_rejected(self):
        with pytest.raises(ValueError):
            PredictionSet.from_ranked([_scored(0, 0, 1.0), _scored(1, 1, 2.0)], "dynamic")


class TestStore:
    def test_roundtrip_exact_floats(self, tmp_path):
        preds = _preds(4, base=0.123456789012345)
        gold = _scored(1, 1, 0.123456789012345 - 1)
        frozen, rank = build_frozen_set(preds, gold, k=4)
        rec = store_record("ex0", frozen, rank)
        path = tmp_path / "candidates.jsonl"
        write_candidate_store(path, [rec])
        back = read_candidate_store(path)
        assert back["ex0"] == json.loads(json.dumps(rec))
        assert back["ex0"]["spans"][0]["score"] == preds.ranked[0].score
