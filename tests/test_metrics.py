import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanforge.corpus import CorpusSpec, DistractorPolicy, Example, Span, generate_corpus
from spanforge.encoder import EncoderConfig, init_params, zero_params
from spanforge.metrics import EvalReport, evaluate, exact_match, f1_overlap, normalize, topk_em
from spanforge.trainer import TrainConfig, run_eval


class TestNormalize:
    def test_collapse_and_lowercase(self):
        assert normalize("  Saint  Bernadette ") == "saint bernadette"

    def test_fixed_point(self):
        assert normalize("1876") == "1876"

    @given(st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, s):
        assert normalize(normalize(s)) == normalize(s)

    def test_squad_style_strips_articles_and_punct(self):
        assert normalize("The quick, brown fox!", squad_style=True) == "quick brown fox"


class TestExactMatch:
    def test_case_normalized(self):
        assert exact_match("September 1876", "september 1876") == 1

    def test_truncation_fails(self):
        assert exact_match("September", "September 1876") == 0

    def test_empty_pred(self):
        assert exact_match("", "x") == 0


class TestF1:
    def test_partial_overlap_point_eight(self):
        assert f1_overlap("Saint Bernadette", "Saint Bernadette Soubirous") == pytest.approx(0.8)

    def test_identical(self):
        assert f1_overlap("gold span", "gold span") == 1.0

    def test_disjoint(self):
        assert f1_overlap("a b", "c d") == 0.0

    def test_both_empty(self):
        assert f1_overlap("", "") == 1.0

    def test_multiset_counting(self):
        # repeated token only counts once against a single occurrence
        assert f1_overlap("a a", "a b") == pytest.approx(0.5)

    @given(st.text(max_size=20), st.text(max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_dominates_em(self, a, b):
        assert f1_overlap(a, b) == pytest.approx(f1_overlap(b, a))
        assert f1_overlap(a, b) >= exact_match(a, b) - 1e-12


class TestTopK:
    def test_rank3(self):
        preds = ["x", "y", "gold"]
        assert topk_em(preds, "gold", 3) == 1
        assert topk_em(preds, "gold", 2) == 0

    def test_k1_reduces_to_em(self):
        assert topk_em(["gold"], "gold", 1) == exact_match("gold", "gold")

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            topk_em(["a"], "a", 0)

    @given(st.lists(st.sampled_from(["a", "b", "gold"]), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_k(self, preds):
        vals = [topk_em(preds, "gold", k) for k in range(1, 9)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))


def small_corpus():
    return generate_corpus(
        CorpusSpec(
            vocab_size=60,
            num_examples=30,
            passage_len=16,
            answer_len_range=(1, 2),
            distractors=DistractorPolicy(1, 1, 1),
            seed=11,
            num_dev=5,
            num_test=5,
        )
    )


class TestEvaluate:
    def test_scores_hand_written_texts(self):
        passage = ("f1", "Saint", "Bernadette", "f2", "1876")
        examples = [
            Example("a", ("what", "k"), passage, Span(1, 2, "Saint Bernadette")),
            Example("b", ("what", "k"), passage, Span(4, 4, "1876")),
        ]
        texts = [["saint  BERNADETTE", "f1"], ["f2", "f1", "1876"]]
        report = evaluate(examples, texts, k_list=(1, 3))
        assert [r["em"] for r in report.records] == [1, 0]
        assert [r["f1"] for r in report.records] == [1.0, 0.0]
        assert [r["topk_em"] for r in report.records] == [{"1": 1, "3": 1}, {"1": 0, "3": 1}]
        assert report.records[1]["top_preds"] == ["f2", "f1", "1876"]
        assert report.em == 0.5 and report.f1 == 0.5 and report.topk == {1: 0.5, 3: 1.0}
        with pytest.raises(ValueError):
            evaluate(examples, texts[:1])
        with pytest.raises(ValueError):
            evaluate(examples[:1], texts)
        with pytest.raises(ValueError, match="k_list"):
            evaluate(examples, texts, k_list=(0, 1))

    def test_zero_model_report_is_consistent(self):
        ds = small_corpus()
        cfg = EncoderConfig(vocab_size=len(ds.vocab), d_model=4, d_ff=6, max_len=32, num_hard_weights=2)
        params = init_params(cfg, seed=0)
        report = run_eval(params, TrainConfig(encoder=cfg, max_answer_len=4), ds.dev, ds.vocab, k_list=(1, 3, 5))
        n = len(report.records)
        assert n == len(ds.dev)
        assert report.em == pytest.approx(sum(r["em"] for r in report.records) / n)
        assert report.f1 == pytest.approx(sum(r["f1"] for r in report.records) / n)
        for rec in report.records:
            ks = [rec["topk_em"][str(k)] for k in (1, 3, 5)]
            assert all(x <= y for x, y in zip(ks, ks[1:]))
            assert rec["f1"] >= rec["em"]

    def test_oracle_model_reaches_perfect_scores(self):
        # single-token answers, no distractors: the one value-pool token in
        # each passage is the gold, so a hand-built value detector is an
        # oracle (token_emb separates pools, all mixing weights zero, head
        # reads the pool dimension)
        ds = generate_corpus(
            CorpusSpec(
                vocab_size=40,
                num_examples=12,
                passage_len=8,
                answer_len_range=(1, 1),
                distractors=DistractorPolicy(0, 0, 0),
                seed=1,
                num_dev=4,
                num_test=4,
            )
        )
        cfg = EncoderConfig(vocab_size=len(ds.vocab), d_model=2, d_ff=2, max_len=16, num_hard_weights=2)
        params = zero_params(cfg)
        for tok_id in range(len(ds.vocab)):
            is_value = ds.vocab.token(tok_id).startswith("v")
            params.token_emb[tok_id] = [1.0, 0.0] if is_value else [-1.0, 0.0]
        params.head_w[0] = [30.0, 0.0]
        params.head_w[1] = [30.0, 0.0]
        report = run_eval(params, TrainConfig(encoder=cfg, max_answer_len=2), ds.test, ds.vocab, k_list=(1, 2))
        assert report.em == 1.0 and report.f1 == 1.0
        assert report.topk[1] == 1.0 and report.topk[2] == 1.0

    def test_json_and_csv_roundtrip(self, tmp_path):
        ds = small_corpus()
        cfg = EncoderConfig(vocab_size=len(ds.vocab), d_model=4, d_ff=6, max_len=32, num_hard_weights=2)
        params = init_params(cfg, seed=2)
        report = run_eval(params, TrainConfig(encoder=cfg, max_answer_len=4), ds.test, ds.vocab, k_list=(1, 3))
        report.save_json(tmp_path / "report.json")
        back = EvalReport.load_json(tmp_path / "report.json")
        assert back.em == report.em and back.topk == report.topk
        report.save_csv(tmp_path / "report.csv")
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "k,em,f1"
        assert len(lines) == 3
        k1 = lines[1].split(",")
        assert float(k1[1]) == report.topk[1] and float(k1[2]) == report.f1

    def test_loaded_report_writes_the_same_csv(self, tmp_path):
        report = EvalReport([{"id": "a"}], em=0.5, f1=0.25, topk={10: 1.0, 1: 0.5, 3: 0.75}, k_list=(10, 1, 3))
        report.save_csv(tmp_path / "report.csv")
        report.save_json(tmp_path / "report.json")
        EvalReport.load_json(tmp_path / "report.json").save_csv(tmp_path / "loaded.csv")
        assert (tmp_path / "loaded.csv").read_bytes() == (tmp_path / "report.csv").read_bytes()

    def test_repeated_k_reported_once(self, tmp_path):
        passage = ("f1", "Saint", "Bernadette", "f2", "1876")
        examples = [Example("a", ("what", "k"), passage, Span(4, 4, "1876"))]
        report = evaluate(examples, [["f2", "1876", "f1"]], k_list=(3, 1, 1, 3))
        assert report.k_list == (3, 1)
        assert report.topk == {3: 1.0, 1: 0.0}
        report = evaluate(examples, [["f2", "1876", "f1"]], k_list=(1, 1, 3))
        assert report.k_list == (1, 3)
        report.save_csv(tmp_path / "report.csv")
        assert (tmp_path / "report.csv").read_text().splitlines() == ["k,em,f1", "1,0.0,0.0", "3,1.0,0.0"]
        report.save_json(tmp_path / "report.json")
        EvalReport.load_json(tmp_path / "report.json").save_csv(tmp_path / "loaded.csv")
        assert (tmp_path / "loaded.csv").read_bytes() == (tmp_path / "report.csv").read_bytes()

    def test_empty_dataset_rejected(self):
        ds = small_corpus()
        cfg = EncoderConfig(vocab_size=len(ds.vocab), d_model=4, d_ff=6, max_len=32, num_hard_weights=2)
        with pytest.raises(ValueError):
            run_eval(init_params(cfg, 0), TrainConfig(encoder=cfg), [], ds.vocab)


def reference_evaluate(examples, ranked_texts, k_list, squad_style):
    """evaluate written out per k from the one-text scorers."""
    records = []
    for ex, texts in zip(examples, ranked_texts):
        top1 = texts[0] if texts else ""
        records.append(
            {
                "id": ex.id,
                "top_preds": texts,
                "gold": ex.gold.text,
                "em": exact_match(top1, ex.gold.text, squad_style),
                "f1": f1_overlap(top1, ex.gold.text, squad_style),
                "topk_em": {str(k): topk_em(texts, ex.gold.text, k, squad_style) for k in k_list},
            }
        )
    n = len(records)
    em = sum(r["em"] for r in records) / n
    f1 = sum(r["f1"] for r in records) / n
    return records, em, f1, {k: sum(r["topk_em"][str(k)] for r in records) / n for k in k_list}


# Case variants, articles and punctuation, so both normalisations matter.
WORDS = st.sampled_from(["ab", "Ab", "AB", "cd", "the", "The", "a", "x.", "x", "1876"])
SPACES = st.sampled_from([" ", "  ", "\t", " \n "])


@st.composite
def spaced_text(draw):
    words = draw(st.lists(WORDS, max_size=4))
    return draw(SPACES if draw(st.booleans()) else st.just("")) + "".join(w + draw(SPACES) for w in words)


@st.composite
def eval_case(draw):
    examples, ranked = [], []
    for i in range(draw(st.integers(1, 6))):
        gold = draw(st.lists(WORDS, min_size=1, max_size=3))
        passage = ("f0", *gold, "f1")
        examples.append(Example(f"e{i}", ("q",), passage, Span(1, len(gold), " ".join(gold))))
        # variants of the gold, other texts, and sometimes no texts at all
        variant = st.builds(lambda w, s: s.join(w).upper() if s == "\t" else s.join(w), st.just(gold), SPACES)
        ranked.append(draw(st.lists(st.one_of(variant, spaced_text()), max_size=12)))
    k_list = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)))
    return examples, ranked, k_list


class TestEvaluateAgainstPerKReference:
    @given(eval_case(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_records_and_aggregates_equal(self, case, squad_style):
        examples, ranked, k_list = case
        report = evaluate(examples, ranked, k_list, squad_style)
        records, em, f1, topk = reference_evaluate(examples, ranked, k_list, squad_style)
        assert report.records == records
        assert (report.em, report.f1, report.topk) == (em, f1, topk)
