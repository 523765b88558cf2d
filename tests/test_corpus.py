import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from spanforge.corpus import (
    VALUES_PER_KEY,
    CorpusError,
    CorpusSpec,
    DistractorPolicy,
    Example,
    Span,
    Vocab,
    _generate_example,
    build_vocab,
    decode,
    encode,
    generate_corpus,
    load_squad_json,
    read_examples_jsonl,
    span_text,
    write_examples_jsonl,
)
from spanforge.metrics import normalize


def small_spec(**kw):
    base = dict(
        vocab_size=60,
        num_examples=40,
        passage_len=24,
        answer_len_range=(1, 3),
        seed=7,
        num_dev=8,
        num_test=8,
    )
    base.update(kw)
    return CorpusSpec(**base)


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        for run in ("a", "b"):
            ds = generate_corpus(small_spec())
            ds.save(tmp_path / run)
        for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "vocab.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_no_distractors_means_unique_boundaries(self):
        spec = small_spec(distractors=DistractorPolicy(0, 0, 0))
        ds = generate_corpus(spec)
        for ex in ds.train:
            first, last = ex.passage[ex.gold.start], ex.passage[ex.gold.end]
            starts = [i for i, t in enumerate(ex.passage) if t == first and i != ex.gold.start]
            ends = [i for i, t in enumerate(ex.passage) if t == last and i != ex.gold.end]
            assert starts == []
            assert ends == []

    def test_planted_counts_by_exhaustive_scan(self):
        spec = small_spec(distractors=DistractorPolicy(prefix_overlap_count=2, suffix_overlap_count=1, full_decoys=1))
        ds = generate_corpus(spec)
        for ex in ds.train + ds.dev + ds.test:
            first = ex.passage[ex.gold.start]
            n_first = sum(1 for i, t in enumerate(ex.passage) if t == first and i != ex.gold.start)
            assert n_first == 2
            if len(ex.gold) >= 2:
                last = ex.passage[ex.gold.end]
                n_last = sum(1 for i, t in enumerate(ex.passage) if t == last and i != ex.gold.end)
                assert n_last == 1

    def test_key_appears_once(self):
        ds = generate_corpus(small_spec())
        for ex in ds.train:
            key = ex.question[1]
            assert ex.passage.count(key) == 1
            assert ex.passage[ex.gold.start - 1] == key

    def test_splits_disjoint_by_id(self):
        ds = generate_corpus(small_spec())
        ids = [ex.id for ex in ds.train + ds.dev + ds.test]
        assert len(set(ids)) == len(ids)
        assert len(ds.train) == small_spec().num_train

    def test_infeasible_spec_rejected(self):
        with pytest.raises(CorpusError):
            generate_corpus(small_spec(passage_len=4, answer_len_range=(3, 4)))

    def test_jsonl_roundtrip(self, tmp_path):
        ds = generate_corpus(small_spec())
        path = tmp_path / "train.jsonl"
        write_examples_jsonl(path, ds.train)
        back = read_examples_jsonl(path)
        assert back == ds.train

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"id": "x", "question": ["a"], "passage": ["b"]}', "KeyError: 'answer'"),
            ('{"id": "x", "question": ["a"],', "not JSON"),
            (
                '{"id": "x", "question": ["a"], "passage": ["b"], "answer": {"start": 3, "end": 3, "text": "b"}}',
                "gold span outside passage",
            ),
        ],
    )
    def test_malformed_jsonl_line_refused(self, tmp_path, line, message):
        ds = generate_corpus(small_spec())
        path = tmp_path / "train.jsonl"
        write_examples_jsonl(path, ds.train[:1])
        path.write_text(path.read_text() + "\n" + line + "\n")
        with pytest.raises(CorpusError, match=message) as err:
            read_examples_jsonl(path)
        assert f"{path}:3:" in str(err.value)



def _reference_example(rng, spec, pools, ex_id):
    """``_generate_example`` as it was with one scalar draw per filler token:
    the reference that the one-draw version must match, draw for draw."""
    lo, hi = spec.answer_len_range
    pol = spec.distractors
    key = pools.keys[int(rng.integers(len(pools.keys)))]
    own = pools.values_by_key[key]
    ans_len = int(rng.integers(lo, hi + 1))
    answer = [own[i] for i in rng.choice(len(own), size=ans_len, replace=False)]

    other_keys = [k for k in pools.keys if k != key]
    decoy_keys = [other_keys[i] for i in rng.choice(len(other_keys), size=pol.full_decoys, replace=False)]
    blocks = [[key] + answer]
    for dk in decoy_keys:
        dlen = int(rng.integers(lo, hi + 1))
        dpool = pools.values_by_key[dk]
        dvals = [dpool[i] for i in rng.choice(len(dpool), size=dlen, replace=False)]
        blocks.append([dk] + dvals)

    n_prefix = pol.prefix_overlap_count
    n_suffix = pol.suffix_overlap_count if ans_len >= 2 else 0
    blocks.extend([answer[0]] for _ in range(n_prefix))
    blocks.extend([answer[-1]] for _ in range(n_suffix))

    total = sum(len(b) for b in blocks)
    if total > spec.passage_len:
        raise CorpusError(
            f"{ex_id}: answer plus distractors need {total} tokens, passage holds {spec.passage_len}"
        )

    order = rng.permutation(len(blocks))
    blocks = [blocks[i] for i in order]
    free = spec.passage_len - total
    gaps = rng.multinomial(free, np.full(len(blocks) + 1, 1.0 / (len(blocks) + 1)))

    passage = []
    gold_start = -1
    for gi, block in enumerate(blocks):
        for _ in range(int(gaps[gi])):
            passage.append(pools.filler[int(rng.integers(len(pools.filler)))])
        if block and block[0] == key:
            gold_start = len(passage) + 1
        passage.extend(block)
    for _ in range(int(gaps[-1])):
        passage.append(pools.filler[int(rng.integers(len(pools.filler)))])

    gold = Span(gold_start, gold_start + ans_len - 1, " ".join(answer))
    return Example(id=ex_id, question=(pools.question_word, key), passage=tuple(passage), gold=gold)


def _outcome(make, rng, spec, pools, ex_id):
    try:
        return make(rng, spec, pools, ex_id)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


def assert_same_stream(spec, count):
    """``count`` examples from ``_generate_example`` and from the reference,
    each from its own generator seeded alike: equal examples (or equal
    refusals), and equal generator states after every one. Returns the
    examples made."""
    try:
        _, pools = build_vocab(spec)
    except CorpusError:
        reject()  # refused before any draw
    ours, theirs = np.random.default_rng(spec.seed), np.random.default_rng(spec.seed)
    made = []
    for i in range(count):
        got = _outcome(_generate_example, ours, spec, pools, f"s{i}")
        want = _outcome(_reference_example, theirs, spec, pools, f"s{i}")
        assert got == want
        assert ours.bit_generator.state == theirs.bit_generator.state, f"state after example {i}"
        if isinstance(got, str):
            break
        made.append(got)
    return made, pools


def _filler_count(ex, pools):
    return sum(tok in pools.filler for tok in ex.passage)


class TestGeneratorStream:
    """``_generate_example`` draws all of an example's filler at once. The
    corpus keeps its bytes only because ``Generator.integers(n, size=m)``
    consumes the stream as m scalar draws do; these tests hold that."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab_size=st.integers(21, 300),
        passage_len=st.one_of(st.integers(2, 16), st.integers(2, 120)),
        answer_lo=st.integers(1, VALUES_PER_KEY),
        answer_span=st.integers(0, VALUES_PER_KEY - 1),
        policy=st.builds(DistractorPolicy, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    )
    def test_one_filler_draw_matches_per_token_draws(
        self, seed, vocab_size, passage_len, answer_lo, answer_span, policy
    ):
        lo = min(answer_lo, passage_len)
        answer_range = (lo, min(lo + answer_span, VALUES_PER_KEY, passage_len))
        spec = CorpusSpec(vocab_size=vocab_size, num_examples=3, passage_len=passage_len,
                          answer_len_range=answer_range, distractors=policy, seed=seed, num_dev=1, num_test=1)
        assert_same_stream(spec, 8)

    @pytest.mark.parametrize(
        "spec, holds",
        [
            # key and answer fill the passage: every example has free = 0
            (CorpusSpec(vocab_size=60, num_examples=3, passage_len=2, answer_len_range=(1, 1),
                        distractors=DistractorPolicy(0, 0, 0), seed=1, num_dev=1, num_test=1),
             lambda ex, pools: _filler_count(ex, pools) == 0),
            (CorpusSpec(vocab_size=60, num_examples=3, passage_len=30, answer_len_range=(1, 1), seed=2,
                        num_dev=1, num_test=1),
             lambda ex, pools: len(ex.gold) == 1),
            (CorpusSpec(vocab_size=60, num_examples=3, passage_len=30, distractors=DistractorPolicy(0, 0, 0),
                        seed=3, num_dev=1, num_test=1),
             lambda ex, pools: _filler_count(ex, pools) == len(ex.passage) - 1 - len(ex.gold)),
            # vocab_size 21 leaves the smallest filler pool build_vocab allows
            (CorpusSpec(vocab_size=21, num_examples=3, passage_len=40, distractors=DistractorPolicy(2, 2, 1),
                        seed=4, num_dev=1, num_test=1),
             lambda ex, pools: len(pools.filler) == 2 and _filler_count(ex, pools) > 0),
        ],
        ids=["no filler", "single-token answers", "no distractors", "two filler tokens"],
    )
    def test_edge_cases_match_per_token_draws(self, spec, holds):
        made, pools = assert_same_stream(spec, 40)
        assert len(made) == 40
        assert all(holds(ex, pools) for ex in made)

    def test_infeasible_example_refused_after_the_same_draws(self):
        spec = CorpusSpec(vocab_size=60, num_examples=3, passage_len=7, answer_len_range=(1, 4),
                          distractors=DistractorPolicy(1, 1, 1), seed=5, num_dev=1, num_test=1)
        made, _ = assert_same_stream(spec, 40)
        assert len(made) < 40


# sha256 of each saved file; a change here means numpy's Generator stream (or
# the generator) moved, and every corpus built from a seed with it.
PINNED_CORPORA = {
    "default seed 0": (
        CorpusSpec(seed=0),
        {
            "train.jsonl": "ea89f9d09854a17cc0fe3088ce0b4028c770255e4f022b50659456eed7e6b3d8",
            "dev.jsonl": "850b6bfd6edcbbbccfa8f95dc4ef8feed155d1dbab0f59457b5e4394b6d30762",
            "test.jsonl": "7ffb3a0d0f89f84913100868e798bd674d5eda7501255c7abc2e9e4d33de2b90",
        },
    ),
    "passage_len 120": (
        CorpusSpec(passage_len=120, num_examples=600, num_dev=100, num_test=100, seed=1),
        {
            "train.jsonl": "769d2ab4c404af5e3580877bc853070d42d6577815fd6d50d0cf51537c963c98",
            "dev.jsonl": "c7a62bfe758e025093323c3835d6ed51de7c0c23ec023e1e7e63c99b5c4810a4",
            "test.jsonl": "90018e5117cf9abd9f8cf284dc2c5ad8adf17b8ba0366726c0ecb22abdff67c2",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CORPORA))
def test_pinned_corpus_digests(tmp_path, name):
    spec, digests = PINNED_CORPORA[name]
    generate_corpus(spec).save(tmp_path)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in sorted(digests)}
    assert got == digests, f"{name} ({spec}): saved corpus bytes changed under numpy {np.__version__}"

# Every character str.isspace accepts, so contexts mix all kinds of whitespace.
_SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]
_CONTEXT = st.text(st.one_of(st.characters(), st.sampled_from(_SPACES)), max_size=40).filter(lambda t: t.split())


class TestSquad:
    def _fixture(self, tmp_path, context, answers):
        obj = {
            "version": "1.1",
            "data": [
                {
                    "title": "t",
                    "paragraphs": [
                        {
                            "context": context,
                            "qas": [
                                {"id": f"q{i}", "question": "what is it", "answers": [a]}
                                for i, a in enumerate(answers)
                            ],
                        }
                    ],
                }
            ],
        }
        path = tmp_path / "squad.json"
        path.write_text(json.dumps(obj))
        return path

    def test_aligned_answer(self, tmp_path):
        context = "the quick brown gold span here"
        start = context.index("gold")
        path = self._fixture(tmp_path, context, [{"text": "gold span", "answer_start": start}])
        examples, dropped = load_squad_json(path)
        assert dropped == 0
        assert examples[0].gold.positions == (3, 4)
        assert examples[0].gold.text == "gold span"

    def test_empty_data(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"data": []}))
        examples, dropped = load_squad_json(path)
        assert examples == [] and dropped == 0

    def test_mid_token_offset_dropped(self, tmp_path):
        context = "the quick brown gold span here"
        start = context.index("old")  # inside "gold"
        path = self._fixture(tmp_path, context, [{"text": "old span", "answer_start": start}])
        examples, dropped = load_squad_json(path)
        assert examples == [] and dropped == 1

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(context=_CONTEXT, data=st.data())
    def test_tokens_and_offsets_on_any_unicode(self, tmp_path, context, data):
        tokens = context.split()
        starts, pos = [], 0
        for tok in tokens:
            starts.append(context.index(tok, pos))
            pos = starts[-1] + len(tok)
        s = data.draw(st.integers(0, len(tokens) - 1))
        e = data.draw(st.integers(s, len(tokens) - 1))
        end = starts[e] + len(tokens[e])
        answers = [{"text": context[starts[s] : end], "answer_start": starts[s]}]
        long_tokens = [i for i, tok in enumerate(tokens) if len(tok) > 1]
        if long_tokens:
            i = data.draw(st.sampled_from(long_tokens))
            mid = starts[i] + data.draw(st.integers(1, len(tokens[i]) - 1))
            answers.append({"text": context[mid : starts[i] + len(tokens[i])], "answer_start": mid})
        examples, dropped = load_squad_json(self._fixture(tmp_path, context, answers))
        assert dropped == len(answers) - 1
        assert [ex.passage for ex in examples] == [tuple(tokens)]
        assert examples[0].gold.positions == (s, e)
        assert examples[0].gold.text == " ".join(tokens[s : e + 1])

    def test_malformed_schema_names_node(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"data": [{"paragraphs": [{"context": "x y"}]}]}))
        with pytest.raises(CorpusError) as err:
            load_squad_json(path)
        assert "data[0].paragraphs[0]" in str(err.value)


def tiny_vocab():
    return Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "a", "b", "c"])


# Arbitrary Unicode tokens, mixed case included; encode refuses whitespace.
_TOKEN = st.text(min_size=1, max_size=4).filter(lambda t: t.split() == [t])


class TestEncode:
    def test_direct_layout(self):
        ex = Example(id="e", question=("a",), passage=("b", "c"), gold=Span(1, 1, "c"))
        enc = encode(ex, tiny_vocab(), max_len=6)
        assert enc.token_ids.tolist() == [2, 4, 3, 5, 6, 3]
        assert enc.passage_region == (3, 4)
        assert enc.question_region == (1, 1)
        assert enc.gold_in_sequence.positions == (4, 4)
        assert enc.usable

    def test_truncated_gold_flagged(self):
        ex = Example(id="e", question=("a",), passage=("b", "c"), gold=Span(1, 1, "c"))
        enc = encode(ex, tiny_vocab(), max_len=5)
        assert not enc.usable
        assert enc.gold_in_sequence is None

    def test_too_small_max_len_rejected(self):
        ex = Example(id="e", question=("a",), passage=("b",), gold=Span(0, 0, "b"))
        with pytest.raises(CorpusError):
            encode(ex, tiny_vocab(), max_len=4)

    def test_negative_question_max_len_refused(self):
        ex = Example(id="e", question=("what", "a"), passage=("b",), gold=Span(0, 0, "b"))
        with pytest.raises(CorpusError, match="question_max_len"):
            encode(ex, tiny_vocab(), max_len=8, question_max_len=-1)

    def test_ids_hold_only_the_real_tokens(self):
        # max_len caps the layout; a shorter one is not padded up to it
        ex = Example(id="e", question=("a",), passage=("b",), gold=Span(0, 0, "b"))
        enc = encode(ex, tiny_vocab(), max_len=8)
        assert enc.token_ids.tolist() == [2, 4, 3, 5, 3]
        assert enc.length == 5

    def test_unknown_token_maps_to_unk(self):
        ex = Example(id="e", question=("zzz",), passage=("b",), gold=Span(0, 0, "b"))
        enc = encode(ex, tiny_vocab(), max_len=6)
        assert enc.token_ids[1] == 1

    @pytest.mark.parametrize("token", ["", "a b", "tab\there", "nb\u00a0sp", "\u2003"])
    def test_empty_or_whitespace_token_refused(self, token):
        ex = Example(id="ws7", question=("a",), passage=("b", token, "c"), gold=Span(0, 0, "b"))
        with pytest.raises(CorpusError, match="ws7"):
            encode(ex, tiny_vocab(), max_len=10)

    def test_keys_ignore_case_only(self):
        ex = Example(id="e", question=("a",), passage=("b", "B", "c", "b"), gold=Span(0, 0, "b"))
        assert encode(ex, tiny_vocab(), max_len=10).passage_keys.tolist() == [0, 0, 1, 0]

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.lists(_TOKEN, min_size=1, max_size=3),
        b=st.lists(_TOKEN, min_size=1, max_size=3),
        recase=st.booleans(),
    )
    def test_key_windows_equal_iff_normalized_text_equal(self, a, b, recase):
        if recase:  # make the equal case common: the same tokens, case swapped
            b = [t.swapcase() for t in a]
        passage = tuple(a + b)
        ex = Example(id="h", question=("q",), passage=passage, gold=Span(0, len(a) - 1, " ".join(a)))
        keys = encode(ex, tiny_vocab(), max_len=len(passage) + 4).passage_keys
        keys_equal = len(a) == len(b) and keys[: len(a)].tolist() == keys[len(a) :].tolist()
        assert keys_equal == (normalize(" ".join(a)) == normalize(" ".join(b)))

    @settings(max_examples=300, deadline=None)
    @given(
        q_len=st.integers(0, 3),
        p_len=st.integers(1, 6),
        slack=st.sampled_from([-1, 0, 1]),
        question_max_len=st.sampled_from([0, 64]),
        data=st.data(),
    )
    def test_edge_lengths(self, q_len, p_len, slack, question_max_len, data):
        # max_len one below, at and one above what the kept question and the
        # whole passage need: the passage loses its last token or fits
        start = data.draw(st.integers(0, p_len - 1))
        end = data.draw(st.integers(start, p_len - 1))
        passage = tuple("abc"[i % 3] for i in range(p_len))
        gold = Span(start, end, " ".join(passage[start : end + 1]))
        ex = Example(id="edge", question=("a",) * q_len, passage=passage, gold=gold)
        kept_q = min(q_len, question_max_len)
        max_len = kept_q + p_len + 3 + slack
        if max_len - kept_q - 3 < 1:
            with pytest.raises(CorpusError, match="max_len"):
                encode(ex, tiny_vocab(), max_len, question_max_len)
            return
        enc = encode(ex, tiny_vocab(), max_len, question_max_len)
        kept_p = min(p_len, max_len - kept_q - 3)
        assert len(enc.token_ids) == enc.length == kept_q + kept_p + 3 <= max_len
        (q0, q1), (p0, p1) = enc.question_region, enc.passage_region
        assert (q0, q1 - q0 + 1) == (1, kept_q)
        assert (p0, p1 - p0 + 1) == (kept_q + 2, kept_p)
        assert 0 < q0 and q1 < p0 <= p1 < enc.length - 1
        assert enc.usable == (end < kept_p) == (enc.gold_in_sequence is not None)
        if enc.usable:
            assert p0 <= enc.gold_in_sequence.start <= enc.gold_in_sequence.end <= p1
        else:
            assert enc.gold_in_sequence is None

    def test_roundtrip_over_generated_corpus(self):
        ds = generate_corpus(small_spec(num_examples=120, num_dev=10, num_test=10))
        for ex in ds.train:
            enc = encode(ex, ds.vocab, max_len=64)
            q, p = decode(enc, ds.vocab)
            assert tuple(q) == ex.question
            assert tuple(p) == ex.passage
            assert enc.gold_in_sequence.text == ex.gold.text
            p0, p1 = enc.passage_region
            assert p0 <= enc.gold_in_sequence.start <= enc.gold_in_sequence.end <= p1


class TestEncodedExample:
    def _enc(self):
        ex = Example(id="m9", question=("a",), passage=("b", "c"), gold=Span(1, 1, "c"))
        return encode(ex, tiny_vocab(), max_len=8)

    def test_keeps_length_and_largest_id(self):
        enc = self._enc()
        assert (enc.length, enc.max_token_id) == (6, 6)

    @pytest.mark.parametrize("ids", [np.zeros(0, dtype=np.int64), np.array([[2, 4, 3], [5, 6, 3]])])
    def test_ids_empty_or_not_1d_refused(self, ids):
        with pytest.raises(CorpusError, match="m9: token ids must be 1-d and non-empty"):
            replace(self._enc(), token_ids=ids)

    def test_negative_real_id_refused(self):
        with pytest.raises(CorpusError, match="m9: negative token id -2"):
            replace(self._enc(), token_ids=np.array([2, 4, 3, -2, 6, 3]))

    def test_span_text_outside_region_names_the_example(self):
        enc = self._enc()
        with pytest.raises(ValueError, match=r"^m9: span \(1, 4\) outside passage region \(3, 4\)"):
            span_text(enc, 1, 4)

    def test_usable_reads_the_gold(self):
        enc = self._enc()
        assert enc.usable
        assert not replace(enc, gold_in_sequence=None).usable

    def test_arrays_are_read_only_copies(self):
        enc = self._enc()
        with pytest.raises(ValueError, match="read-only"):
            enc.token_ids[1] = 5
        ids = enc.token_ids.copy()
        kept = replace(enc, token_ids=ids)
        ids[4] = 99
        assert kept.token_ids.tolist() == enc.token_ids.tolist() and kept.max_token_id == 6


class TestVocab:
    def test_save_load(self, tmp_path):
        v = tiny_vocab()
        v.save(tmp_path / "vocab.txt")
        v2 = Vocab.load(tmp_path / "vocab.txt")
        assert len(v2) == len(v)
        assert v2.id("c") == v.id("c")

    def test_specials_enforced(self):
        with pytest.raises(CorpusError):
            Vocab(["a", "b", "c", "d"])
