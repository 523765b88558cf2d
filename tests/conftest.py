"""Shared fixtures: hand-built encodings and traces with chosen logits."""

import numpy as np
import pytest

from spanforge.corpus import EncodedExample, Span
from spanforge.encoder import ForwardTrace
from spanforge.numeric import MASK_VALUE, region_softmax


def make_enc(passage_tokens, question_tokens=("what", "k"), ex_id="fx"):
    """Build an EncodedExample without a vocabulary; ids are synthetic."""
    q = list(question_tokens)
    p = list(passage_tokens)
    ids = [2] + [10 + i for i in range(len(q))] + [3] + [100 + i for i in range(len(p))] + [3]
    p_first = len(q) + 2
    gold = Span(p_first, p_first, p[0])
    return EncodedExample(
        id=ex_id,
        token_ids=np.asarray(ids, dtype=np.int64),
        question_region=(1, len(q)),
        passage_region=(p_first, p_first + len(p) - 1),
        gold_in_sequence=gold,
        passage_tokens=tuple(p),
    )


def fake_trace(enc, start_region_logits, end_region_logits, d_model=4):
    """ForwardTrace with chosen passage-region logits; activations are dummies."""
    n = enc.length
    p0, p1 = enc.passage_region
    sl = np.full(n, MASK_VALUE)
    el = np.full(n, MASK_VALUE)
    sl[p0 : p1 + 1] = np.asarray(start_region_logits, dtype=np.float64)
    el[p0 : p1 + 1] = np.asarray(end_region_logits, dtype=np.float64)
    zeros = np.zeros((n, d_model))
    start_probs, start_logprobs = region_softmax(sl, p0, p1)
    end_probs, end_logprobs = region_softmax(el, p0, p1)
    return ForwardTrace(
        enc=enc,
        h0=zeros,
        qm=zeros,
        km=zeros,
        vm=zeros,
        attn=np.zeros((n, n)),
        h1=zeros,
        ffn_pre=np.zeros((n, 1)),
        ffn_act=np.zeros((n, 1)),
        token_reprs=zeros,
        start_logits=sl,
        end_logits=el,
        start_probs=start_probs,
        end_probs=end_probs,
        start_logprobs=start_logprobs,
        end_logprobs=end_logprobs,
    )


@pytest.fixture
def enc4():
    return make_enc(["p0", "p1", "p2", "p3"])
