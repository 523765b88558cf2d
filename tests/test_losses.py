import math

import numpy as np
import pytest

from conftest import fake_trace, make_enc
from spanforge.corpus import Span
from spanforge.losses import (
    LossConfig,
    ce_loss,
    ce_loss_grads,
    combined_loss,
    contrastive_loss,
    contrastive_loss_grads,
    hard_loss,
    hard_loss_grads,
    mml_loss,
    mml_loss_grads,
    span_log_prob,
)

def region_span(enc, i, j):
    p0, _ = enc.passage_region
    return Span(p0 + i, p0 + j, " ".join(enc.passage_tokens[i : j + 1]))


def uniform_trace(enc):
    width = enc.passage_region[1] - enc.passage_region[0] + 1
    return fake_trace(enc, np.zeros(width), np.zeros(width))


class TestSpanLogProb:
    def test_uniform(self, enc4):
        tr = uniform_trace(enc4)
        got = span_log_prob(tr, region_span(enc4, 0, 1))
        assert abs(got - 2 * math.log(1 / 4)) <= 1e-12

    def test_closed_form_half_quarter(self):
        # start prob 0.5 at slot 0, end prob 0.25 at slot 1
        enc = make_enc(["a", "b", "c", "d"])
        start = np.log(np.array([0.5, 0.3, 0.1, 0.1]))
        end = np.log(np.array([0.25, 0.25, 0.25, 0.25]))
        tr = fake_trace(enc, start, end)
        got = span_log_prob(tr, region_span(enc, 0, 1))
        assert abs(got - math.log(0.125)) <= 1e-12

    def test_total_mass_over_all_pairs(self, enc4):
        rng = np.random.default_rng(0)
        tr = fake_trace(enc4, rng.normal(size=4), rng.normal(size=4))
        p0, p1 = enc4.passage_region
        total = sum(
            math.exp(tr.start_logprobs[i] + tr.end_logprobs[j])
            for i in range(p0, p1 + 1)
            for j in range(p0, p1 + 1)
        )
        assert abs(total - 1.0) <= 1e-9

    def test_out_of_region_rejected(self, enc4):
        tr = uniform_trace(enc4)
        with pytest.raises(ValueError):
            span_log_prob(tr, Span(0, 0, "[CLS]"))


class TestCE:
    def test_probability_one_gives_zero(self):
        enc = make_enc(["a", "b"])
        tr = fake_trace(enc, [50.0, -50.0], [50.0, -50.0])
        assert ce_loss(tr, region_span(enc, 0, 0)) <= 1e-12

    def test_uniform_over_12(self):
        enc = make_enc([f"p{i}" for i in range(12)])
        tr = uniform_trace(enc)
        got = ce_loss(tr, region_span(enc, 3, 5))
        assert abs(got - 2 * math.log(12)) <= 1e-12

    def test_grads_shape_and_sign(self, enc4):
        tr = uniform_trace(enc4)
        gold = region_span(enc4, 1, 2)
        loss, d_slp, d_elp = ce_loss_grads(tr, gold)
        assert loss == ce_loss(tr, gold)
        assert d_slp[gold.start] == -1.0 and d_elp[gold.end] == -1.0
        assert d_slp.sum() == -1.0 and d_elp.sum() == -1.0

    def test_loss_bitwise_equals_the_gather(self):
        rng = np.random.default_rng(11)
        enc = make_enc([f"p{i}" for i in range(9)])
        for _ in range(50):
            tr = fake_trace(enc, rng.normal(size=9) * 5, rng.normal(size=9) * 5)
            i = int(rng.integers(9))
            gold = region_span(enc, i, min(8, i + int(rng.integers(3))))
            loss, _, _ = ce_loss_grads(tr, gold)
            assert loss == -span_log_prob(tr, gold) == hard_loss(tr, [gold], np.zeros(1))

    @pytest.mark.parametrize("where", ["question", "past the passage"])
    def test_out_of_region_refused(self, enc4, where):
        p0, p1 = enc4.passage_region
        span = Span(p0 - 1, p0, "k p0") if where == "question" else Span(p1, p1 + 1, "p3 [SEP]")
        with pytest.raises(ValueError, match=rf"^{enc4.id}: span \({span.start}, {span.end}\) outside passage region"):
            ce_loss_grads(uniform_trace(enc4), span)


class TestMML:
    def test_closed_form(self, enc4):
        # candidates (0,0) and (0,1) with probabilities 0.5 and 0.25:
        # ps[0] = 3/4, pe = (2/3, 1/3) puts exactly those masses on them
        ps = np.array([0.75, 0.25 / 3, 0.25 / 3, 0.25 / 3])
        pe = np.array([2 / 3, 1 / 3 - 2e-12, 1e-12, 1e-12])
        tr = fake_trace(enc4, np.log(ps), np.log(pe))
        z = [region_span(enc4, 0, 0), region_span(enc4, 0, 1)]
        got = mml_loss(tr, z)
        assert abs(got - (-math.log(0.75))) <= 1e-9

    def test_full_candidate_space_gives_zero(self, enc4):
        rng = np.random.default_rng(3)
        tr = fake_trace(enc4, rng.normal(size=4), rng.normal(size=4))
        p0, p1 = enc4.passage_region
        allspans = [
            Span(i, j, "t")
            for i in range(p0, p1 + 1)
            for j in range(p0, p1 + 1)
            if j >= i
        ]
        # add the lower-triangle mass by symmetry: sum over i<=j misses i>j pairs,
        # so instead check against the directly-computed log total mass
        lps = [tr.start_logprobs[s.start] + tr.end_logprobs[s.end] for s in allspans]
        expect = -np.log(np.exp(lps).sum())
        assert abs(mml_loss(tr, allspans) - expect) <= 1e-12

    def test_never_exceeds_best_candidate(self, enc4):
        rng = np.random.default_rng(4)
        for _ in range(200):
            tr = fake_trace(enc4, rng.normal(size=4), rng.normal(size=4))
            z = [region_span(enc4, 0, 0), region_span(enc4, 1, 2), region_span(enc4, 3, 3)]
            best = min(-span_log_prob(tr, s) for s in z)
            assert mml_loss(tr, z) <= best + 1e-12

    def test_empty_rejected(self, enc4):
        with pytest.raises(ValueError):
            mml_loss(uniform_trace(enc4), [])


class TestHard:
    def test_uniform_weights_average_ce(self, enc4):
        rng = np.random.default_rng(5)
        tr = fake_trace(enc4, rng.normal(size=4), rng.normal(size=4))
        z = [region_span(enc4, 0, 1), region_span(enc4, 2, 2)]
        got = hard_loss(tr, z, np.zeros(2))
        expect = 0.5 * (-span_log_prob(tr, z[0]) - span_log_prob(tr, z[1]))
        assert abs(got - expect) <= 1e-12

    def test_saturated_weight_approaches_single_ce(self, enc4):
        rng = np.random.default_rng(6)
        tr = fake_trace(enc4, rng.normal(size=4), rng.normal(size=4))
        z = [region_span(enc4, 0, 0), region_span(enc4, 1, 1), region_span(enc4, 2, 2)]
        u = np.array([30.0, 0.0, 0.0])
        assert abs(hard_loss(tr, z, u) - ce_loss(tr, z[0])) <= 1e-9

    def test_single_candidate_is_ce(self, enc4):
        tr = uniform_trace(enc4)
        z = [region_span(enc4, 1, 2)]
        assert hard_loss(tr, z, np.zeros(1)) == ce_loss(tr, z[0])

    def test_length_mismatch_rejected(self, enc4):
        with pytest.raises(ValueError):
            hard_loss(uniform_trace(enc4), [region_span(enc4, 0, 0)], np.zeros(2))

    def test_u_gradient_matches_finite_diff(self, enc4):
        from spanforge.numeric import finite_diff_grad, max_rel_error

        rng = np.random.default_rng(7)
        tr = fake_trace(enc4, rng.normal(size=4), rng.normal(size=4))
        z = [region_span(enc4, 0, 0), region_span(enc4, 1, 2), region_span(enc4, 3, 3)]
        u0 = rng.normal(size=3)
        _, _, _, d_u = hard_loss_grads(tr, z, u0)
        numeric = finite_diff_grad(lambda u: hard_loss(tr, z, u), u0, eps=1e-6)
        assert max_rel_error(d_u, numeric) <= 1e-6


def reference_span_grads(trace, spans, weights):
    """Per-span loop scatter of -weights onto the start/end log-prob vectors."""
    d_slp = np.zeros(trace.length)
    d_elp = np.zeros(trace.length)
    for wl, s in zip(weights, spans):
        d_slp[s.start] -= wl
        d_elp[s.end] -= wl
    return d_slp, d_elp


class TestSpanGatherBitwise:
    """The array gather and scatter against per-span loops, with repeated positions."""

    def _case(self, seed):
        enc = make_enc([f"p{i}" for i in range(5)])
        rng = np.random.default_rng(seed)
        tr = fake_trace(enc, rng.normal(size=5), rng.normal(size=5))
        # starts 0 and 1 and ends 2 and 4 each repeat, so a fancy-index
        # assignment that keeps one update per position gives other numbers
        pairs = [(0, 2), (0, 0), (1, 2), (0, 4), (1, 4), (2, 2), (1, 1), (3, 4)]
        return tr, [region_span(enc, i, j) for i, j in pairs]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hard_loss_grads(self, seed):
        tr, z = self._case(seed)
        u = np.random.default_rng(seed + 10).normal(size=len(z))
        loss, d_slp, d_elp, d_u = hard_loss_grads(tr, z, u)
        e = np.exp(u - u.max())
        w = e / e.sum()
        ell = -np.array([tr.start_logprobs[s.start] + tr.end_logprobs[s.end] for s in z])
        ref_loss = float((w * ell).sum())
        ref_slp, ref_elp = reference_span_grads(tr, z, w)
        assert loss == ref_loss and hard_loss(tr, z, u) == ref_loss
        np.testing.assert_array_equal(d_slp, ref_slp)
        np.testing.assert_array_equal(d_elp, ref_elp)
        np.testing.assert_array_equal(d_u, w * (ell - ref_loss))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mml_loss_grads(self, seed):
        tr, z = self._case(seed)
        loss, d_slp, d_elp = mml_loss_grads(tr, z)
        lps = np.array([tr.start_logprobs[s.start] + tr.end_logprobs[s.end] for s in z])
        m = lps.max()
        lse = m + np.log(np.exp(lps - m).sum())
        ref_slp, ref_elp = reference_span_grads(tr, z, np.exp(lps - lse))
        assert loss == float(-lse) and mml_loss(tr, z) == float(-lse)
        np.testing.assert_array_equal(d_slp, ref_slp)
        np.testing.assert_array_equal(d_elp, ref_elp)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scatter_bytes_equal_subtract_at(self, seed):
        # 40 candidates over a 5-token passage repeat each position many
        # times; the gradients must keep the bytes of np.subtract.at on zeros
        enc = make_enc([f"p{i}" for i in range(5)])
        rng = np.random.default_rng(seed)
        tr = fake_trace(enc, rng.normal(size=5), rng.normal(size=5))
        ends = rng.integers(0, 5, size=40)
        z = [region_span(enc, int(rng.integers(0, j + 1)), int(j)) for j in ends]
        u = rng.normal(size=len(z)) * 3
        e = np.exp(u - u.max())
        w = e / e.sum()
        starts = np.array([s.start for s in z])
        stops = np.array([s.end for s in z])

        def subtract_at(positions, weights):
            out = np.zeros(tr.length)
            np.subtract.at(out, positions, weights)
            return out.tobytes()

        _, d_slp, d_elp, _ = hard_loss_grads(tr, z, u)
        assert (d_slp.tobytes(), d_elp.tobytes()) == (subtract_at(starts, w), subtract_at(stops, w))
        lps = tr.start_logprobs[starts] + tr.end_logprobs[stops]
        m = lps.max()
        posterior = np.exp(lps - (m + np.log(np.exp(lps - m).sum())))
        _, d_slp, d_elp = mml_loss_grads(tr, z)
        assert (d_slp.tobytes(), d_elp.tobytes()) == (subtract_at(starts, posterior), subtract_at(stops, posterior))

    def test_out_of_region_candidate_rejected(self, enc4):
        z = [region_span(enc4, 0, 0), Span(0, 0, "[CLS]")]
        with pytest.raises(ValueError):
            hard_loss_grads(uniform_trace(enc4), z, np.zeros(2))
        with pytest.raises(ValueError):
            mml_loss_grads(uniform_trace(enc4), z)


class TestDegeneracies:
    def test_single_gold_candidate_all_equal(self, enc4):
        rng = np.random.default_rng(8)
        tr = fake_trace(enc4, rng.normal(size=4), rng.normal(size=4))
        gold = region_span(enc4, 1, 2)
        ce = ce_loss(tr, gold)
        assert abs(mml_loss(tr, [gold]) - ce) <= 1e-12
        assert abs(hard_loss(tr, [gold], np.zeros(1)) - ce) <= 1e-12


class TestContrastive:
    def test_closed_form_orthogonal_negative(self):
        rq = np.array([1.0, 0.0])
        rh = np.array([0.0, 1.0])
        got = contrastive_loss([(rq, rq.copy(), rh)], tau=1.0)
        expect = -math.log(math.e / (math.e + 1.0))
        assert abs(got - expect) <= 1e-12

    def test_negative_equal_to_gold_gives_ln2(self):
        rq = np.array([0.3, -0.7, 0.2])
        rg = np.array([1.0, 2.0, 3.0])
        for tau in (0.5, 1.0, 10.0):
            got = contrastive_loss([(rq, rg, rg.copy())], tau=tau)
            assert abs(got - math.log(2.0)) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        batch = [
            (rng.normal(size=5), rng.normal(size=5), rng.normal(size=5)) for _ in range(3)
        ]
        a = contrastive_loss(batch, tau=10.0)
        scaled = [(3.0 * q, 3.0 * g, 3.0 * h) for q, g, h in batch]
        b = contrastive_loss(scaled, tau=10.0)
        assert abs(a - b) <= 1e-12

    def test_multiple_hard_negatives_enlarge_denominator(self):
        rng = np.random.default_rng(10)
        rq, rg = rng.normal(size=4), rng.normal(size=4)
        h1, h2 = rng.normal(size=4), rng.normal(size=4)
        one = contrastive_loss([(rq, rg, [h1])], tau=1.0)
        two = contrastive_loss([(rq, rg, [h1, h2])], tau=1.0)
        assert two > one

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss([(np.zeros(3), np.ones(3), np.ones(3))], tau=1.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss([], tau=1.0)

    def test_grads_match_finite_diff(self):
        from spanforge.numeric import finite_diff_grad, max_rel_error

        rng = np.random.default_rng(11)
        dim = 4
        sizes = (3, 2, 4)  # question, gold, then 1, 0 and 2 hard negatives
        flat0 = rng.normal(size=sum(sizes) * dim)

        def unpack(flat):
            return np.split(flat.reshape(-1, dim), np.cumsum(sizes)[:-1])

        value, d_rows = contrastive_loss_grads(unpack(flat0), tau=2.0)
        assert [d.shape for d in d_rows] == [(n, dim) for n in sizes]
        analytic = np.concatenate([d.ravel() for d in d_rows])
        numeric = finite_diff_grad(lambda f: contrastive_loss_grads(unpack(f), tau=2.0)[0], flat0, eps=1e-6)
        assert max_rel_error(analytic, numeric) <= 1e-6

    @pytest.mark.parametrize("form", ["none", "vector", "empty_list", "list", "array"])
    def test_tuple_forms_equal_stacked_rows_bitwise(self, form):
        rng = np.random.default_rng(15)
        q, g, other_q, other_g = rng.normal(size=(4, 5))
        hards = rng.normal(size=(2, 5))
        given, stacked = {
            "none": (None, hards[:0]),
            "vector": (hards[0], hards[:1]),
            "empty_list": ([], hards[:0]),
            "list": (list(hards), hards),
            "array": (hards, hards),
        }[form]
        batch = [(q, g, given), (other_q, other_g, hards)]
        rows = [np.vstack([q, g, stacked]), np.vstack([other_q, other_g, hards])]
        assert contrastive_loss(batch, tau=3.0) == contrastive_loss_grads(rows, tau=3.0)[0]


def reference_contrastive_loss_grads(batch, tau):
    """Per-pair double loop over every (question, member) cosine: the
    independent reference for the matrix form."""

    def unclipped_cosine(u, v):
        nu = float(np.linalg.norm(u))
        nv = float(np.linalg.norm(v))
        if nu == 0.0 or nv == 0.0:
            raise ValueError("zero-norm representation in contrastive loss")
        return float(np.dot(u, v) / (nu * nv))

    def cosine_grads(u, v):
        nu = float(np.linalg.norm(u))
        nv = float(np.linalg.norm(v))
        psi = float(np.dot(u, v) / (nu * nv))
        return v / (nu * nv) - psi * u / (nu * nu), u / (nu * nv) - psi * v / (nv * nv)

    items = [(np.asarray(q, dtype=np.float64), np.asarray(g, dtype=np.float64), list(h)) for q, g, h in batch]
    B = len(items)
    d_q = [np.zeros_like(q) for q, _, _ in items]
    d_g = [np.zeros_like(g) for _, g, _ in items]
    d_h = [[np.zeros_like(h) for h in hards] for _, _, hards in items]
    total = 0.0
    for i, (rq, rg, hards) in enumerate(items):
        # members[0] is the positive pair; (kind, owner, t) addresses the gradient
        members = [(rg, "gold", i, -1)]
        members += [(rh, "hard", i, t) for t, rh in enumerate(hards)]
        members += [(items[n][1], "gold", n, -1) for n in range(B) if n != i]
        sims = np.array([unclipped_cosine(rq, vec) for vec, _, _, _ in members]) / tau
        m = sims.max()
        lse = m + np.log(np.exp(sims - m).sum())
        total += float(-sims[0] + lse)
        coeff = np.exp(sims - lse)
        coeff[0] -= 1.0
        for (vec, kind, owner, t), c in zip(members, coeff):
            dq, dv = cosine_grads(rq, vec)
            d_q[i] += (c / tau) * dq
            if kind == "gold":
                d_g[owner] += (c / tau) * dv
            else:
                d_h[owner][t] += (c / tau) * dv
    return total / B, [(q / B, g / B, [h / B for h in hs]) for q, g, hs in zip(d_q, d_g, d_h)]


class TestContrastiveMatrixForm:
    @pytest.mark.parametrize("B", [1, 2, 7])
    @pytest.mark.parametrize("theta", [1, 3])
    def test_matches_per_pair_reference(self, B, theta):
        rng = np.random.default_rng(100 * B + theta)
        for trial in range(5):
            dim = int(rng.integers(2, 9))
            # unequal hard counts: theta, fewer than theta, or none at all
            counts = [theta] + [int(rng.integers(0, theta + 1)) for _ in range(B - 1)]
            batch = [
                (rng.normal(size=dim) * rng.uniform(0.1, 5.0), rng.normal(size=dim), [rng.normal(size=dim) for _ in range(c)])
                for c in counts
            ]
            tau = float(rng.uniform(0.5, 20.0))
            value, d_rows = contrastive_loss_grads([np.vstack([q, g, *hs]) for q, g, hs in batch], tau)
            ref_value, ref_grads = reference_contrastive_loss_grads(batch, tau)
            assert abs(value - ref_value) <= 1e-12
            for got, (dq, dg, dhs) in zip(d_rows, ref_grads):
                assert got.shape == (2 + len(dhs), dim)
                np.testing.assert_allclose(got[0], dq, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got[1], dg, rtol=0, atol=1e-12)
                for gh, rh in zip(got[2:], dhs):
                    np.testing.assert_allclose(gh, rh, rtol=0, atol=1e-12)

    def test_zero_norm_hard_rejected(self):
        rows = [np.array([np.ones(3), np.ones(3), np.ones(3), np.zeros(3)]), np.array([np.ones(3), -np.ones(3)])]
        with pytest.raises(ValueError, match="zero-norm"):
            contrastive_loss_grads(rows, tau=1.0)


class TestCombined:
    def test_extremes_and_midpoint(self):
        assert combined_loss(0.3, 0.7, 0.0) == 0.7
        assert combined_loss(0.3, 0.7, 1.0) == 0.3
        assert combined_loss(0.3, 0.7, 0.5) == 0.5

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            combined_loss(0.1, 0.1, 1.5)


class TestOrdering:
    def test_mml_min_hard_ordering_and_nonnegativity(self, enc4):
        rng = np.random.default_rng(12)
        for _ in range(200):
            tr = fake_trace(enc4, rng.normal(size=4), rng.normal(size=4))
            z = [region_span(enc4, 0, 0), region_span(enc4, 1, 1), region_span(enc4, 2, 3)]
            min_neg = min(-span_log_prob(tr, s) for s in z)
            m = mml_loss(tr, z)
            assert m >= -1e-12
            assert m <= min_neg + 1e-9
            for _ in range(5):
                w = rng.dirichlet(np.ones(3))
                u = np.log(w)
                h = hard_loss(tr, z, u)
                assert h >= 0.0
                assert min_neg <= h + 1e-9

    def test_contrastive_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            batch = [(rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)) for _ in range(2)]
            assert contrastive_loss(batch, tau=float(rng.uniform(0.5, 20))) >= 0.0


def test_loss_config_defaults_and_validation():
    cfg = LossConfig()
    assert (cfg.tau, cfg.alpha, cfg.k_frozen, cfg.k_dynamic) == (10.0, 0.5, 20, 50)
    with pytest.raises(ValueError):
        LossConfig(tau=0.0)
    with pytest.raises(ValueError):
        LossConfig(alpha=1.5)
