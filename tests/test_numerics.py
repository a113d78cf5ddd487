"""Tests for deterministic RNG streams and stable vector primitives."""

import math

import numpy as np
import pytest

from fedcalib.errors import DegenerateInputError, InvalidInputError
from fedcalib.numerics import (
    RngStream,
    derive_id,
    dirichlet_sample,
    l2_normalize_rows,
    multinomial_split,
    softmax_rows,
)

from oracles import naive_bernoulli_rows, naive_log_gamma, naive_normal


def gamma(stream, alpha, n):
    """Gamma(alpha, 1) draws from the log-space sampler (may underflow to 0 for tiny alpha)."""
    return np.exp(stream.log_gamma(alpha, n))


def softmax(v):
    """``softmax_rows`` of the one-row matrix ``[v]``."""
    return softmax_rows([v])[0]


def l2_normalize(v):
    """``l2_normalize_rows`` of the one-row matrix ``[v]``."""
    return l2_normalize_rows([v])[0]


class TestRngStream:
    def test_replay_is_byte_identical(self):
        for seed, sid in [(0, 0), (42, 7), (2**64 - 1, 123456789)]:
            a = RngStream(seed, sid)
            b = RngStream(seed, sid)
            assert a.u64(100).tobytes() == b.u64(100).tobytes()
            assert a.normal(51).tobytes() == b.normal(51).tobytes()
            assert gamma(a, 0.3, 40).tobytes() == gamma(b, 0.3, 40).tobytes()

    def test_distinct_streams_differ(self):
        a = RngStream(42, 1).u64(64)
        b = RngStream(42, 2).u64(64)
        c = RngStream(43, 1).u64(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_independence_smoke(self):
        # neighbouring stream ids should be uncorrelated
        x = RngStream(9, 100).random(20000)
        y = RngStream(9, 101).random(20000)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.03

    def test_chunked_draws_match_one_shot(self):
        a = RngStream(5, 5)
        chunks = np.concatenate([a.u64(3), a.u64(4), a.u64(13)])
        assert np.array_equal(chunks, RngStream(5, 5).u64(20))

    @pytest.mark.parametrize("p", [0.75, 0.5, 1e-3, 1.0, 0.1 + 0.2])
    def test_bernoulli_rows_match_each_stream(self, p):
        # streams at different counters, large seeds and ids (u64 wrap-around)
        for n in (0, 1, 5, 4096):
            streams = [RngStream(2**64 - 1 - i, 2**63 + 7 * i) for i in range(5)]
            replay = [RngStream(2**64 - 1 - i, 2**63 + 7 * i) for i in range(5)]
            for a, b, skip in zip(streams, replay, (0, 3, 0, 11, 1)):
                a.random(skip)
                b.random(skip)
            rows = RngStream.bernoulli_rows(streams, [n] * 5, p)
            assert rows.shape == (5, n) and rows.dtype == bool
            for row, stream in zip(rows, replay):
                assert np.array_equal(row, stream.random(n) < p)
            # every stream advanced by exactly n draws
            assert [s.u64(2).tobytes() for s in streams] == [s.u64(2).tobytes() for s in replay]

    @pytest.mark.parametrize("p", [0.75, 1e-3, 1.0])
    def test_bernoulli_rows_with_a_count_per_stream_match_the_oracle(self, p):
        for counts in ([3, 0, 17, 17, 1], [4096, 5, 0, 4097, 2], [0, 0]):
            def fresh():
                streams = [RngStream(2**64 - 3 - i, 2**62 + 5 * i) for i in range(len(counts))]
                for stream, skip in zip(streams, (0, 2, 9, 0, 1)):
                    stream.random(skip)
                return streams

            streams, replay = fresh(), fresh()
            rows = RngStream.bernoulli_rows(streams, counts, p)
            want = naive_bernoulli_rows(replay, counts, p)
            assert rows.dtype == bool and rows.shape == want.shape == (len(counts), max(counts))
            assert np.array_equal(rows, want)
            # each stream advanced by its own count
            assert [s.u64(2).tobytes() for s in streams] == [s.u64(2).tobytes() for s in replay]

    def test_bernoulli_threshold_is_exact_at_a_draw(self):
        # p equal to a stream's first draw: that draw is not below p, and the
        # next representable p above it is
        u = RngStream(6, 6).random(1)[0]
        assert not RngStream.bernoulli_rows([RngStream(6, 6)], [1], u)[0, 0]
        assert RngStream.bernoulli_rows([RngStream(6, 6)], [1], np.nextafter(u, 1.0))[0, 0]

    def test_uniform_range(self):
        u = RngStream(1).random(100000)
        assert u.min() >= 0.0 and u.max() < 1.0
        uo = RngStream(1).random_open(100000)
        assert uo.min() > 0.0 and uo.max() <= 1.0

    def test_normal_moments(self):
        z = RngStream(2).normal(200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_normal_matches_two_uniform_draws(self, n, scale):
        # one u64 block of 2 * pairs is the random_open(pairs) then random(pairs) of a twin stream
        fused, twin = RngStream(12, n), RngStream(12, n)
        assert fused.normal(n, scale=scale).tobytes() == naive_normal(twin, n, scale=scale).tobytes()
        assert fused.u64(1)[0] == twin.u64(1)[0]

    @pytest.mark.parametrize("alpha", [0.3, 1.5, 1000.0])
    def test_log_gamma_matches_per_draw_loop(self, alpha):
        fused, twin = RngStream(13, 1), RngStream(13, 1)
        for n in (1, 9, 500):
            assert fused.log_gamma(alpha, n).tobytes() == naive_log_gamma(twin, alpha, n).tobytes()
        assert fused.u64(1)[0] == twin.u64(1)[0]

    def test_gamma_moments(self):
        for alpha in [0.4, 1.0, 2.5, 9.0]:
            g = gamma(RngStream(3, int(alpha * 10)), alpha, 200000)
            assert g.mean() == pytest.approx(alpha, rel=0.02)
            assert g.var() == pytest.approx(alpha, rel=0.05)

    def test_gamma_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            RngStream(0).log_gamma(0.0, 3)
        with pytest.raises(InvalidInputError):
            RngStream(0).log_gamma(-1.0, 3)
        # an infinite or NaN shape made the Marsaglia-Tsang loop reject every draw forever
        for alpha in (math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="finite"):
                RngStream(0).log_gamma(alpha, 3)

    def test_permutation_is_permutation(self):
        p = RngStream(4).permutation(257)
        assert np.array_equal(np.sort(p), np.arange(257))

    def test_choice_without_replacement(self):
        c = RngStream(5).choice(100, 10)
        assert len(set(c.tolist())) == 10
        assert c.min() >= 0 and c.max() < 100
        assert np.array_equal(c, np.sort(c))

    def test_derive_id_order_sensitive(self):
        assert derive_id(1, 2) != derive_id(2, 1)
        assert derive_id("round", 3) != derive_id("round", 4)
        assert derive_id("a") != derive_id("b")

    def test_child_streams_deterministic(self):
        a = RngStream(7).child(3, "client", 12)
        b = RngStream(7).child(3, "client", 12)
        assert np.array_equal(a.u64(16), b.u64(16))


class TestStableSoftmax:
    """``softmax_rows`` on one-row matrices: max-subtraction keeps it
    shift-invariant and overflow-proof."""

    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_no_overflow_on_huge_logits(self):
        p = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-300)

    def test_hand_value_ln3_ln1(self):
        p = softmax([math.log(3.0), math.log(1.0)])
        assert np.allclose(p, [0.75, 0.25], atol=1e-15)

    def test_sums_to_one(self):
        rng = RngStream(11)
        for _ in range(50):
            v = rng.normal(8) * 50
            assert abs(softmax(v).sum() - 1.0) <= 1e-12

    def test_shift_invariance_exact(self):
        # exact invariance requires the additions v + c to be exact, so use
        # dyadic inputs on a 1/64 grid; arbitrary floats are covered below
        rng = RngStream(12)
        for c in [1.0, -3.5, 700.0, -1024.015625]:
            v = np.round(rng.normal(6) * 64) / 64
            assert np.array_equal(softmax(v), softmax(v + c))

    def test_shift_invariance_general_floats(self):
        rng = RngStream(112)
        for c in [math.pi, -273.15, 6.02e5]:
            v = rng.normal(6)
            assert np.allclose(softmax(v), softmax(v + c), atol=1e-13)

    def test_order_preserving(self):
        v = RngStream(13).normal(10)
        assert np.argmax(softmax(v)) == np.argmax(v)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            softmax_rows([[]])
        with pytest.raises(InvalidInputError):
            softmax([1.0, float("nan")])
        with pytest.raises(InvalidInputError):
            softmax([1.0, float("inf")])

    def test_rowwise_matches_vector(self):
        z = RngStream(14).normal(12).reshape(3, 4)
        rows = softmax_rows(z)
        for i in range(3):
            assert np.array_equal(rows[i], softmax(z[i]))


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8])

    def test_unit_vector_fixed_point(self):
        v = l2_normalize(RngStream(15).normal(7))
        assert np.allclose(l2_normalize(v), v, atol=1e-15)

    def test_norm_is_one(self):
        for i in range(20):
            v = RngStream(16, i).normal(5) * 10
            assert abs(np.linalg.norm(l2_normalize(v)) - 1.0) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            l2_normalize([0.0, 0.0])


class TestDirichletSample:
    def test_dim_one(self):
        for alpha in [0.01, 1.0, 500.0]:
            assert np.array_equal(dirichlet_sample(alpha, 1, RngStream(17)), [1.0])

    def test_on_simplex(self):
        rng = RngStream(18)
        meta = RngStream(19)
        for i in range(2000):
            alpha = float(np.exp(meta.normal(1)[0] * 2))
            dim = 1 + int(meta.u64(1)[0] % 8)
            d = dirichlet_sample(alpha, dim, rng)
            assert np.all(d >= 0)
            assert abs(d.sum() - 1.0) <= 1e-12

    @pytest.mark.slow
    def test_on_simplex_one_million_pairs(self):
        rng = RngStream(118)
        meta = RngStream(119)
        n = 1_000_000
        alphas = np.exp(meta.normal(n) * 2)
        dims = 1 + (meta.u64(n) % np.uint64(8)).astype(int)
        for i in range(n):
            d = dirichlet_sample(float(alphas[i]), int(dims[i]), rng)
            assert d.min() >= 0.0 and abs(d.sum() - 1.0) <= 1e-12

    def test_high_concentration_near_uniform(self):
        # alpha = 1000, dim = 10: every entry within 0.05 of 0.1 for 99% of
        # seeds (quantile established by the Monte-Carlo check itself)
        bad = 0
        for seed in range(500):
            d = dirichlet_sample(1000.0, 10, RngStream(seed, 777))
            if np.any(np.abs(d - 0.1) > 0.05):
                bad += 1
        assert bad <= 5  # 99% of seeds

    def test_sparsity_limit(self):
        for seed in range(50):
            d = dirichlet_sample(1e-4, 8, RngStream(seed, 778))
            assert d.max() > 0.999
            assert abs(d.sum() - 1.0) <= 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInputError):
            dirichlet_sample(0.0, 3, RngStream(0))
        with pytest.raises(InvalidInputError):
            dirichlet_sample(1.0, 0, RngStream(0))


class TestMultinomialSplit:
    def test_zero_items(self):
        counts = multinomial_split(0, [0.2, 0.8], RngStream(20))
        assert np.array_equal(counts, [0, 0])

    def test_degenerate_distribution(self):
        counts = multinomial_split(7, [1.0, 0.0], RngStream(21))
        assert np.array_equal(counts, [7, 0])

    def test_conserves_n_exactly(self):
        rng = RngStream(22)
        for i in range(200):
            k = 1 + int(rng.u64(1)[0] % 6)
            p = dirichlet_sample(0.7, k, rng)
            n = int(rng.u64(1)[0] % 1000)
            counts = multinomial_split(n, p, rng)
            assert counts.sum() == n
            assert np.all(counts >= 0)

    def test_large_n_concentration(self):
        # n = 1e5, probs (0.3, 0.7): sd of counts[0] is sqrt(n*0.3*0.7) = 145,
        # so a 1% deviation (300) sits at 2.07 sigma and the binomial tail
        # puts ~96% of seeds inside; assert with 3-sigma Monte-Carlo headroom
        bad = 0
        for seed in range(200):
            counts = multinomial_split(100000, [0.3, 0.7], RngStream(seed, 779))
            if abs(counts[0] - 30000) > 0.01 * 30000 or abs(counts[1] - 70000) > 0.01 * 70000:
                bad += 1
        assert bad <= 16

    def test_rejects_negative_probability(self):
        with pytest.raises(InvalidInputError):
            multinomial_split(5, [0.5, 0.6, -0.1], RngStream(0))

    def test_rejects_non_normalized(self):
        with pytest.raises(InvalidInputError):
            multinomial_split(5, [0.5, 0.3], RngStream(0))
