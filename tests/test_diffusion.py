"""Noise schedule, forward corruption, and reverse-step behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dentdet.diffusion import (
    Schedule,
    box_renewal,
    ddim_step,
    forward_noise,
    pad_gt_boxes,
    signal_decode,
    signal_encode,
)
from dentdet.geometry import MIN_SIZE, Box


@pytest.fixture(scope="module")
def schedule():
    return Schedule.cosine(1000, 0.008)


class TestSchedule:
    def test_endpoints(self, schedule):
        assert schedule.alpha_bar[0] == 1.0
        assert schedule.alpha_bar[schedule.T] < 0.01

    def test_monotone_non_increasing(self, schedule):
        assert np.all(np.diff(schedule.alpha_bar) <= 0)

    def test_closed_form_values(self, schedule):
        # alpha_bar[t] = cos^2(((t/T + s)/(1 + s)) pi/2) / cos^2((s/(1+s)) pi/2)
        s = 0.008
        f0 = np.cos(s / (1 + s) * np.pi / 2) ** 2
        for t in (1, 250, 500, 999):
            f = np.cos(((t / 1000) + s) / (1 + s) * np.pi / 2) ** 2
            assert schedule.alpha_bar[t] == pytest.approx(f / f0, rel=1e-12)

    def test_rejects_bad_sequences(self):
        with pytest.raises(ValueError):
            Schedule(T=2, alpha_bar=np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            Schedule(T=2, alpha_bar=np.array([0.9, 0.5, 0.2]))
        with pytest.raises(ValueError):
            Schedule(T=2, alpha_bar=np.array([1.0, 0.2, 0.5]))
        with pytest.raises(ValueError):
            Schedule(T=2, alpha_bar=np.array([1.0, 0.5, 0.0]))


class TestSignalCodec:
    def test_midpoint_maps_to_zero(self):
        assert signal_encode(np.array([0.5]), 2.0)[0] == 0.0

    def test_endpoint_maps_to_scale(self):
        assert signal_encode(np.array([1.0]), 2.0)[0] == 2.0

    def test_round_trip_random_boxes(self):
        rng = np.random.default_rng(0)
        boxes = np.column_stack(
            [
                rng.uniform(0, 1, 10_000),
                rng.uniform(0, 1, 10_000),
                rng.uniform(0.01, 1, 10_000),
                rng.uniform(0.01, 1, 10_000),
            ]
        )
        back = signal_decode(signal_encode(boxes, 2.0), 2.0)
        np.testing.assert_allclose(back, boxes, atol=1e-12)

    def test_decode_clamps(self):
        z = np.array([[10.0, -10.0, -10.0, 10.0]])
        x = signal_decode(z, 2.0)
        assert x[0, 0] == 1.0 and x[0, 1] == 0.0
        assert x[0, 2] == MIN_SIZE and x[0, 3] == 1.0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            signal_encode(np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            signal_decode(np.zeros(4), -1.0)


class TestForwardNoise:
    def test_t_zero_is_identity(self, schedule):
        z0 = np.random.default_rng(1).normal(size=(5, 4))
        out = forward_noise(z0, 0, schedule, np.random.default_rng(2))
        np.testing.assert_array_equal(out, z0)

    def test_rejects_out_of_range_t(self, schedule):
        with pytest.raises(ValueError):
            forward_noise(np.zeros((1, 4)), schedule.T + 1, schedule,
                          np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward_noise(np.zeros((1, 4)), -1, schedule, np.random.default_rng(0))

    def test_deterministic_given_seed(self, schedule):
        z0 = np.ones((3, 4))
        a = forward_noise(z0, 500, schedule, np.random.default_rng(42))
        b = forward_noise(z0, 500, schedule, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("t", [100, 500, 900])
    def test_marginal_statistics(self, schedule, t):
        # Mean sqrt(ab) z0, variance (1 - ab); 1e5 draws.
        z0 = np.array([0.7])
        n = 100_000
        rng = np.random.default_rng(t)
        draws = np.array(
            [forward_noise(z0, t, schedule, rng)[0] for _ in range(n)]
        )
        ab = schedule.alpha_bar[t]
        sigma = np.sqrt(1 - ab)
        assert abs(draws.mean() - np.sqrt(ab) * 0.7) < 3 * sigma / np.sqrt(n)
        assert abs(draws.var() - (1 - ab)) < 0.02 * (1 - ab)


def _arr(boxes):
    return np.stack([b.to_array() for b in boxes])


class _Draws:
    """A generator stand-in whose normal draws are the given rows."""

    def __init__(self, rows):
        self.rows = rows

    def permutation(self, n):
        return np.arange(n)

    def normal(self, loc, scale, size):
        assert size == self.rows.shape
        return self.rows.copy()


def _clip_oracle(gt, n, rng, scale):
    """``pad_gt_boxes`` as first written, clamping with two np.clip calls."""
    arr = np.empty((n, 4))
    arr[: len(gt)] = gt[rng.permutation(len(gt))]
    pad = rng.normal(0.5, 1.0 / 6.0, size=(n - len(gt), 4))
    pad[:, :2] = np.clip(pad[:, :2], 0.0, 1.0)
    pad[:, 2:] = np.clip(pad[:, 2:], 0.01, 1.0)
    arr[len(gt):] = pad
    return signal_encode(arr, scale)


class TestPadGtBoxes:
    def test_full_gt_is_permutation(self):
        gt = [Box(0.1 * i + 0.1, 0.2, 0.1, 0.1) for i in range(4)]
        z0 = pad_gt_boxes(_arr(gt), 4, np.random.default_rng(0), 2.0)
        assert z0.shape == (4, 4)
        decoded = signal_decode(z0, 2.0)
        want = sorted(map(tuple, [b.to_array() for b in gt]))
        got = sorted(map(tuple, decoded))
        assert np.allclose(want, got, atol=1e-12)

    def test_empty_gt_gives_valid_random_boxes(self):
        z0 = pad_gt_boxes([], 16, np.random.default_rng(1), 2.0)
        assert z0.shape == (16, 4)
        x = signal_decode(z0, 2.0)
        assert np.all(x[:, :2] >= 0) and np.all(x[:, :2] <= 1)
        assert np.all(x[:, 2:] >= MIN_SIZE) and np.all(x[:, 2:] <= 1)

    def test_three_gt_among_eight(self):
        gt = [Box(0.2, 0.2, 0.1, 0.1), Box(0.5, 0.5, 0.2, 0.2), Box(0.8, 0.8, 0.1, 0.3)]
        z0 = pad_gt_boxes(_arr(gt), 8, np.random.default_rng(2), 2.0)
        decoded = signal_decode(z0, 2.0)
        hits = 0
        for b in gt:
            hits += any(np.allclose(row, b.to_array(), atol=1e-12) for row in decoded)
        assert hits == 3

    @pytest.mark.parametrize("n_gt", [0, 3])
    def test_padded_rows_equal_the_clip_oracle(self, n_gt):
        # Draws past and on both bounds of each column, signed zeros, NaN
        # and infinities, then seeded draws: the clamp gives np.clip's bytes.
        edge = [np.nan, np.inf, -np.inf, -0.0, 0.0, 0.01, 1.0, -0.5, 0.005, 1.5]
        drawn = np.array([np.roll(edge, k) for k in (0, 3, 5, 8)]).T
        gt = np.arange(n_gt * 4, dtype=np.float64).reshape(n_gt, 4) / 16
        n = n_gt + len(drawn)
        makers = [lambda: _Draws(drawn)]
        makers += [lambda seed=seed: np.random.default_rng(seed) for seed in range(5)]
        for make in makers:
            want = _clip_oracle(gt, n, make(), 1.5)
            assert pad_gt_boxes(gt, n, make(), 1.5).tobytes() == want.tobytes()

    def test_rejects_more_boxes_than_proposals(self):
        gt = [Box(0.1 * i + 0.05, 0.5, 0.05, 0.05) for i in range(9)]
        with pytest.raises(ValueError, match="9 ground-truth boxes exceed 4"):
            pad_gt_boxes(_arr(gt), 4, np.random.default_rng(3), 2.0)

    def test_rejects_zero_proposals(self):
        with pytest.raises(ValueError):
            pad_gt_boxes([], 0, np.random.default_rng(0), 2.0)


class TestDdimStep:
    def test_t_next_zero_recovers_prediction(self, schedule):
        rng = np.random.default_rng(0)
        z0 = rng.normal(size=(6, 4))
        zt = forward_noise(z0, schedule.T, schedule, rng)
        out = ddim_step(zt, z0, schedule.T, 0, schedule, eta=0.0)
        np.testing.assert_array_equal(out, z0)

    def test_deterministic_with_eta_zero(self, schedule):
        rng = np.random.default_rng(4)
        z0 = rng.normal(size=(3, 4))
        zt = forward_noise(z0, 800, schedule, rng)
        a = ddim_step(zt, z0, 800, 400, schedule, eta=0.0)
        b = ddim_step(zt, z0, 800, 400, schedule, eta=0.0)
        np.testing.assert_array_equal(a, b)

    def test_oracle_chain_recovers_z0(self, schedule):
        # A predictor that always returns the true z0 must denoise exactly.
        rng = np.random.default_rng(5)
        z0 = rng.normal(size=(8, 4))
        times = [1000, 750, 500, 250, 100, 10, 0]
        z = forward_noise(z0, times[0], schedule, rng)
        for t, t_next in zip(times, times[1:]):
            z = ddim_step(z, z0, t, t_next, schedule, eta=0.0)
        assert np.max(np.abs(z - z0)) < 1e-9

    def test_moment_match_vs_forward(self, schedule):
        # With exact z0_pred, stepping t -> t_next lands on a point whose
        # marginal matches q(z_{t_next} | z0) when eta = 1.
        t, t_next = 900, 400
        z0 = np.array([0.3])
        n = 100_000
        rng = np.random.default_rng(9)
        outs = np.empty(n)
        for i in range(n):
            zt = forward_noise(z0, t, schedule, rng)
            outs[i] = ddim_step(zt, z0, t, t_next, schedule, 1.0, rng)[0]
        ab = schedule.alpha_bar[t_next]
        sigma = np.sqrt(1 - ab)
        assert abs(outs.mean() - np.sqrt(ab) * 0.3) < 3 * sigma / np.sqrt(n)
        assert abs(outs.var() - (1 - ab)) < 0.02 * (1 - ab)

    def test_validates_arguments(self, schedule):
        z = np.zeros((2, 4))
        with pytest.raises(ValueError):
            ddim_step(z, np.zeros((2, 4)), 500, 500, schedule, 0.0)
        with pytest.raises(ValueError):
            ddim_step(z, np.zeros((2, 4)), 500, 100, schedule, 1.5)
        with pytest.raises(ValueError):
            ddim_step(z, np.zeros((3, 4)), 500, 100, schedule, 0.0)
        with pytest.raises(ValueError):
            # eta > 0 at an intermediate step needs randomness
            ddim_step(z, np.zeros((2, 4)), 500, 100, schedule, 1.0, rng=None)


class TestBoxRenewal:
    def test_all_above_threshold_unchanged(self):
        z = np.random.default_rng(0).normal(size=(5, 4))
        out = box_renewal(np.ones(5), z, 0.5, np.random.default_rng(1))
        np.testing.assert_array_equal(out, z)

    def test_all_below_resampled(self):
        z = np.random.default_rng(2).normal(size=(5, 4))
        out = box_renewal(np.zeros(5), z, 0.5, np.random.default_rng(3))
        assert not np.any(np.all(np.isclose(out, z, atol=1e-12), axis=1))

    def test_mixed_keeps_exact_index_set(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(8, 4))
        scores = np.array([0.9, 0.1, 0.6, 0.4, 0.5, 0.49, 0.51, 0.0])
        out = box_renewal(scores, z, 0.5, np.random.default_rng(5))
        kept = {i for i in range(8) if np.array_equal(out[i], z[i])}
        assert kept == {0, 2, 4, 6}

    def test_score_count_must_match(self):
        z = np.zeros((4, 4))
        with pytest.raises(ValueError):
            box_renewal(np.ones(3), z, 0.5, np.random.default_rng(0))


# A stack of B images' proposals: B, N, the step and the seed of the inputs.
_stacks = dict(
    b=st.integers(1, 6),
    n=st.integers(1, 40),
    step=st.sampled_from([(1000, 750), (750, 500), (500, 1), (250, 0), (1000, 0)]),
    seed=st.integers(0, 2**32 - 1),
)


def _generators(seed, b):
    return [np.random.default_rng([seed, i]) for i in range(b)]


class TestStackedImages:
    """``ddim_step`` and ``box_renewal`` on (B, N, 4) proposals with one
    generator per image give the bytes of the per-image calls."""

    @settings(max_examples=40, deadline=None)
    @given(eta=st.sampled_from([0.0, 1.0]), **_stacks)
    def test_ddim_step_equals_per_image_calls(self, schedule, eta, b, n, step, seed):
        rng = np.random.default_rng(seed)
        z, z0 = rng.normal(size=(2, b, n, 4))
        t, t_next = step
        got = ddim_step(z, z0, t, t_next, schedule, eta, _generators(seed, b))
        want = np.stack([
            ddim_step(zi, z0i, t, t_next, schedule, eta, g)
            for zi, z0i, g in zip(z, z0, _generators(seed, b))
        ])
        assert got.shape == (b, n, 4) and got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(eta=st.sampled_from([0.0, 1.0]), threshold=st.floats(0.0, 1.0), **_stacks)
    def test_step_then_renewal_equals_per_image_calls(self, schedule, eta, threshold,
                                                      b, n, step, seed):
        # Each image's generator draws its DDIM noise, then its renewal noise,
        # whether the images run one by one or stacked.
        rng = np.random.default_rng(seed)
        z, z0 = rng.normal(size=(2, b, n, 4))
        scores = rng.uniform(size=(b, n))
        t, t_next = step
        gens = _generators(seed, b)
        got = box_renewal(scores, ddim_step(z, z0, t, t_next, schedule, eta, gens),
                          threshold, gens)
        want, per_image = [], _generators(seed, b)
        for zi, z0i, si, g in zip(z, z0, scores, per_image):
            want.append(box_renewal(si, ddim_step(zi, z0i, t, t_next, schedule, eta, g),
                                    threshold, g))
        assert got.tobytes() == np.stack(want).tobytes()
        # Every image's stream has moved on as far as its own calls move it.
        assert [g.bit_generator.state for g in gens] == [
            g.bit_generator.state for g in per_image
        ]

    def test_generators_must_match_the_images(self, schedule):
        z = np.zeros((3, 5, 4))
        with pytest.raises(ValueError, match="2 generators for 3 images"):
            ddim_step(z, z, 800, 400, schedule, 1.0, _generators(0, 2))
        with pytest.raises(ValueError, match="2 generators for 3 images"):
            box_renewal(np.zeros((3, 5)), z, 0.5, _generators(0, 2))
        with pytest.raises(ValueError, match="one score per proposal row"):
            box_renewal(np.zeros((3, 4)), z, 0.5, _generators(0, 3))
