import hashlib
import math
import warnings

import numpy as np
import pytest

from vidmotion import diffusion as D
from vidmotion import tensor as T


def rnd(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0, scale, shape).astype(np.float32)


def toy_eps_fn(shape, seed=100, timesteps=1000):
    """Fixed random smooth noise predictor (test double, numpy only)."""
    n = int(np.prod(shape))
    w = np.random.default_rng(seed).normal(0, 0.5 / math.sqrt(n), (n, n))

    def fn(x, t):
        flat = x.data.reshape(-1).astype(np.float64)
        out = 0.5 * np.tanh(flat @ w) + 0.1 * math.sin(2 * math.pi * t / timesteps)
        return T.Tensor(out.reshape(shape))

    return fn


class TestMakeSchedule:
    def test_two_step_hand_product(self):
        s = D.make_schedule(2, 0.1, 0.1)
        np.testing.assert_allclose(s.alpha_bar, [0.9, 0.81], rtol=1e-12)

    def test_zero_beta_rejected(self):
        with pytest.raises(D.ScheduleError):
            D.make_schedule(10, 0.0, 0.0)

    def test_default_schedule_shape(self):
        s = D.make_schedule()
        assert s.timesteps == 1000
        assert (np.diff(s.alpha_bar) < 0).all()
        assert s.alpha_bar[0] > 0.99
        assert s.alpha_bar[999] < 1e-4

    def test_bad_range_rejected(self):
        with pytest.raises(D.ScheduleError):
            D.make_schedule(10, 0.5, 0.4)
        with pytest.raises(D.ScheduleError):
            D.make_schedule(1, 0.1, 0.1)


class TestQSample:
    def test_no_noise_boundary(self):
        s = D.NoiseSchedule(2, 0, 0, np.array([1.0, 0.5]))
        x0 = T.Tensor(rnd((2, 3), 1))
        out = D.q_sample(x0, 0, T.Tensor(rnd((2, 3), 2)), s)
        np.testing.assert_allclose(out.data, x0.data, atol=1e-7)

    def test_pure_noise_boundary(self):
        s = D.NoiseSchedule(2, 0, 0, np.array([0.5, 0.0]))
        eps = T.Tensor(rnd((2, 3), 3))
        out = D.q_sample(T.Tensor(rnd((2, 3), 4)), 1, eps, s)
        np.testing.assert_allclose(out.data, eps.data, atol=1e-7)

    def test_hand_arithmetic(self):
        s = D.NoiseSchedule(1, 0, 0, np.array([0.25]))
        out = D.q_sample(T.ones((1,)), 0, T.ones((1,)), s)
        np.testing.assert_allclose(out.item(), 0.5 + math.sqrt(0.75), rtol=1e-6)

    def test_t_out_of_range(self):
        s = D.make_schedule(10, 1e-4, 2e-2)
        with pytest.raises(D.ScheduleError):
            D.q_sample(T.ones((1,)), 10, T.ones((1,)), s)


class TestTrainingLoss:
    def test_identical_inputs_zero(self):
        x = T.Tensor(rnd((3, 3), 5))
        assert D.training_loss(x, x).item() == 0.0

    def test_unit_offset(self):
        a = T.Tensor(rnd((4, 4), 6))
        b = T.add(a, T.ones((4, 4)))
        np.testing.assert_allclose(D.training_loss(b, a).item(), 1.0, rtol=1e-6)

    def test_hand_mean_of_squares(self):
        loss = D.training_loss(T.Tensor([0.0, 2.0]), T.Tensor([0.0, 0.0]))
        assert loss.item() == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            D.training_loss(T.zeros((2,)), T.zeros((3,)))


class TestDdimStep:
    def test_matches_marginal_with_exact_noise(self):
        s = D.make_schedule(100, 1e-3, 2e-2)
        x0 = T.Tensor(rnd((2, 4), 7))
        eps = T.Tensor(rnd((2, 4), 8))
        x_t = D.q_sample(x0, 80, eps, s)
        moved = D.ddim_step(x_t, eps, 80, 30, s)
        want = D.q_sample(x0, 30, eps, s)
        np.testing.assert_allclose(moved.data, want.data, atol=1e-6)

    def test_clean_endpoint_returns_predicted_x0(self):
        s = D.make_schedule(100, 1e-3, 2e-2)
        x0 = T.Tensor(rnd((2, 4), 9))
        eps = T.Tensor(rnd((2, 4), 10))
        x_t = D.q_sample(x0, 50, eps, s)
        out = D.ddim_step(x_t, eps, 50, D.CLEAN_STEP, s)
        np.testing.assert_allclose(out.data, x0.data, atol=1e-6)

    def test_ordering_violation(self):
        s = D.make_schedule(100, 1e-3, 2e-2)
        with pytest.raises(D.ScheduleError):
            D.ddim_step(T.ones((1,)), T.ones((1,)), 10, 20, s)

    def test_oracle_50_step_recovery(self):
        s = D.make_schedule()
        x0 = T.Tensor(rnd((1, 4, 8, 8), 11))
        eps0 = T.Tensor(rnd((1, 4, 8, 8), 12))
        x_start = D.q_sample(x0, 999, eps0, s)
        fn = D.oracle_eps_fn(x0, s)
        traj = D.ddim_sample(fn, x_start, D.subsequence(1000, 50), s)
        rms = float(np.sqrt(np.mean((traj.final.data - x0.data) ** 2)))
        assert rms <= 1e-4

    def test_steps_yield_the_sample_points_as_they_are_reached(self):
        s = D.make_schedule()
        ts = D.subsequence(1000, 5)
        x = T.Tensor(rnd((2, 3), 84))
        fn = toy_eps_fn((2, 3))
        calls = []

        def counted(x, t):
            calls.append(t)
            return fn(x, t)

        steps = D.ddim_steps(counted, x, ts, s)
        assert calls == []
        first = next(steps)
        assert calls == [ts[-1]] and first[0] == ts[-2]
        points = [first, *steps]
        traj = D.ddim_sample(fn, x, ts, s)
        assert traj.timesteps == [ts[-1], *(t for t, _ in points)]
        np.testing.assert_array_equal(traj.final.data, points[-1][1].data)

    def test_frame_stacked_pair_equals_separate_runs_bitwise(self):
        s = D.make_schedule()
        ts = D.subsequence(1000, 20)
        x0s = [T.Tensor(rnd((2, 4, 8, 8), seed)) for seed in (80, 81)]
        starts = [D.q_sample(x0, ts[-1], T.Tensor(rnd(x0.shape, seed)), s)
                  for x0, seed in zip(x0s, (82, 83))]
        fns = [D.oracle_eps_fn(x0, s) for x0 in x0s]

        def paired(x, t):
            return T.concat([fns[0](T.slice_axis(x, 0, 0, 2), t),
                             fns[1](T.slice_axis(x, 0, 2, 4), t)], axis=0)

        both = list(D.ddim_steps(paired, T.concat(starts, axis=0), ts, s))
        for half, (fn, start) in enumerate(zip(fns, starts)):
            alone = list(D.ddim_steps(fn, start, ts, s))
            assert [t for t, _ in both] == [t for t, _ in alone]
            for (_, x_both), (_, x_alone) in zip(both, alone):
                np.testing.assert_array_equal(
                    x_both.data[2 * half:2 * half + 2], x_alone.data)


class TestDdimInvertStep:
    def test_mutual_inverse_with_frozen_eps(self):
        s = D.make_schedule(100, 1e-3, 2e-2)
        x = T.Tensor(rnd((3, 3), 13))
        eps = T.Tensor(rnd((3, 3), 14))
        up = D.ddim_invert_step(x, eps, 20, 70, s)
        back = D.ddim_step(up, eps, 70, 20, s)
        np.testing.assert_allclose(back.data, x.data, atol=1e-6)

    def test_degenerate_equal_alpha_is_identity(self):
        s = D.NoiseSchedule(2, 0, 0, np.array([0.5, 0.5]))
        x = T.Tensor(rnd((2, 2), 15))
        out = D.ddim_invert_step(x, T.Tensor(rnd((2, 2), 16)), 0, 1, s)
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_ordering_violation(self):
        s = D.make_schedule(100, 1e-3, 2e-2)
        with pytest.raises(D.ScheduleError):
            D.ddim_invert_step(T.ones((1,)), T.ones((1,)), 20, 10, s)

    def test_round_trip_rms_pinned_and_shrinking(self):
        # fixed random toy predictor; the recorded 50-step value must not regress
        s = D.make_schedule()
        shape = (1, 4, 8, 8)
        x0 = T.Tensor(rnd(shape, 17, scale=0.5))
        fn = toy_eps_fn(shape)
        rms = {}
        for steps in (10, 50, 200):
            ts = D.subsequence(1000, steps)
            traj_up = D.ddim_invert(fn, x0, ts, s)
            traj_dn = D.ddim_sample(fn, traj_up.final, ts, s)
            rms[steps] = float(np.sqrt(np.mean((traj_dn.final.data - x0.data) ** 2)))
        assert rms[10] > rms[50] > rms[200]
        assert rms[50] <= 0.30  # recorded 0.268 on the frozen fixture, plus headroom


class TestDdimWalk:
    def test_invert_then_sample_latents_pinned(self):
        # leading 16 hex digits of each latent's sha256, recorded before
        # sampling and inversion shared one loop
        s = D.make_schedule()
        shape = (1, 4, 8, 8)
        x0 = T.Tensor(rnd(shape, 17, scale=0.5))
        toy = toy_eps_fn(shape)
        ts = D.subsequence(1000, 10)
        digests = []

        def record(x):
            digests[-1].append(hashlib.sha256(x.data.tobytes()).hexdigest()[:16])

        def fn(x, t):  # sees every latent of a walk but its end
            record(x)
            return toy(x, t)

        digests.append([])
        up = D.ddim_invert(fn, x0, ts, s)
        record(up.final)
        digests.append([])
        down = D.ddim_sample(fn, up.final, ts, s)
        record(down.final)
        assert up.timesteps == [D.CLEAN_STEP, *ts]
        assert down.timesteps == [*reversed(ts), D.CLEAN_STEP]
        assert digests == [
            ["402f1fe4667f4214", "4037f9a28e116c17", "21dbe26156d98fb7",
             "d07b7c01e2b5d659", "8e411a4843800494", "9b265ef3e463fc6d",
             "a3ab47184b5ce0ee", "4bc32f4747a051d9", "b2cc237844ec140e",
             "b687a6cfccc08df3", "cb15b9a965c2adbb"],
            ["cb15b9a965c2adbb", "34e37fd0c9f15836", "be6c6197aa664b8d",
             "150702adaeff6570", "9aae6e8425294a5a", "2c7b3c44571714e4",
             "14030e188a8102fe", "6e2fe0d7c91861a4", "42169667e3ca4f38",
             "a167c2da7e0d8e38", "ff98a5116bad91a7"]]

    @pytest.mark.parametrize("ts", [[100, 300, 200], [300, 100], [100, 100],
                                    [100, 200, 200]],
                             ids=["unsorted", "decreasing", "repeated",
                                  "repeated-last"])
    @pytest.mark.parametrize("walk", [D.ddim_sample, D.ddim_invert],
                             ids=["sample", "invert"])
    def test_misordered_timesteps_rejected(self, walk, ts):
        s = D.make_schedule()
        x = T.Tensor(rnd((2, 3), 32))
        with pytest.raises(D.ScheduleError):
            walk(lambda x, t: T.scale(x, 0.1), x, ts, s)

    @pytest.mark.parametrize("walk", [D.ddim_sample, D.ddim_invert],
                             ids=["sample", "invert"])
    def test_prediction_of_another_shape_rejected(self, walk):
        s = D.make_schedule()
        x = T.Tensor(rnd((2, 3), 33))
        # (1, 3) broadcasts against the latent, so only the step's guard stops it
        with pytest.raises(T.ShapeError):
            walk(lambda x, t: T.ones((1, 3)), x, [100, 200], s)


class TestNonFiniteSteps:
    """The first non-finite value stops the loop, naming phase, step and t."""

    @staticmethod
    def _overflow_at(t_bad):
        def fn(x, t):  # float32 overflow inside the predictor at t_bad
            return T.scale(T.scale(x, 1e30), 1e30) if t == t_bad else T.scale(x, 0.1)
        return fn

    def test_overflow_in_predictor_names_step_without_warning(self):
        s = D.make_schedule()
        ts = D.subsequence(1000, 4)  # [249, 499, 749, 999]
        x = T.Tensor(rnd((2, 3), 30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(D.NonFiniteError,
                               match=r"sample step 2/4 \(t=749\): overflow"):
                D.ddim_sample(self._overflow_at(749), x, ts, s)
            with pytest.raises(D.NonFiniteError,
                               match=r"invert step 3/4 \(t=749\): overflow"):
                D.ddim_invert(self._overflow_at(749), x, ts, s)

    def test_non_finite_latent_without_fp_exception_is_caught(self):
        s = D.make_schedule()
        ts = D.subsequence(1000, 3)
        x = T.Tensor(rnd((2, 3), 31))

        def nan_eps(x, t):  # a NaN built without any floating-point exception
            return T.Tensor(np.full(x.shape, np.nan, np.float32))

        with pytest.raises(D.NonFiniteError,
                           match=r"recon step 1/3 \(t=999\): the new latent"):
            D.ddim_sample(nan_eps, x, ts, s, phase="recon")

    def test_overflow_in_the_move_names_step_without_warning(self):
        s = D.make_schedule()
        x = T.Tensor(rnd((4, 3), 33))

        def eps(x, t):  # finite, but the move's 1 / sqrt(alpha_bar) overflows
            out = np.zeros(x.shape, np.float32)
            out[3] = 3e38
            return T.Tensor(out)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(D.NonFiniteError,
                               match=r"edit step 1/2 \(t=999\): overflow"):
                D.ddim_sample(eps, x, D.subsequence(1000, 2), s, phase="edit")


class TestCfgCombine:
    def test_scale_one_is_conditional_bitwise(self):
        u, c = T.Tensor(rnd((3,), 18)), T.Tensor(rnd((3,), 19))
        assert D.cfg_combine(u, c, 1.0) is c

    def test_scale_zero_is_unconditional_bitwise(self):
        u, c = T.Tensor(rnd((3,), 20)), T.Tensor(rnd((3,), 21))
        assert D.cfg_combine(u, c, 0.0) is u

    def test_hand_arithmetic(self):
        out = D.cfg_combine(T.zeros((1,)), T.Tensor([2.0]), 7.5)
        assert out.item() == 15.0

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            D.cfg_combine(T.zeros((2,)), T.zeros((3,)), 2.0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            D.cfg_combine(T.zeros((1,)), T.zeros((1,)), -1.0)


class TestSubsequenceAndTrajectory:
    def test_subsequence_ends_at_last_step(self):
        ts = D.subsequence(1000, 50)
        assert len(ts) == 50
        assert ts[-1] == 999
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_subsequence_full(self):
        assert D.subsequence(8, 8) == list(range(8))

    def test_fixed_point_identity_all_pairs(self):
        # with the oracle predictor, step(q_sample(x0, t)) == q_sample(x0, t_prev)
        s = D.make_schedule(40, 1e-3, 2e-2)
        x0 = T.Tensor(rnd((2, 3), 22))
        eps = T.Tensor(rnd((2, 3), 23))
        fn = D.oracle_eps_fn(x0, s)
        for t in (5, 17, 39):
            for t_prev in (D.CLEAN_STEP, 0, t - 1):
                if t_prev >= t:
                    continue
                x_t = D.q_sample(x0, t, eps, s)
                got = D.ddim_step(x_t, fn(x_t, t), t, t_prev, s)
                want = (x0 if t_prev == D.CLEAN_STEP
                        else D.q_sample(x0, t_prev, eps, s))
                np.testing.assert_allclose(got.data, want.data, atol=1e-6)

    def test_sampler_outputs_finite_on_default_schedule(self):
        s = D.make_schedule()
        shape = (1, 2, 4, 4)
        fn = toy_eps_fn(shape, seed=55)
        x = T.Tensor(rnd(shape, 24, scale=2.0))
        for _, latent in D.ddim_steps(fn, x, D.subsequence(1000, 20), s):
            assert np.isfinite(latent.data).all()
