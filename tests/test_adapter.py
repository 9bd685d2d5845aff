import numpy as np
import pytest

from vidmotion import adapter as AD
from vidmotion import attention as A
from vidmotion import tensor as T


def rnd(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0, scale, shape).astype(np.float32)


def make_weights(seed=0, d=8):
    return AD.init_adapter(T.Rng(seed), d)


class TestIdentityAtInit:
    def test_zero_out_proj_passes_control_through_bit_exact(self):
        w = make_weights(1)
        m = T.Tensor(rnd((3, 4, 8), 2))
        z = T.Tensor(rnd((3, 4, 8), 3))
        out = AD.adapter_forward(m, z, w)
        np.testing.assert_array_equal(out.data, m.data)

    def test_holds_across_many_random_fixtures(self):
        w = make_weights(4)
        for seed in range(20):
            m = T.Tensor(rnd((2, 3, 8), 100 + seed, scale=2.0))
            z = T.Tensor(rnd((2, 3, 8), 200 + seed, scale=2.0))
            np.testing.assert_array_equal(AD.adapter_forward(m, z, w).data, m.data)


class TestForward:
    def test_shape_preserved_single_frame(self):
        w = make_weights(5)
        m = T.Tensor(rnd((1, 4, 8), 6))
        z = T.Tensor(rnd((1, 4, 8), 7))
        out = AD.adapter_forward(m, z, w)
        assert out.shape == (1, 4, 8)
        assert np.isfinite(out.data).all()

    def test_shape_mismatch_rejected(self):
        w = make_weights(8)
        with pytest.raises(T.ShapeError):
            AD.adapter_forward(T.zeros((2, 4, 8)), T.zeros((2, 5, 8)), w)

    def test_matches_brute_force_composition(self):
        # independently recompose the documented sub-operations
        w = make_weights(9)
        w = AD.AdapterWeights({**w.named, "adapter.out_proj":
                               T.Tensor(rnd((8, 8), 10, scale=0.3))})
        m = T.Tensor(rnd((3, 4, 8), 11))
        z = T.Tensor(rnd((3, 4, 8), 12))
        got = AD.adapter_forward(m, z, w).data

        q_in = T.layer_norm(m, w["ln_cross.gamma"], w["ln_cross.beta"])
        g1_frames = [A.content_cross_attention(
            T.Tensor(q_in.data[f]), T.Tensor(z.data[f]), w.cross).data
            for f in range(3)]
        g1 = T.Tensor(np.stack(g1_frames))
        t_in = T.layer_norm(g1, w["ln_temporal.gamma"], w["ln_temporal.beta"])
        g2 = np.stack([A.temporal_attention(
            T.Tensor(t_in.data[:, n, :]), w.temporal).data
            for n in range(4)], axis=1)

        local_in = np.transpose(m.data, (0, 2, 1))
        l1 = T.conv_temporal(T.Tensor(local_in), w["conv1"])
        l2 = T.conv_temporal(l1, w["conv2"]).data
        local = np.transpose(l2, (0, 2, 1))

        want = (g2 + local).reshape(-1, 8) @ w.out_proj.data
        want = want.reshape(3, 4, 8) + m.data
        np.testing.assert_allclose(got, want, atol=1e-5)


class TestContentSensitivity:
    def test_changing_latents_changes_output_with_trained_weights(self):
        w = make_weights(13)
        w = AD.AdapterWeights({**w.named, "adapter.out_proj":
                               T.Tensor(rnd((8, 8), 14, scale=0.3))})
        m = T.Tensor(rnd((2, 4, 8), 15))
        z1 = T.Tensor(rnd((2, 4, 8), 16))
        z2 = T.Tensor(rnd((2, 4, 8), 17))
        out1 = AD.adapter_forward(m, z1, w).data
        out2 = AD.adapter_forward(m, z2, w).data
        assert not np.allclose(out1, out2)


class TestTemporalLocality:
    def test_local_path_receptive_field_is_two_frames(self):
        w = make_weights(18)
        frames = 9
        m0 = rnd((frames, 3, 8), 19)
        base = AD.adapter_local_path(T.Tensor(m0), w).data
        j = 4
        bumped = m0.copy()
        bumped[j] += 1.0
        out = AD.adapter_local_path(T.Tensor(bumped), w).data
        changed = np.abs(out - base).reshape(frames, -1).max(axis=1) > 1e-7
        for f in range(frames):
            if abs(f - j) <= 2:
                assert changed[f], f"frame {f} inside the receptive field"
            else:
                assert not changed[f], f"frame {f} outside the receptive field"


class TestGradCheck:
    def test_zero_weights_report_passes(self):
        w = make_weights(20)
        report = AD.adapter_grad_check(w, T.Rng(21))
        assert report["__all__"]["ok"], {
            k: v for k, v in report.items() if k != "__all__" and not v["ok"]}

    def test_seeded_random_weights_pass(self):
        w = make_weights(22)
        w = AD.AdapterWeights({**w.named, "adapter.out_proj":
                               T.Tensor(rnd((8, 8), 23, scale=0.3))})
        report = AD.adapter_grad_check(w, T.Rng(24))
        assert report["__all__"]["ok"]

    def test_corrupted_backward_rule_is_flagged(self):
        w = make_weights(25)

        def corrupt(name, grad):
            if name == "adapter.conv1":
                return grad * 1.5 + 0.05
            return grad

        report = AD.adapter_grad_check(w, T.Rng(26), grad_transform=corrupt)
        assert not report["adapter.conv1"]["ok"]
        assert not report["__all__"]["ok"]
        others = [v["ok"] for k, v in report.items()
                  if k not in ("adapter.conv1", "__all__")]
        assert all(others)
