import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidmotion import injection as I
from vidmotion import tensor as T


def rnd(shape, seed=0):
    return np.random.default_rng(seed).normal(0, 1, shape).astype(np.float32)


def rmask(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n).astype(np.float32)


class TestDecoupleKv:
    def test_all_ones_mask(self):
        k, v = T.Tensor(rnd((4, 3), 1)), T.Tensor(rnd((4, 3), 2))
        k_fg, v_fg, k_bg, v_bg = I.decouple_kv(k, v, np.ones(4))
        np.testing.assert_array_equal(k_fg.data, k.data)
        np.testing.assert_array_equal(v_fg.data, v.data)
        assert (k_bg.data == 0).all() and (v_bg.data == 0).all()

    def test_all_zeros_mask(self):
        k, v = T.Tensor(rnd((4, 3), 3)), T.Tensor(rnd((4, 3), 4))
        k_fg, v_fg, k_bg, v_bg = I.decouple_kv(k, v, np.zeros(4))
        assert (k_fg.data == 0).all() and (v_fg.data == 0).all()
        np.testing.assert_array_equal(k_bg.data, k.data)
        np.testing.assert_array_equal(v_bg.data, v.data)

    def test_partition_bit_exact_and_disjoint_support(self):
        k, v = T.Tensor(rnd((8, 5), 5)), T.Tensor(rnd((8, 5), 6))
        m = rmask(8, 7)
        k_fg, v_fg, k_bg, v_bg = I.decouple_kv(k, v, m)
        np.testing.assert_array_equal(k_fg.data + k_bg.data, k.data)
        np.testing.assert_array_equal(v_fg.data + v_bg.data, v.data)
        assert not np.logical_and(k_fg.data != 0, k_bg.data != 0).any()

    def test_length_mismatch_rejected(self):
        with pytest.raises(I.MaskError):
            I.decouple_kv(T.zeros((4, 3)), T.zeros((4, 3)), np.ones(5))

    def test_non_binary_mask_rejected(self):
        with pytest.raises(I.MaskError):
            I.decouple_kv(T.zeros((2, 3)), T.zeros((2, 3)), np.array([0.5, 1.0]))

    @given(st.integers(1, 16), st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, d, seed):
        gen = np.random.default_rng(seed)
        k = gen.normal(0, 3, (n, d)).astype(np.float32)
        v = gen.normal(0, 3, (n, d)).astype(np.float32)
        m = gen.integers(0, 2, n).astype(np.float32)
        k_fg, _, k_bg, _ = I.decouple_kv(T.Tensor(k), T.Tensor(v), m)
        np.testing.assert_array_equal(k_fg.data + k_bg.data, k)


class TestBuildInjectedKv:
    def test_hand_assembled_stack(self):
        # N=2, d=1: recon blocks are 4x1, current block 2x1
        k_r = T.Tensor([[1.0], [2.0], [3.0], [4.0]])
        v_r = T.Tensor([[5.0], [6.0], [7.0], [8.0]])
        mask = np.array([1.0, 0.0, 0.0, 1.0])
        recon = I.decouple_kv(k_r, v_r, mask)
        k_cu = T.Tensor([[9.0], [10.0]])
        v_cu = T.Tensor([[11.0], [12.0]])
        k_inj, v_inj = I.build_injected_kv(recon, (k_cu, v_cu))
        assert k_inj.shape == (10, 1)
        np.testing.assert_array_equal(
            k_inj.data.reshape(-1),
            [1, 0, 0, 4, 0, 2, 3, 0, 9, 10])
        np.testing.assert_array_equal(
            v_inj.data.reshape(-1),
            [5, 0, 0, 8, 0, 6, 7, 0, 11, 12])

    def test_recon_equals_edit_full_foreground_layout(self):
        n, d = 3, 4
        k_full = T.Tensor(rnd((2 * n, d), 8))
        v_full = T.Tensor(rnd((2 * n, d), 9))
        recon = I.decouple_kv(k_full, v_full, np.ones(2 * n))
        k_cu = T.slice_axis(k_full, 0, n, 2 * n)
        v_cu = T.slice_axis(v_full, 0, n, 2 * n)
        k_inj, v_inj = I.build_injected_kv(recon, (k_cu, v_cu))
        assert k_inj.shape == (5 * n, d)
        np.testing.assert_array_equal(k_inj.data[:2 * n], k_full.data)
        assert (k_inj.data[2 * n:4 * n] == 0).all()
        np.testing.assert_array_equal(k_inj.data[4 * n:], k_cu.data)

    def test_slicing_recovers_constituents_bit_exact(self):
        n, d = 4, 6
        recon = I.decouple_kv(T.Tensor(rnd((2 * n, d), 10)),
                              T.Tensor(rnd((2 * n, d), 11)), rmask(2 * n, 12))
        cur = (T.Tensor(rnd((n, d), 13)), T.Tensor(rnd((n, d), 14)))
        k_inj, v_inj = I.build_injected_kv(recon, cur)
        assert k_inj.shape == (5 * n, d) and v_inj.shape == (5 * n, d)
        np.testing.assert_array_equal(k_inj.data[:2 * n], recon[0].data)
        np.testing.assert_array_equal(k_inj.data[2 * n:4 * n], recon[2].data)
        np.testing.assert_array_equal(k_inj.data[4 * n:], cur[0].data)
        np.testing.assert_array_equal(v_inj.data[:2 * n], recon[1].data)
        np.testing.assert_array_equal(v_inj.data[2 * n:4 * n], recon[3].data)
        np.testing.assert_array_equal(v_inj.data[4 * n:], cur[1].data)

    def test_width_mismatch_rejected(self):
        recon = I.decouple_kv(T.zeros((4, 3)), T.zeros((4, 3)), np.ones(4))
        with pytest.raises(T.ShapeError):
            I.build_injected_kv(recon, (T.zeros((2, 5)), T.zeros((2, 5))))


class TestFrameAxis:
    F, N, D = 3, 4, 5

    def frame_masks(self):
        two_n = 2 * self.N
        return np.stack([np.ones(two_n), np.zeros(two_n), rmask(two_n, 40)]
                        ).astype(np.float32)

    @pytest.mark.parametrize("drop", [False, True])
    def test_rank3_stack_equals_per_frame_stacking(self, drop):
        f, n, d = self.F, self.N, self.D
        k, v = rnd((f, 2 * n, d), 41), rnd((f, 2 * n, d), 42)
        k_cu, v_cu = rnd((f, n, d), 43), rnd((f, n, d), 44)
        masks = self.frame_masks()
        recon = I.decouple_kv(T.Tensor(k), T.Tensor(v), masks)
        if drop:
            k_inj, v_inj = I.join_current(
                I.CsMask.of(masks).block(T.Tensor(k), T.Tensor(v), True),
                (T.Tensor(k_cu), T.Tensor(v_cu)))
        else:
            k_inj, v_inj = I.build_injected_kv(recon, (T.Tensor(k_cu), T.Tensor(v_cu)))
        for i in range(f):
            recon_i = I.decouple_kv(T.Tensor(k[i]), T.Tensor(v[i]), masks[i])
            for batched, single in zip(recon, recon_i):
                np.testing.assert_array_equal(batched.data[i], single.data)
            if drop:  # frame i alone, as a 1-frame stack
                one = slice(i, i + 1)
                k_i, v_i = (x.data[0] for x in I.join_current(
                    I.CsMask.of(masks[one]).block(T.Tensor(k[one]), T.Tensor(v[one]),
                                                  True),
                    (T.Tensor(k_cu[one]), T.Tensor(v_cu[one]))))
            else:
                k_i, v_i = (x.data for x in I.build_injected_kv(
                    recon_i, (T.Tensor(k_cu[i]), T.Tensor(v_cu[i]))))
            np.testing.assert_array_equal(k_inj.data[i], k_i)
            np.testing.assert_array_equal(v_inj.data[i], v_i)
            fg = masks[i].astype(bool)
            if drop:
                want = np.concatenate([k[i][fg], k[i][~fg], k_cu[i]])
            else:
                want = np.concatenate([k[i] * fg[:, None], k[i] * ~fg[:, None],
                                       k_cu[i]])
            np.testing.assert_array_equal(k_inj.data[i], want)

    def test_frame_count_mismatch_rejected(self):
        f, n, d = self.F, self.N, self.D
        k = T.zeros((f, 2 * n, d))
        short = self.frame_masks()[:2]
        with pytest.raises(I.MaskError):
            I.decouple_kv(k, k, short)
        with pytest.raises(I.MaskError):
            I.CsMask.of(short).block(k, k, drop_masked_tokens=True)


class TestCsMask:
    F, N2, D = 3, 8, 5

    def mask(self, kind):
        if kind == "random":
            return np.stack([rmask(self.N2, 50 + f) for f in range(self.F)])
        return np.full((self.F, self.N2), 1.0 if kind == "all-1" else 0.0, np.float32)

    @pytest.mark.parametrize("kind", ["random", "all-0", "all-1"])
    def test_drop_block_from_undecoupled_keys_equals_gather_of_the_sum(self, kind):
        m = self.mask(kind)
        k = T.Tensor(rnd((self.F, self.N2, self.D), 51))
        v = T.Tensor(rnd((self.F, self.N2, self.D), 52))
        (k_block,), (v_block,) = I.CsMask.of(m).block(k, v, drop_masked_tokens=True)
        k_fg, v_fg, k_bg, v_bg = I.decouple_kv(k, v, m)
        rows = np.argsort(1.0 - m, axis=-1, kind="stable")[..., None]
        np.testing.assert_array_equal(
            k_block.data, np.take_along_axis(k_fg.data + k_bg.data, rows, axis=-2))
        np.testing.assert_array_equal(
            v_block.data, np.take_along_axis(v_fg.data + v_bg.data, rows, axis=-2))

    def test_block_joined_with_current_equals_build_injected_kv(self):
        m = self.mask("random")
        k = T.Tensor(rnd((self.F, self.N2, self.D), 53))
        v = T.Tensor(rnd((self.F, self.N2, self.D), 54))
        cur = (T.Tensor(rnd((self.F, self.N2 // 2, self.D), 55)),
               T.Tensor(rnd((self.F, self.N2 // 2, self.D), 56)))
        got = I.join_current(I.CsMask.of(m).block(k, v, False), cur)
        want = I.build_injected_kv(I.decouple_kv(k, v, m), cur)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.data, w.data)

    def test_drop_masked_tokens_variant(self):
        n, d = 2, 3
        k_r = T.Tensor(rnd((1, 2 * n, d), 15))
        v_r = T.Tensor(rnd((1, 2 * n, d), 16))
        mask = np.array([[1.0, 0.0, 1.0, 0.0]])
        cur = (T.Tensor(rnd((1, n, d), 17)), T.Tensor(rnd((1, n, d), 18)))
        k_inj, _ = I.join_current(I.CsMask.of(mask).block(k_r, v_r, True), cur)
        assert k_inj.shape == (1, 3 * n, d)  # 2N kept rows + N current
        np.testing.assert_array_equal(k_inj.data[0, 0], k_r.data[0, 0])
        np.testing.assert_array_equal(k_inj.data[0, 1], k_r.data[0, 2])
        np.testing.assert_array_equal(k_inj.data[0, 2], k_r.data[0, 1])
        np.testing.assert_array_equal(k_inj.data[0, 3], k_r.data[0, 3])

    @pytest.mark.parametrize("tracked", range(2))
    def test_drop_mode_refuses_tracked_reconstruction_keys(self, tracked):
        n, d = 2, 3
        cs = I.CsMask.of(np.array([[1.0, 0.0, 1.0, 0.0]]))
        kv = [T.Tensor(rnd((1, 2 * n, d), 19)), T.Tensor(rnd((1, 2 * n, d), 20))]
        tape = T.Tape()
        kv[tracked] = tape.watch(kv[tracked])
        cur = (T.Tensor(rnd((1, n, d), 21)), T.Tensor(rnd((1, n, d), 22)))
        with pytest.raises(T.TapeError):
            cs.block(*kv, True)
        k_inj, v_inj = I.join_current(cs.block(*kv, False), cur)  # 5N pieces record
        assert (k_inj if tracked == 0 else v_inj).node is not None

    def test_drop_mode_keeps_the_current_frames_gradient(self):
        n, d = 2, 3
        cs = I.CsMask.of(np.array([[0.0, 1.0, 1.0, 0.0]]))
        block = cs.block(T.Tensor(rnd((1, 2 * n, d), 23)),
                         T.Tensor(rnd((1, 2 * n, d), 24)), True)
        tape = T.Tape()
        k_cu = tape.watch(T.Tensor(rnd((1, n, d), 25)))
        k_inj, _ = I.join_current(block, (k_cu, T.Tensor(rnd((1, n, d), 26))))
        T.backward(tape, T.sum(k_inj))
        np.testing.assert_array_equal(tape.grad(k_cu).data, np.ones((1, n, d)))

    def test_latent_mask_prepares_each_level_once_and_validates(self):
        masks = (rnd((3, 32, 32), 57) > 0).astype(np.float32)
        lm = I.LatentMask.from_rasters(masks, {0: (8, 8), 1: (4, 4)})
        assert lm.cs(0) is lm.cs(0)
        np.testing.assert_array_equal(lm.cs(1).keep.data[..., 0], lm.cs_mask(1))
        bad = I.LatentMask({0: np.full((3, 4), 0.5, np.float32)})
        with pytest.raises(I.MaskError):
            bad.cs(0)

    def test_block_rejects_keys_of_another_frame_count(self):
        k = T.zeros((self.F + 1, self.N2, self.D))
        with pytest.raises(I.MaskError):
            I.CsMask.of(self.mask("random")).block(k, k, drop_masked_tokens=False)


class TestGate:
    TOPOLOGY = {"enc0": "encoder", "enc1": "encoder", "mid": "mid",
                "dec1": "decoder", "dec0": "decoder"}

    def test_encoder_false(self):
        assert I.gate("enc0", self.TOPOLOGY) is False
        assert I.gate("enc1", self.TOPOLOGY) is False

    def test_decoder_true(self):
        assert I.gate("dec1", self.TOPOLOGY) is True
        assert I.gate("dec0", self.TOPOLOGY) is True

    def test_mid_false_by_default_flag_flips(self):
        assert I.gate("mid", self.TOPOLOGY) is False
        assert I.gate("mid", self.TOPOLOGY, inject_mid=True) is True

    def test_unknown_layer_rejected(self):
        with pytest.raises(I.GateError):
            I.gate("bogus", self.TOPOLOGY)


class TestMasks:
    def test_downsample_preserves_binary(self):
        m = (rnd((32, 32), 31) > 0).astype(np.float32)
        out = I.downsample_mask(m, 8, 8)
        assert out.shape == (8, 8)
        assert np.isin(out, (0.0, 1.0)).all()

    def test_constant_masks_survive(self):
        assert (I.downsample_mask(np.ones((16, 16)), 4, 4) == 1).all()
        assert (I.downsample_mask(np.zeros((16, 16)), 4, 4) == 0).all()

    def test_stack_downsample_matches_each_frame(self):
        masks = (rnd((3, 32, 32), 38) > 0).astype(np.float32)
        stacked = I.downsample_mask(masks, 8, 8)
        lm = I.LatentMask.from_rasters(masks, {0: (8, 8), 1: (4, 4)})
        for f in range(3):
            np.testing.assert_array_equal(stacked[f], I.downsample_mask(masks[f], 8, 8))
            for level, hw in ((0, (8, 8)), (1, (4, 4))):
                np.testing.assert_array_equal(
                    lm.levels[level][f], I.downsample_mask(masks[f], *hw).reshape(-1))

    def test_pyramid_shapes_and_cs_tokens(self):
        masks = (rnd((3, 32, 32), 32) > 0).astype(np.float32)
        lm = I.LatentMask.from_rasters(masks, {0: (8, 8), 1: (4, 4)})
        assert lm.levels[0].shape == (3, 64)
        assert lm.levels[1].shape == (3, 16)
        two_n = lm.cs_mask(0)[2]
        assert two_n.shape == (128,)
        np.testing.assert_array_equal(two_n[:64], lm.levels[0][1])
        np.testing.assert_array_equal(two_n[64:], lm.levels[0][2])
        # frame 0 clamps the preceding mask to itself
        np.testing.assert_array_equal(lm.cs_mask(0)[0][:64], lm.levels[0][0])

    def test_cs_mask_stacks_cs_tokens_of_every_frame(self):
        masks = (rnd((3, 32, 32), 39) > 0).astype(np.float32)
        lm = I.LatentMask.from_rasters(masks, {0: (8, 8), 1: (4, 4)})
        for level in (0, 1):
            stacked = lm.cs_mask(level)
            for frame in range(3):
                prev = lm.levels[level][max(frame - 1, 0)]
                np.testing.assert_array_equal(
                    stacked[frame], np.concatenate([prev, lm.levels[level][frame]]))


class TestReconCache:
    def test_write_once_then_read(self):
        c = I.ReconCache()
        k0, v0 = rnd((2, 4, 3), 33), rnd((2, 4, 3), 34)
        c.put("cs", "dec0", 5, k0, v0)
        k, v = c.get("cs", "dec0", 5)
        np.testing.assert_array_equal(k.data, k0)
        np.testing.assert_array_equal(v.data, v0)
        assert c.writes == 1 and c.reads == {"cs": 1, "temporal": 0}

    def test_duplicate_write_rejected(self):
        c = I.ReconCache()
        c.put("cs", "dec0", 5, rnd((2, 4, 3), 35), rnd((2, 4, 3), 36))
        with pytest.raises(I.CacheError):
            c.put("cs", "dec0", 5, rnd((2, 4, 3), 35), rnd((2, 4, 3), 36))

    def test_miss_raises_with_key(self):
        c = I.ReconCache()
        with pytest.raises(I.CacheError) as exc:
            c.get("cs", "dec1", 7)
        assert "dec1" in str(exc.value) and "t=7" in str(exc.value)

    def test_read_of_a_spent_step_misses(self):
        c = I.ReconCache()
        c.put("temporal", "dec1", 3, rnd((2, 4, 3), 37), rnd((2, 4, 3), 38))
        k4, v4 = rnd((2, 4, 3), 39), rnd((2, 4, 3), 40)
        c.put("temporal", "dec1", 4, k4, v4)
        with pytest.raises(I.CacheError, match="cache miss"):
            c.get("temporal", "dec1", 3)
        k, v = c.get("temporal", "dec1", 4)
        np.testing.assert_array_equal(k.data, k4)
        np.testing.assert_array_equal(v.data, v4)

    def test_kinds_of_one_layer_and_step_live_side_by_side(self):
        c = I.ReconCache()
        cs_kv = rnd((2, 4, 3), 41), rnd((2, 4, 3), 42)
        temporal_kv = rnd((4, 2, 3), 43), rnd((4, 2, 3), 44)
        c.put("cs", "dec0", 5, *cs_kv)
        c.put("temporal", "dec0", 5, *temporal_kv)
        for kind, want, reads in (("temporal", temporal_kv, {"cs": 0, "temporal": 1}),
                                  ("cs", cs_kv, {"cs": 1, "temporal": 1}),
                                  ("cs", cs_kv, {"cs": 2, "temporal": 1})):
            for got, w in zip(c.get(kind, "dec0", 5), want):
                assert got.data is w
            assert c.reads == reads
        assert c.writes == 2
        assert c.peak_bytes == sum(x.nbytes for x in (*cs_kv, *temporal_kv))

    def test_replays_a_logs_writes_in_order(self):
        log = I.CacheLog()
        writes = [("cs", "dec0", 5, rnd((2, 4, 3), 45), rnd((2, 4, 3), 46)),
                  ("temporal", "dec0", 5, rnd((4, 2, 3), 47), rnd((4, 2, 3), 48))]
        for write in writes:
            log.put(*write)
        taken = log.take()
        assert taken == writes and log.take() == []
        c = I.ReconCache()
        c.replay(taken)
        assert c.writes == 2
        for kind, layer, t, k, v in writes:
            got_k, got_v = c.get(kind, layer, t)
            assert got_k.data is k and got_v.data is v
