import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vidmotion import skeleton as S


def blob_mask(h, w, y0, x0, bh, bw):
    m = np.zeros((h, w), dtype=np.float32)
    m[y0:y0 + bh, x0:x0 + bw] = 1.0
    return m


def line_raster(h, w, points):
    joints = {f"j{i}": (float(x), float(y), 1.0) for i, (x, y) in enumerate(points)}
    bones = [(f"j{i}", f"j{i + 1}") for i in range(len(points) - 1)]
    return S.render_keypoints(joints, h, w, bones).astype(np.float32)


CANONICAL_JOINTS = {
    "nose": (32, 10, 1.0), "neck": (32, 18, 1.0),
    "r_shoulder": (24, 19, 1.0), "r_elbow": (20, 28, 1.0), "r_wrist": (18, 37, 1.0),
    "l_shoulder": (40, 19, 1.0), "l_elbow": (44, 28, 1.0), "l_wrist": (46, 37, 1.0),
    "r_hip": (27, 38, 1.0), "r_knee": (26, 48, 1.0), "r_ankle": (25, 58, 1.0),
    "l_hip": (37, 38, 1.0), "l_knee": (38, 48, 1.0), "l_ankle": (39, 58, 1.0),
    "r_eye": (29, 8, 1.0), "r_ear": (26, 9, 1.0),
    "l_eye": (35, 8, 1.0), "l_ear": (38, 9, 1.0),
}


class TestBoundingRect:
    def test_single_pixel(self):
        m = np.zeros((10, 10))
        m[5, 3] = 1
        box = S.bounding_rect(m)
        assert (box.x, box.y, box.w, box.h) == (3, 5, 1, 1)

    def test_full_frame(self):
        box = S.bounding_rect(np.ones((7, 9)))
        assert (box.x, box.y, box.w, box.h) == (0, 0, 9, 7)

    def test_l_shaped_blob_matches_exhaustive_scan(self):
        m = np.zeros((20, 30))
        m[4:12, 5:8] = 1
        m[10:12, 5:25] = 1
        box = S.bounding_rect(m)
        ys, xs = [], []
        for y in range(20):
            for x in range(30):
                if m[y, x]:
                    ys.append(y)
                    xs.append(x)
        assert box.x == min(xs) and box.y == min(ys)
        assert box.w == max(xs) - min(xs) + 1
        assert box.h == max(ys) - min(ys) + 1

    def test_empty_mask_rejected(self):
        with pytest.raises(S.EmptyMaskError):
            S.bounding_rect(np.zeros((5, 5)))


class TestForegroundCenter:
    def test_two_pixel_midpoint(self):
        m = np.zeros((4, 4))
        m[0, 0] = 1
        m[0, 2] = 1
        assert S.foreground_center(m) == (1.0, 0.0)

    def test_symmetric_disk(self):
        yy, xx = np.mgrid[0:21, 0:21]
        m = ((yy - 10) ** 2 + (xx - 10) ** 2 <= 36).astype(float)
        cx, cy = S.foreground_center(m)
        assert abs(cx - 10) < 0.5 and abs(cy - 10) < 0.5

    def test_random_blob_matches_brute_force(self):
        m = (np.random.default_rng(1).uniform(size=(15, 17)) > 0.6).astype(float)
        cx, cy = S.foreground_center(m)
        xs, ys = [], []
        for y in range(15):
            for x in range(17):
                if m[y, x]:
                    xs.append(x)
                    ys.append(y)
        assert abs(cx - sum(xs) / len(xs)) < 1e-9
        assert abs(cy - sum(ys) / len(ys)) < 1e-9

    def test_empty_mask_rejected(self):
        with pytest.raises(S.EmptyMaskError):
            S.foreground_center(np.zeros((3, 3)))


class TestAlign:
    def test_identity_fixture_reproduces_source_exactly(self):
        mask = blob_mask(32, 32, 8, 10, 16, 9)
        skel = line_raster(32, 32, [(12, 10), (14, 22)])
        res = S.align(skel, mask, skel, mask)
        np.testing.assert_array_equal(res.skeleton, skel)
        assert res.report["ratio"] == pytest.approx(9 / 16)
        assert res.report["offset"] == [0, 0]
        assert res.report["v_trans"] == [0.0, 0.0]

    def test_translation_fixture_recovers_offset(self):
        mask = blob_mask(40, 40, 6, 5, 14, 8)
        skel = line_raster(40, 40, [(7, 8), (11, 18)])
        mask_shift = blob_mask(40, 40, 12, 11, 14, 8)
        skel_shift = S.translate(skel, 6, 6, nearest=False)
        res = S.align(skel, mask, skel_shift, mask_shift)
        assert res.report["offset"] == [-6, -6]
        assert res.report["v_trans"] == [0.0, 0.0]
        np.testing.assert_allclose(res.skeleton, skel, atol=1e-9)

    def test_hand_traced_resize_arithmetic(self):
        # source bbox 100 tall, reference bbox 50x25 -> ratio 0.5, w* = 50
        src_mask = blob_mask(128, 128, 10, 30, 100, 60)
        ref_mask = blob_mask(128, 128, 20, 40, 50, 25)
        skel = line_raster(128, 128, [(45, 30), (52, 60)])
        res = S.align(skel, src_mask, skel, ref_mask)
        assert res.report["ratio"] == pytest.approx(0.5)
        assert res.report["w_star"] == 50

    def test_scale_correctness_solid_rect(self):
        src_mask = blob_mask(64, 64, 10, 20, 30, 12)
        ref_mask = blob_mask(64, 64, 5, 8, 20, 16)
        skel = np.zeros((64, 64))
        skel[5:25, 8:24] = 200.0
        res = S.align(skel, src_mask, skel, ref_mask)
        out_box = S.bounding_rect(res.mask)
        assert out_box.h == 30  # source bbox height, exactly
        want_aspect = 16 / 20
        assert abs(out_box.w / out_box.h - want_aspect) <= 1.5 / out_box.h

    def test_translation_correctness_centroids_match(self):
        src_mask = blob_mask(64, 64, 30, 40, 21, 11)
        ref_mask = blob_mask(64, 64, 4, 6, 21, 11)
        skel = np.zeros((64, 64))
        skel[4:25, 6:17] = 130.0
        res = S.align(skel, src_mask, skel, ref_mask)
        cx_s, cy_s = S.foreground_center(src_mask)
        cx_o, cy_o = S.foreground_center(res.mask)
        assert abs(cx_o - cx_s) <= 0.5 and abs(cy_o - cy_s) <= 0.5

    def test_idempotent_on_identity_fixture(self):
        mask = blob_mask(32, 32, 8, 10, 16, 9)
        skel = line_raster(32, 32, [(12, 10), (14, 22)])
        first = S.align(skel, mask, skel, mask)
        second = S.align(skel, mask, first.skeleton, first.mask)
        np.testing.assert_array_equal(second.skeleton, first.skeleton)

    def test_overflow_paste_clamped_with_warning(self):
        # wide reference into a narrow source bbox near the left edge
        src_mask = blob_mask(64, 64, 10, 1, 20, 4)
        ref_mask = blob_mask(64, 64, 10, 2, 10, 40)
        skel = np.zeros((64, 64))
        skel[10:20, 2:42] = 99.0
        with pytest.warns(UserWarning):
            res = S.align(skel, src_mask, skel, ref_mask)
        assert res.report["clipped"] is True
        assert res.skeleton.shape == (64, 64)

    def test_empty_masks_rejected_by_side(self):
        skel = np.zeros((16, 16))
        good = blob_mask(16, 16, 2, 2, 5, 5)
        with pytest.raises(S.EmptyMaskError, match="source"):
            S.align(skel, np.zeros((16, 16)), skel, good)
        with pytest.raises(S.EmptyMaskError, match="reference"):
            S.align(skel, good, skel, np.zeros((16, 16)))

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(S.RasterError):
            S.align(np.zeros((8, 8)), np.ones((8, 8)),
                    np.zeros((9, 9)), np.ones((9, 9)))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzz_aligns_any_masks_or_raises_a_raster_error(self, data):
        side = st.integers(1, 11)
        source = data.draw(st.tuples(side, side), label="source shape")
        reference = data.draw(st.one_of(st.just(source), st.tuples(side, side)),
                              label="reference shape")

        def raster(shape, values):
            return data.draw(arrays(np.float32, shape, elements=values))
        mask, intensity = st.sampled_from([0.0, 1.0]), st.floats(0, 255, width=32)
        args = (raster(source, intensity), raster(source, mask),
                raster(reference, intensity), raster(reference, mask))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a clipped paste
            warnings.simplefilter("error", RuntimeWarning)
            try:
                res = S.align(*args)
            except (S.EmptyMaskError, S.RasterError):
                return
        assert res.skeleton.shape == source and np.isfinite(res.skeleton).all()


def zero_filled_shift(img, dx, dy):
    """Reference integer shift: out[y, x] = img[y - dy, x - dx], zero where
    that read falls outside the frame."""
    h, w = img.shape
    out = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            if 0 <= y - dy < h and 0 <= x - dx < w:
                out[y, x] = img[y - dy, x - dx]
    return out


class TestResample:
    @pytest.mark.parametrize("nearest", [False, True], ids=["bilinear", "nearest"])
    @pytest.mark.parametrize("dx,dy", [(0, 0), (3, 2), (-2, -4), (5, -1), (-1, 3),
                                       (12, 0), (0, -9), (-20, 20)])
    def test_integer_shift_is_a_zero_filled_shift(self, nearest, dx, dy):
        img = np.random.default_rng(5).normal(0, 1, (9, 10))
        np.testing.assert_array_equal(S.translate(img, dx, dy, nearest),
                                      zero_filled_shift(img, dx, dy))

    @pytest.mark.parametrize("out_hw", [(8, 8), (4, 6), (12, 5)])
    def test_resize_nearest_of_a_stack_matches_each_raster(self, out_hw):
        stack = np.random.default_rng(6).normal(0, 1, (3, 10, 7))
        got = S.resize_nearest(stack, *out_hw)
        assert got.shape == (3, *out_hw)
        for f in range(3):
            np.testing.assert_array_equal(got[f], S.resize_nearest(stack[f], *out_hw))


class TestRenderKeypoints:
    def test_two_joints_draw_one_segment_with_lit_endpoints(self):
        out = S.render_keypoints({"a": (2, 3, 1.0), "b": (12, 3, 1.0)},
                                 16, 16, [("a", "b")])
        assert out[3, 2] == 255 and out[3, 12] == 255
        assert out[3, 7] == 255
        assert out[10, 7] == 0

    def test_antialiased_falloff(self):
        out = S.render_keypoints({"a": (2.0, 8.0, 1.0), "b": (14.0, 8.0, 1.0)},
                                 16, 16, [("a", "b")])
        assert out[8, 8] == 255      # on the line
        assert 0 < out[9, 8] <= 255  # within the 2-px core
        assert out[11, 8] == 0       # beyond the falloff

    def test_missing_joints_skip_bones(self):
        joints = {"a": (2, 2, 1.0), "b": (10, 10, 1.0), "c": (5, 5, 0.0)}
        out = S.render_keypoints(joints, 16, 16, [("a", "b"), ("b", "c")])
        assert out.max() == 255

    def test_fewer_than_two_present_rejected(self):
        with pytest.raises(S.KeypointError):
            S.render_keypoints({"a": (2, 2, 1.0), "b": (3, 3, 0.0)},
                               8, 8, [("a", "b")])

    def test_two_coincident_joints_rejected(self):
        with pytest.raises(S.KeypointError):
            S.render_keypoints({"a": (2, 2, 1.0), "b": (2, 2, 1.0)},
                               8, 8, [("a", "b")])

    def test_out_of_bounds_joint_rejected(self):
        with pytest.raises(S.KeypointError):
            S.render_keypoints({"a": (2, 2, 1.0), "b": (99, 2, 1.0)},
                               8, 8, [("a", "b")])

    def test_canonical_figure_matches_golden_hash(self):
        out = S.render_keypoints(CANONICAL_JOINTS, 64, 64)
        digest = hashlib.sha256(out.tobytes()).hexdigest()
        assert out.shape == (64, 64)
        assert out.max() == 255
        assert 400 < int((out > 0).sum()) < 1200  # plausible stroke coverage
        # pinned from the first render after visual review of the figure
        assert digest == ("0ff879cb599eba6f79d4bb48172f3ff4"
                          "0f40c8c730d03f8579da9fc15867778b")

    def test_deterministic(self):
        a = S.render_keypoints(CANONICAL_JOINTS, 64, 64)
        b = S.render_keypoints(CANONICAL_JOINTS, 64, 64)
        np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    """One file the fuzz tests rewrite per example (hypothesis rejects
    function-scoped fixtures)."""
    return tmp_path_factory.mktemp("fuzz") / "f.pgm"


class TestFileFormats:
    def test_pgm_round_trip(self, tmp_path):
        img = np.random.default_rng(2).integers(0, 256, (12, 9)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        S.write_pgm(path, img)
        np.testing.assert_array_equal(S.read_pgm(path), img)

    def test_pgm_header(self, tmp_path):
        path = tmp_path / "y.pgm"
        S.write_pgm(path, np.zeros((3, 5), np.uint8))
        assert path.read_bytes().startswith(b"P5\n5 3\n255\n")

    def test_pgm_comment_support(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
        img = S.read_pgm(path)
        assert img.shape == (2, 3)
        assert img.tobytes() == payload

    def test_mask_pgm_binary_convention(self, tmp_path):
        mask = (np.random.default_rng(3).uniform(size=(8, 8)) > 0.5).astype(np.float32)
        path = tmp_path / "m.pgm"
        S.write_mask_pgm(path, mask)
        raw = S.read_pgm(path)
        assert set(np.unique(raw)) <= {0, 255}
        np.testing.assert_array_equal(S.read_mask_pgm(path), mask)

    def test_non_pgm_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(S.RasterError):
            S.read_pgm(path)

    @staticmethod
    def _reads_or_raster_error(path, raw):
        path.write_bytes(raw)
        try:
            img = S.read_pgm(path)
        except S.RasterError:
            return
        assert isinstance(img, np.ndarray) and img.dtype == np.uint8

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=48))
    def test_fuzz_arbitrary_bytes(self, fuzz_path, raw):
        self._reads_or_raster_error(fuzz_path, b"P5" + raw)
        self._reads_or_raster_error(fuzz_path, raw)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_fuzz_truncated_and_mutated_files(self, fuzz_path, w, h, data):
        S.write_pgm(fuzz_path, np.arange(w * h, dtype=np.uint8).reshape(h, w))
        raw = fuzz_path.read_bytes()
        cut = data.draw(st.integers(0, len(raw)), label="cut")
        self._reads_or_raster_error(fuzz_path, raw[:cut])
        mutated = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 4), label="flips")):
            pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
            mutated[pos] = data.draw(st.integers(0, 255), label="byte")
        self._reads_or_raster_error(fuzz_path, bytes(mutated))
