import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidmotion import attention as A
from vidmotion import tensor as T
from vidmotion.gradcheck import check_gradient


def rnd(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0, scale, shape).astype(np.float32)


def brute_attend(q, k, v):
    """Independent oracle: explicit loops, float64."""
    q, k, v = (np.asarray(x, dtype=np.float64) for x in (q, k, v))
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        scores = np.array([q[i] @ k[j] / math.sqrt(q.shape[1])
                           for j in range(k.shape[0])])
        scores -= scores.max()
        w = np.exp(scores)
        w /= w.sum()
        out[i] = w @ v
    return out


def pset(seed, d):
    return A.init_projection_set(T.Rng(seed), d)


class TestAttend:
    def test_single_key_returns_that_value_row(self):
        q = T.Tensor(rnd((5, 4), 1))
        k = T.Tensor(rnd((1, 4), 2))
        v = T.Tensor(rnd((1, 4), 3))
        out = A.attend(q, k, v)
        for row in out.data:
            np.testing.assert_allclose(row, v.data[0], rtol=1e-6)

    def test_identical_keys_give_mean_of_values(self):
        q = T.Tensor(rnd((3, 4), 4))
        k = T.Tensor(np.tile(rnd((1, 4), 5), (6, 1)))
        v = T.Tensor(rnd((6, 4), 6))
        out = A.attend(q, k, v)
        np.testing.assert_allclose(out.data,
                                   np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-6)

    def test_duplicated_kv_block_matches_single_copy(self):
        q = T.Tensor(rnd((4, 8), 7))
        k = T.Tensor(rnd((5, 8), 8))
        v = T.Tensor(rnd((5, 8), 9))
        single = A.attend(q, k, v)
        doubled = A.attend(q, T.concat([k, k], axis=0), T.concat([v, v], axis=0))
        np.testing.assert_allclose(doubled.data, single.data, atol=1e-5)

    def test_empty_keys_rejected(self):
        with pytest.raises(T.ShapeError):
            A.attend(T.zeros((2, 4)), T.zeros((0, 4)), T.zeros((0, 4)))

    def test_width_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            A.attend(T.zeros((2, 4)), T.zeros((3, 5)), T.zeros((3, 5)))

    @pytest.mark.parametrize("q,k,v", [
        ((2, 4), (2, 3, 4), (2, 3, 4)),
        ((2, 2, 4), (3, 4), (2, 3, 4)),
        ((2, 2, 4), (2, 3, 4), (3, 4)),
        ((2, 2, 4), (3, 3, 4), (3, 3, 4)),
        ((2, 2, 4), (2, 3, 4), (1, 3, 4)),
        ((2, 2, 2, 4), (3, 4), (3, 4)),
    ], ids=["q-rank2", "k-rank2", "v-rank2", "kv-batch", "v-batch", "q-rank4"])
    def test_mixed_ranks_or_batch_sizes_rejected(self, q, k, v):
        with pytest.raises(T.ShapeError):
            A.attend(T.zeros(q), T.zeros(k), T.zeros(v))

    def test_shared_rank2_keys_match_repeated_keys(self):
        q, k, v = rnd((3, 4, 8), 57), rnd((5, 8), 58), rnd((5, 8), 59)
        shared = A.attend(T.Tensor(q), T.Tensor(k), T.Tensor(v)).data
        repeated = A.attend(T.Tensor(q), T.Tensor(np.stack([k] * 3)),
                            T.Tensor(np.stack([v] * 3))).data
        assert shared.shape == (3, 4, 8)
        np.testing.assert_allclose(shared, repeated, rtol=1e-6)

    @pytest.mark.parametrize("operand", ["q", "k", "v"])
    def test_shared_rank2_keys_gradcheck(self, operand):
        args = {"q": rnd((3, 4, 6), 60), "k": rnd((5, 6), 61), "v": rnd((5, 6), 62)}
        probe = T.Tensor(rnd((3, 4, 6), 63))

        def f(x):
            parts = {name: x if name == operand else T.Tensor(a)
                     for name, a in args.items()}
            return T.mean(T.mul(A.attend(parts["q"], parts["k"], parts["v"]), probe))

        ok, err = check_gradient(f, args[operand], h=1e-3, tol=1e-3)
        assert ok, f"{operand}: relative error {err}"

    def test_matches_brute_force(self):
        q, k, v = rnd((6, 8), 10), rnd((4, 8), 11), rnd((4, 8), 12)
        out = A.attend(T.Tensor(q), T.Tensor(k), T.Tensor(v))
        np.testing.assert_allclose(out.data, brute_attend(q, k, v), atol=1e-5)

    def test_rows_are_convex_combinations(self):
        q, k = rnd((3, 4), 13), rnd((5, 4), 14)
        v = np.abs(rnd((5, 4), 15)) + 1.0
        out = A.attend(T.Tensor(q), T.Tensor(k), T.Tensor(v)).data
        assert (out >= v.min(axis=0) - 1e-5).all()
        assert (out <= v.max(axis=0) + 1e-5).all()

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(2, 8),
           st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_equivariance(self, nq, nk, d, seed):
        gen = np.random.default_rng(seed)
        q = gen.normal(0, 1, (nq, d)).astype(np.float32)
        k = gen.normal(0, 1, (nk, d)).astype(np.float32)
        v = gen.normal(0, 1, (nk, d)).astype(np.float32)
        perm = gen.permutation(nk)
        a = A.attend(T.Tensor(q), T.Tensor(k), T.Tensor(v)).data
        b = A.attend(T.Tensor(q), T.Tensor(k[perm]), T.Tensor(v[perm])).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_weight_rows_sum_to_one(self):
        q, k = rnd((4, 8), 16), rnd((6, 8), 17)
        scores = q @ k.T / math.sqrt(8)
        w = T.softmax(T.Tensor(scores), axis=1).data
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)

    def test_batched_matches_loop(self):
        q, k, v = rnd((3, 4, 8), 18), rnd((3, 5, 8), 19), rnd((3, 5, 8), 20)
        batched = A.attend(T.Tensor(q), T.Tensor(k), T.Tensor(v)).data
        for b in range(3):
            single = A.attend(T.Tensor(q[b]), T.Tensor(k[b]), T.Tensor(v[b])).data
            np.testing.assert_allclose(batched[b], single, atol=1e-6)


class TestCsAttention:
    def test_frame0_clamp_reduces_to_self_attention(self):
        d = 8
        p = pset(21, d)
        z = T.Tensor(rnd((4, d), 22))
        via_cs = A.cs_attention(z, z, p)
        q = T.matmul(z, p.w_q)
        k = T.matmul(z, p.w_k)
        v = T.matmul(z, p.w_v)
        plain = T.matmul(A.attend(q, k, v), p.w_out)
        np.testing.assert_allclose(via_cs.data, plain.data, atol=1e-5)

    def test_nonzero_duplicate_frames_same_equality(self):
        d = 6
        p = pset(23, d)
        z = T.Tensor(rnd((5, d), 24) + 2.0)
        via_cs = A.cs_attention(z, z, p)
        plain = T.matmul(A.attend(T.matmul(z, p.w_q), T.matmul(z, p.w_k),
                                  T.matmul(z, p.w_v)), p.w_out)
        np.testing.assert_allclose(via_cs.data, plain.data, atol=1e-5)

    def test_matches_brute_force_concat_oracle(self):
        d = 8
        p = pset(25, d)
        z_prev, z_cur = rnd((4, d), 26), rnd((4, d), 27)
        out = A.cs_attention(T.Tensor(z_prev), T.Tensor(z_cur), p)
        kv = np.concatenate([z_prev, z_cur], axis=0)
        want = brute_attend(z_cur @ p.w_q.data, kv @ p.w_k.data,
                            kv @ p.w_v.data) @ p.w_out.data.astype(np.float64)
        np.testing.assert_allclose(out.data, want, atol=1e-5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            A.cs_attention(T.zeros((3, 8)), T.zeros((4, 8)), pset(28, 8))

    def test_output_token_count_is_current_frame(self):
        p = pset(29, 8)
        out = A.cs_attention(T.Tensor(rnd((4, 8), 30)), T.Tensor(rnd((4, 8), 31)), p)
        assert out.shape == (4, 8)


class TestTemporalAttention:
    def test_single_frame_passthrough(self):
        d = 8
        p = pset(32, d)
        x = T.Tensor(rnd((1, d), 33))
        out = A.temporal_attention(x, p)
        want = T.matmul(T.matmul(x, p.w_v), p.w_out)
        np.testing.assert_allclose(out.data, want.data, atol=1e-6)

    def test_identical_frames_give_identical_outputs(self):
        d = 8
        p = pset(34, d)
        row = rnd((1, d), 35)
        out = A.temporal_attention(T.Tensor(np.tile(row, (5, 1))), p).data
        for r in out:
            np.testing.assert_allclose(r, out[0], atol=1e-6)

    def test_matches_brute_force(self):
        d = 8
        p = pset(36, d)
        x = rnd((3, d), 37)
        out = A.temporal_attention(T.Tensor(x), p)
        want = brute_attend(x @ p.w_q.data, x @ p.w_k.data,
                            x @ p.w_v.data) @ p.w_out.data.astype(np.float64)
        np.testing.assert_allclose(out.data, want, atol=1e-5)

    def test_empty_stack_rejected(self):
        with pytest.raises(T.ShapeError):
            A.temporal_attention(T.zeros((0, 8)), pset(38, 8))

    def test_batched_matches_per_location_loop(self):
        d = 8
        p = pset(39, d)
        stacks = rnd((6, 4, d), 40)
        batched = A.temporal_attention(T.Tensor(stacks), p).data
        for loc in range(6):
            single = A.temporal_attention(T.Tensor(stacks[loc]), p).data
            np.testing.assert_allclose(batched[loc], single, atol=1e-6)


class TestContentCrossAttention:
    def test_single_latent_token_broadcasts_its_value(self):
        d = 8
        p = pset(41, d)
        m = T.Tensor(rnd((5, d), 42))
        z = T.Tensor(rnd((1, d), 43))
        out = A.content_cross_attention(m, z, p)
        want = (z.data @ p.w_v.data) @ p.w_out.data
        for row in out.data:
            np.testing.assert_allclose(row, want[0], rtol=2e-5, atol=1e-6)

    def test_reduces_to_self_attention_when_m_equals_z(self):
        d = 8
        p = pset(44, d)
        z = T.Tensor(rnd((4, d), 45))
        out = A.content_cross_attention(z, z, p)
        plain = T.matmul(A.attend(T.matmul(z, p.w_q), T.matmul(z, p.w_k),
                                  T.matmul(z, p.w_v)), p.w_out)
        np.testing.assert_allclose(out.data, plain.data, atol=1e-6)

    def test_matches_brute_force_different_token_counts(self):
        d = 8
        p = pset(46, d)
        m, z = rnd((6, d), 47), rnd((4, d), 48)
        out = A.content_cross_attention(T.Tensor(m), T.Tensor(z), p)
        want = brute_attend(m @ p.w_q.data, z @ p.w_k.data,
                            z @ p.w_v.data) @ p.w_out.data.astype(np.float64)
        assert out.shape == (6, d)
        np.testing.assert_allclose(out.data, want, atol=1e-5)

    def test_width_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            A.content_cross_attention(T.zeros((2, 4)), T.zeros((3, 8)), pset(49, 8))

    def test_batched_matches_per_frame_loop(self):
        d = 8
        p = pset(57, d)
        m, z = rnd((3, 6, d), 58), rnd((3, 4, d), 59)
        batched = A.content_cross_attention(T.Tensor(m), T.Tensor(z), p).data
        for f in range(3):
            single = A.content_cross_attention(T.Tensor(m[f]), T.Tensor(z[f]), p).data
            np.testing.assert_allclose(batched[f], single, atol=1e-6)


class TestKeyValueHook:
    @pytest.mark.parametrize("shape", [(4, 8), (3, 4, 8)], ids=["rank2", "rank3"])
    def test_identity_hook_is_bit_identical(self, shape):
        p = pset(60, 8)
        q_src, kv_src = T.Tensor(rnd(shape, 61)), T.Tensor(rnd(shape, 62))
        plain = A.attention(q_src, kv_src, p)
        hooked = A.attention(q_src, kv_src, p, kv=A.project_kv)
        np.testing.assert_array_equal(hooked.data, plain.data)

    @pytest.mark.parametrize("shape", [(4, 8), (3, 4, 8)], ids=["rank2", "rank3"])
    @pytest.mark.parametrize("kernel", ["cs", "temporal"])
    def test_hook_sees_projections_and_its_result_is_attended(self, kernel, shape):
        p = pset(63, 8)
        z_prev, z = T.Tensor(rnd(shape, 64)), T.Tensor(rnd(shape, 65))
        # a replacement with a different token count than the projections
        swap_shape = (*shape[:-2], 7, shape[-1])
        k_swap, v_swap = T.Tensor(rnd(swap_shape, 66)), T.Tensor(rnd(swap_shape, 67))
        seen = []

        def hook(src, projections):
            # the hook owns the projection: it is handed the key/value source
            seen.append((src.data.copy(), projections))
            return k_swap, v_swap

        if kernel == "cs":
            out = A.cs_attention(z_prev, z, p, kv=hook)
            kv_src = T.concat([z_prev, z], axis=len(shape) - 2)
        else:
            out = A.temporal_attention(z, p, kv=hook)
            kv_src = z
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0][0], kv_src.data)
        assert seen[0][1] is p
        want = T.matmul(A.attend(T.matmul(z, p.w_q), k_swap, v_swap), p.w_out)
        np.testing.assert_array_equal(out.data, want.data)


@pytest.mark.parametrize("kernel", ["attend", "cs", "temporal", "cross"])
def test_kernels_differentiable_end_to_end(kernel):
    d = 6
    p = pset(50, d)
    other = T.Tensor(rnd((3, d), 51))
    probe = T.Tensor(rnd((3, d), 52))

    def f(x):
        if kernel == "attend":
            out = A.attend(x, other, other)
        elif kernel == "cs":
            out = A.cs_attention(other, x, p)
        elif kernel == "temporal":
            out = A.temporal_attention(x, p)
        else:
            out = A.content_cross_attention(x, other, p)
        return T.mean(T.mul(out, probe))

    ok, err = check_gradient(f, rnd((3, d), 53, scale=0.7), h=1e-3, tol=1e-3)
    assert ok, f"{kernel}: relative error {err}"


def test_projection_weight_gradients():
    d = 6
    p = pset(54, d)
    z = T.Tensor(rnd((4, d), 55))
    probe = T.Tensor(rnd((4, d), 56))

    def f(wq):
        p2 = A.ProjectionSet(wq, p.w_k, p.w_v, p.w_out)
        return T.mean(T.mul(A.cs_attention(z, z, p2), probe))

    ok, err = check_gradient(f, p.w_q.data.copy(), h=1e-3, tol=1e-3)
    assert ok, f"relative error {err}"
