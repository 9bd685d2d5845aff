import gc
import math
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidmotion import tensor as T
from vidmotion.gradcheck import check_gradient, numeric_gradient, relative_error


def rnd(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).normal(0, scale, shape)).astype(np.float32)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = T.Tensor(np.eye(2))
        np.testing.assert_array_equal(T.matmul(eye, a).data, a.data)

    def test_hand_product(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[0.0], [1.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[2.0], [4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError) as exc:
            T.matmul(T.zeros((3, 5)), T.zeros((4, 2)))
        assert "(3, 5)" in str(exc.value) and "(4, 2)" in str(exc.value)

    @pytest.mark.parametrize("a,b", [((3, 4), (2, 4, 5)), ((2, 3, 4), (3, 4, 5)),
                                     ((4,), (4, 2))],
                             ids=["rank2-rank3", "batch-2-3", "rank1"])
    def test_mixed_ranks_or_batch_sizes_rejected(self, a, b):
        with pytest.raises(T.ShapeError):
            T.matmul(T.zeros(a), T.zeros(b))

    def test_stack_times_matrix_equals_flattened_product(self):
        a0, b0 = rnd((2, 3, 4), seed=96), rnd((4, 5), seed=97)
        probe = T.Tensor(rnd((2, 3, 5), seed=98))

        def run(product):
            tape = T.Tape()
            a, b = tape.watch(T.Tensor(a0)), tape.watch(T.Tensor(b0))
            out = product(a, b)
            T.backward(tape, T.mean(T.mul(out, probe)))
            return out.data, tape.grad(a).data, tape.grad(b).data

        got = run(T.matmul)
        want = run(lambda a, b: T.reshape(
            T.matmul(T.reshape(a, (6, 4)), b), (2, 3, 5)))
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(T.Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_stabilized_no_overflow(self):
        out = T.softmax(T.Tensor([1000.0, 0.0]), axis=0)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)

    def test_closed_form(self):
        out = T.softmax(T.Tensor([math.log(2.0), 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-6)

    def test_axis_out_of_range(self):
        with pytest.raises(T.ShapeError):
            T.softmax(T.zeros((2, 2)), axis=2)

    @given(st.lists(st.integers(-16000, 16000), min_size=1, max_size=8),
           st.sampled_from([-8.0, -2.0, -1.0, 1.0, 4.0, 8.0]))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, grid_row, shift):
        # grid values keep x + shift exactly representable in float32, so the
        # check isolates the kernel from input-rounding noise
        x = np.array(grid_row, dtype=np.float32) / 1024.0
        a = T.softmax(T.Tensor(x), axis=0).data
        b = T.softmax(T.Tensor(x + np.float32(shift)), axis=0).data
        assert abs(a.sum() - 1.0) < 1e-6
        np.testing.assert_allclose(a, b, atol=1e-6)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_kernel_values = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 88.7, -88.7, 3e38, -3e38]))


@st.composite
def _kernel_inputs(draw):
    """A float32 array of rank 1-4 and one of its axes, with rows of 1-400
    entries along that axis; values include signed zeros, subnormals and
    magnitudes near the float32 limit."""
    rank = draw(st.integers(1, 4))
    axis = draw(st.integers(0, rank - 1))
    row = draw(st.integers(1, 400))
    shape = [draw(st.integers(1, 6)) for _ in range(rank)]
    shape[axis] = row
    n = math.prod(shape)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    x = np.random.default_rng(seed).normal(0, draw(st.sampled_from([1.0, 30.0])), n)
    x = x.astype(np.float32)
    picks = draw(st.lists(st.tuples(st.integers(0, n - 1), _kernel_values),
                          max_size=8))
    for i, v in picks:
        x[i] = v
    return x.reshape(shape), axis


class TestKernelIdentity:
    """The fast kernels equal their reference formulas bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(_kernel_inputs())
    def test_sigmoid_matches_branch_select(self, case):
        x, _ = case
        assert _same_bits(T._sigmoid(x), T._sigmoid_reference(x))

    @settings(max_examples=150, deadline=None)
    @given(_kernel_inputs(), st.booleans())
    def test_softmax_matches_per_row_max(self, case, negative_axis):
        x, axis = case
        if negative_axis:
            axis -= x.ndim
        with np.errstate(over="ignore", invalid="ignore"):
            fast = T.softmax(T.Tensor(x), axis=axis).data
            ref = T._softmax_reference(x.copy(), axis)
            assert _same_bits(T._row_max(x, axis), x.max(axis=axis, keepdims=True))
        assert _same_bits(fast, ref)

    @settings(max_examples=150, deadline=None)
    @given(_kernel_inputs(), st.randoms(use_true_random=False))
    def test_transpose_backward_uses_the_inverse_permutation(self, case, rnd_gen):
        x, _ = case
        axes = list(range(x.ndim))
        rnd_gen.shuffle(axes)
        tape = T.Tape()
        leaf = tape.watch(T.Tensor(x))
        out = T.transpose(leaf, axes)
        assert _same_bits(out.data, np.ascontiguousarray(x.transpose(axes)))
        g = out.node.backward_fn(out.data)[0]
        assert _same_bits(g, out.data.transpose(np.argsort(axes)))
        assert _same_bits(np.ascontiguousarray(g), x)


@pytest.mark.parametrize("row", [126, 127, 128, 129])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_row_max_equals_numpy_max_around_its_switch(row, axis):
    shape = [3, 5, 4]
    shape[axis] = row
    x = rnd(shape, seed=row + axis, scale=30.0)
    x.reshape(-1)[:4] = (-0.0, 0.0, -3e38, 1e-45)
    assert _same_bits(T._row_max(x, axis), x.max(axis=axis, keepdims=True))


_ROW_LENGTHS = (1, 4, 128, 129, 320)
_STACKS = [(3, n) for n in _ROW_LENGTHS] + [(2, 5, n) for n in _ROW_LENGTHS]
_CONSUMERS = {"scale": lambda a, **kw: T.scale(a, 0.125, **kw),
              "softmax": lambda a, **kw: T.softmax(a, axis=a.data.ndim - 1, **kw)}


class TestConsume:
    """``consume=True`` writes the result into the input's buffer, with the
    bits of the copying default; softmax rows of fewer than 128 entries and
    longer ones take the two branches of ``_row_max``."""

    @pytest.mark.parametrize("shape", _STACKS, ids=str)
    @pytest.mark.parametrize("op", sorted(_CONSUMERS))
    def test_consume_equals_default_in_the_input_buffer(self, op, shape):
        x = rnd(shape, seed=len(shape) * 1000 + shape[-1], scale=4.0)
        keep = x.copy()
        default = _CONSUMERS[op](T.Tensor(x))
        assert not np.shares_memory(default.data, x)
        assert _same_bits(x, keep)
        a = T.Tensor(x)
        consumed = _CONSUMERS[op](a, consume=True)
        assert np.shares_memory(consumed.data, a.data)
        assert _same_bits(consumed.data, default.data)

    @pytest.mark.parametrize("op", sorted(_CONSUMERS))
    def test_consuming_a_tracked_input_keeps_its_gradient(self, op):
        x, probe = rnd((2, 5, 129), seed=8), rnd((2, 5, 129), seed=9)
        grads = []
        for consume in (False, True):
            tape = T.Tape()
            leaf = tape.watch(T.Tensor(x))
            # consume a fresh product, as attend does, not the leaf itself
            out = _CONSUMERS[op](T.mul(leaf, T.Tensor(probe)), consume=consume)
            T.backward(tape, T.sum(T.mul(out, T.Tensor(probe))))
            grads.append(tape.grad(leaf).data)
        assert _same_bits(*grads)


class TestConcat:
    def test_single_part_identity(self):
        x = T.Tensor(rnd((2, 3)))
        np.testing.assert_array_equal(T.concat([x], axis=0).data, x.data)

    def test_shape_arithmetic(self):
        out = T.concat([T.zeros((2, 3)), T.ones((2, 3))], axis=0)
        assert out.shape == (4, 3)

    def test_empty_list_rejected(self):
        with pytest.raises(T.ShapeError):
            T.concat([], axis=0)

    def test_incompatible_extents_rejected(self):
        with pytest.raises(T.ShapeError):
            T.concat([T.zeros((2, 3)), T.zeros((2, 4))], axis=0)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_bit_exact(self, n1, n2, m, axis):
        a = rnd((n1, m) if axis == 0 else (m, n1), seed=n1 * 7 + m)
        b = rnd((n2, m) if axis == 0 else (m, n2), seed=n2 * 13 + m)
        joined = T.concat([T.Tensor(a), T.Tensor(b)], axis=axis)
        cut = a.shape[axis]
        back_a = T.slice_axis(joined, axis, 0, cut)
        back_b = T.slice_axis(joined, axis, cut, cut + b.shape[axis])
        np.testing.assert_array_equal(back_a.data, a)
        np.testing.assert_array_equal(back_b.data, b)


class TestConvTemporal:
    def test_delta_kernel_identity(self):
        x = T.Tensor(rnd((5, 3, 2, 2), seed=3))
        out = T.conv_temporal(x, T.Tensor([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_box_kernel_on_constant_frames(self):
        x = T.Tensor(np.full((4, 2), 5.0, dtype=np.float32))
        out = T.conv_temporal(x, T.Tensor([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.data[1:3], 15.0)
        np.testing.assert_allclose(out.data[0], 10.0)
        np.testing.assert_allclose(out.data[3], 10.0)

    def test_single_frame_center_tap_only(self):
        x = T.Tensor(rnd((1, 4), seed=5))
        k = T.Tensor([2.0, 3.0, 4.0])
        out = T.conv_temporal(x, k)
        np.testing.assert_allclose(out.data, 3.0 * x.data, rtol=1e-6)

    def test_even_width_rejected(self):
        with pytest.raises(T.ShapeError):
            T.conv_temporal(T.zeros((4, 2)), T.Tensor([1.0, 1.0]))

    def test_channel_mixing_kernel_matches_loop_oracle(self):
        x = rnd((5, 3, 4), seed=11)
        k = rnd((2, 3, 3), seed=12)
        out = T.conv_temporal(T.Tensor(x), T.Tensor(k)).data
        xp = np.concatenate([np.zeros((1, 3, 4), np.float32), x,
                             np.zeros((1, 3, 4), np.float32)], axis=0)
        want = np.zeros((5, 2, 4), np.float32)
        for f in range(5):
            for o in range(2):
                for c in range(3):
                    for j in range(3):
                        want[f, o] += k[o, c, j] * xp[f + j, c]
        np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6)


class TestBackward:
    def test_sum_gives_ones(self):
        tape = T.Tape()
        x = tape.watch(T.Tensor(rnd((3, 4))))
        T.backward(tape, T.sum(x))
        np.testing.assert_array_equal(tape.grad(x).data, np.ones((3, 4), np.float32))

    def test_sum_of_squares_gives_2x(self):
        x0 = rnd((3, 4), seed=1)
        tape = T.Tape()
        x = tape.watch(T.Tensor(x0))
        T.backward(tape, T.sum(T.mul(x, x)))
        np.testing.assert_allclose(tape.grad(x).data, 2 * x0, rtol=1e-6)

    def test_matmul_softmax_composite_vs_finite_differences(self):
        w0 = rnd((4, 4), seed=2, scale=0.5)
        ref = T.Tensor(rnd((4, 4), seed=3))

        def f(w):
            return T.mean(T.mul(T.softmax(T.matmul(ref, w), axis=1),
                                T.Tensor(rnd((4, 4), seed=4))))

        ok, err = check_gradient(f, w0, h=1e-3, tol=1e-3)
        assert ok, f"relative error {err}"

    def test_non_scalar_loss_rejected(self):
        tape = T.Tape()
        x = tape.watch(T.Tensor(rnd((2, 2))))
        with pytest.raises(T.TapeError):
            T.backward(tape, T.mul(x, x))

    def test_loss_off_tape_rejected(self):
        tape = T.Tape()
        tape.watch(T.Tensor(rnd((2,))))
        with pytest.raises(T.TapeError):
            T.backward(tape, T.sum(T.Tensor(rnd((2,)))))

    def test_untracked_inputs_get_no_gradient(self):
        tape = T.Tape()
        x = tape.watch(T.Tensor(rnd((2, 2))))
        other = T.Tensor(rnd((2, 2), seed=9))
        T.backward(tape, T.sum(T.mul(x, other)))
        assert tape.grad(other) is None
        assert tape.grad(x) is not None

    def test_gradient_shapes_match_values(self):
        tape = T.Tape()
        x = tape.watch(T.Tensor(rnd((3, 5), seed=6)))
        w = tape.watch(T.Tensor(rnd((5, 2), seed=7)))
        T.backward(tape, T.mean(T.matmul(x, w)))
        assert tape.grad(x).shape == (3, 5)
        assert tape.grad(w).shape == (5, 2)


@pytest.fixture
def no_cyclic_gc():
    """Run a test with the cyclic collector off, so that only reference
    counting frees objects."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def keep_all_backward(tape, loss):
    """Reference walk that keeps every reached node's gradient (the walk
    before interior gradients were dropped); returns {node idx: array}."""
    grads = {loss.node.idx: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.get(node.idx)
        if g is None or node.backward_fn is None:
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            if parent is None or pg is None:
                continue
            acc = grads.get(parent.idx)
            grads[parent.idx] = pg if acc is None else acc + pg
    return grads


class TestTapeLifetime:
    def test_tape_freed_by_refcount_after_backward(self, no_cyclic_gc):
        tape = T.Tape()
        x = tape.watch(T.Tensor(rnd((3, 4), seed=60)))
        loss = T.mean(T.silu(T.matmul(x, T.Tensor(rnd((4, 2), seed=61)))))
        T.backward(tape, loss)
        grad = tape.grad(x)
        freed = weakref.ref(tape)
        del tape, x, loss
        assert freed() is None
        assert grad.shape == (3, 4)

    def test_tensor_of_collected_tape_raises(self, no_cyclic_gc):
        old = T.Tape()
        stale = T.silu(old.watch(T.Tensor(rnd((2, 2), seed=62))))
        del old
        live = T.Tape()
        y = live.watch(T.Tensor(rnd((2, 2), seed=63)))
        with pytest.raises(T.TapeError):
            T.add(stale, y)
        with pytest.raises(T.TapeError):
            T.add(y, stale)
        with pytest.raises(T.TapeError):
            T.silu(stale)
        assert live.grad(stale) is None
        with pytest.raises(T.TapeError):
            T.backward(live, T.sum(stale))

    def test_only_leaf_gradients_kept_and_equal_keep_all_walk(self):
        tape = T.Tape()
        x = tape.watch(T.Tensor(rnd((2, 3, 4), seed=64)))
        w = tape.watch(T.Tensor(rnd((4, 4), seed=65, scale=0.5)))
        gamma = tape.watch(T.Tensor(rnd((4,), seed=66)))
        beta = tape.watch(T.Tensor(rnd((4,), seed=67)))
        h = T.reshape(T.matmul(T.reshape(x, (6, 4)), w), (2, 3, 4))
        n = T.layer_norm(T.add(h, x), gamma, beta)
        g = T.repeat_axis(T.slice_axis(T.softmax(n, axis=-1), 1, 1, 2), 1, 3)
        s = T.concat([T.silu(g), T.mul(h, x)], axis=1)
        loss = T.mean(T.mul(s, T.Tensor(rnd((2, 6, 4), seed=68))))
        want = keep_all_backward(tape, loss)
        T.backward(tape, loss)
        leaves = (x, w, gamma, beta)
        assert set(tape.gradients) == {t.node.idx for t in leaves}
        for t in (h, n, g, s, loss):
            assert tape.grad(t) is None
        for t in leaves:
            np.testing.assert_array_equal(tape.grad(t).data, want[t.node.idx])


class TestBackwardFreesAsItGoes:
    def test_saved_arrays_are_freed_once_their_gradient_has_passed(self):
        tape = T.Tape()
        x = tape.watch(T.Tensor(rnd((3, 5), seed=70)))
        probs = T.softmax(T.matmul(x, T.Tensor(rnd((5, 4), seed=71))))
        saved = weakref.ref(probs.data)  # the softmax backward reads its output
        loss = T.mean(T.mul(probs, T.Tensor(rnd((3, 4), seed=72))))
        del probs
        assert saved() is not None
        T.backward(tape, loss)
        assert saved() is None  # while the tape, x and the loss are alive
        assert all(node.backward_fn is None for node in tape.nodes)
        assert tape.grad(x).shape == (3, 5)

    def test_second_walk_raises(self):
        tape = T.Tape()
        x = tape.watch(T.Tensor(rnd((2, 3), seed=73)))
        loss = T.mean(T.silu(x))
        T.backward(tape, loss)
        grad = tape.grad(x)
        with pytest.raises(T.TapeError, match="walked already"):
            T.backward(tape, loss)
        assert tape.grad(x) is grad


# every primitive with more than one operand: (op, operand shapes, and per
# tracked operand the operands whose arrays its gradient reads)
SAVING_OPS = {
    "add": (T.add, [(3, 4), (4,)], {0: set(), 1: set()}),
    "sub": (T.sub, [(3, 4), (3, 1)], {0: set(), 1: set()}),
    "mul": (T.mul, [(2, 3, 4), (3, 4)], {0: {1}, 1: {0}}),
    "matmul": (T.matmul, [(2, 3, 4), (4, 5)], {0: {1}, 1: {0}}),
    "matmul_batched": (T.matmul, [(2, 3, 4), (2, 4, 5)], {0: {1}, 1: {0}}),
    # dgamma reads the normalised input, an array of the op's own
    "layer_norm": (T.layer_norm, [(2, 3, 4), (4,), (4,)], {0: {1}, 1: set(), 2: set()}),
    "conv_rank1": (T.conv_temporal, [(5, 3), (3,)], {0: {1}, 1: set()}),
    "conv_rank3": (T.conv_temporal, [(5, 3, 2), (4, 3, 3)], {0: {1}, 1: set()}),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [(2, 3), (2, 5)],
               {0: set(), 1: set()}),
}
SAVING_CASES = [(name, i) for name, (_, _, reads) in SAVING_OPS.items() for i in reads]


def record_with_one_tracked(name, tracked):
    """The op's output with only operand ``tracked`` watched, and weak
    references to every operand's array."""
    f, shapes, _ = SAVING_OPS[name]
    tape = T.Tape()
    args = [T.Tensor(rnd(s, seed=100 + i)) for i, s in enumerate(shapes)]
    args[tracked] = tape.watch(args[tracked])
    return tape, f(*args), [weakref.ref(a.data) for a in args]


class TestSavedForBackward:
    @pytest.mark.parametrize("name,tracked", SAVING_CASES)
    def test_untracked_operand_gets_none_and_tracked_gradient_is_unchanged(
            self, name, tracked):
        f, shapes, _ = SAVING_OPS[name]
        arrays = [rnd(s, seed=100 + i) for i, s in enumerate(shapes)]
        tape = T.Tape()
        out = f(*[tape.watch(T.Tensor(a)) if i == tracked else T.Tensor(a)
                  for i, a in enumerate(arrays)])
        ref_tape = T.Tape()
        ref = f(*[ref_tape.watch(T.Tensor(a)) for a in arrays])
        g = rnd(out.shape, seed=99)
        got, want = out.node.backward_fn(g), ref.node.backward_fn(g)
        assert len(got) == len(shapes)
        for i, pg in enumerate(got):
            if i == tracked:
                assert _same_bits(np.asarray(pg), np.asarray(want[i]))
            else:
                assert pg is None

    @pytest.mark.parametrize("name,tracked", SAVING_CASES)
    def test_only_arrays_a_tracked_gradient_reads_outlive_the_caller(
            self, name, tracked, no_cyclic_gc):
        tape, out, refs = record_with_one_tracked(name, tracked)
        reads = SAVING_OPS[name][2][tracked]
        alive = {i for i, r in enumerate(refs) if r() is not None}
        assert alive == reads
        # the walk still works from what was kept, and may be repeated
        g = np.ones_like(out.data)
        first = out.node.backward_fn(g)[tracked]
        assert _same_bits(np.asarray(first), np.asarray(out.node.backward_fn(g)[tracked]))

    def test_silu_saves_one_array_of_the_same_bits_as_its_derivative(self):
        x = rnd((4, 5), seed=101, scale=3.0)
        tape = T.Tape()
        out = T.silu(tape.watch(T.Tensor(x)))
        cells = [c.cell_contents for c in out.node.backward_fn.__closure__]
        assert [type(c) for c in cells] == [np.ndarray]
        g = rnd((4, 5), seed=102)
        sig = T._sigmoid(x)
        assert _same_bits(out.node.backward_fn(g)[0], g * (sig * (1.0 + x * (1.0 - sig))))


# every primitive: (op over tensors, operand shapes); operand 0 is the one
# watched for the tracked reference call
FORWARD_OPS = {
    "add": (T.add, [(3, 4), (4,)]),
    "sub": (T.sub, [(3, 4), (3, 1)]),
    "mul": (T.mul, [(2, 3, 4), (3, 4)]),
    "scale": (lambda a: T.scale(a, -2.5), [(3, 4)]),
    "matmul": (T.matmul, [(2, 3, 4), (4, 5)]),
    "matmul_batched": (T.matmul, [(2, 3, 4), (2, 4, 5)]),
    "transpose": (lambda a: T.transpose(a, (2, 0, 1)), [(2, 3, 4)]),
    "reshape": (lambda a: T.reshape(a, (6, 4)), [(2, 3, 4)]),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [(2, 3), (2, 5)]),
    "slice_axis": (lambda a: T.slice_axis(a, 1, 1, 3), [(2, 4, 3)]),
    "repeat_axis": (lambda a: T.repeat_axis(a, 1, 2), [(2, 3, 4)]),
    "sum": (lambda a: T.sum(a, axis=1), [(2, 3, 4)]),
    "sum_all": (T.sum, [(2, 3, 4)]),
    "mean": (lambda a: T.mean(a, axis=0, keepdims=True), [(2, 3, 4)]),
    "mean_all": (T.mean, [(2, 3, 4)]),
    "softmax": (lambda a: T.softmax(a, axis=1), [(2, 3, 4)]),
    "silu": (T.silu, [(2, 3, 4)]),
    "layer_norm": (T.layer_norm, [(2, 3, 4), (4,), (4,)]),
    "conv_rank1": (T.conv_temporal, [(5, 3), (3,)]),
    "conv_rank3": (T.conv_temporal, [(5, 3, 2), (4, 3, 3)]),
}


class TestUntrackedFastPath:
    """An op with no tracked input hands _result no backward function,
    records nothing, and computes the same bytes as when an input is watched."""

    @pytest.mark.parametrize("name", list(FORWARD_OPS))
    def test_untracked_result_is_bare_and_equals_tracked(self, name, monkeypatch):
        f, shapes = FORWARD_OPS[name]
        arrays = [rnd(s, seed=110 + i) for i, s in enumerate(shapes)]
        result, handed = T._result, []

        def spy(op, inputs, out, backward_fn):
            handed.append(backward_fn)
            return result(op, inputs, out, backward_fn)

        monkeypatch.setattr(T, "_result", spy)
        out = f(*[T.Tensor(a) for a in arrays])
        assert type(out) is T.Tensor and out.node is None
        assert out.data.dtype == np.float32 and out.data.flags["C_CONTIGUOUS"]
        assert handed == [None]  # decided once, by the primitive
        tape = T.Tape()
        ref = f(tape.watch(T.Tensor(arrays[0])), *[T.Tensor(a) for a in arrays[1:]])
        assert ref.node is not None and len(handed) == 2 and callable(handed[1])
        assert _same_bits(out.data, ref.data)

    def test_foreign_arrays_are_still_converted(self):
        a = T.Tensor(rnd((3, 4), seed=120))
        for raw in (a.data.T, a.data.astype(np.float64), np.float32(2.0)):
            out = T._result("probe", (a,), raw, None)
            assert out.data.dtype == np.float32 and out.data.flags["C_CONTIGUOUS"]
            assert _same_bits(out.data, T.Tensor(raw).data)

    def test_op_count_same_with_and_without_a_watched_weight(
            self, monkeypatch, base_model, net_config):
        from vidmotion import network as N
        counted = T._result
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return counted(*args, **kwargs)

        monkeypatch.setattr(T, "_result", counting)
        latent = T.Tensor(rnd((net_config.frames, net_config.channels, 8, 8),
                              seed=121, scale=0.5))
        plain = N.unet_forward(base_model, latent, 10, "p")
        untracked, calls[0] = calls[0], 0
        name = "unet.enc0.temporal.w_q"  # trainable, and read by every forward
        tape = T.Tape()
        watched = base_model.replace({name: tape.watch(base_model.params[name])})
        tracked = N.unet_forward(watched, latent, 10, "p")
        assert untracked > 0 and calls[0] == untracked
        assert plain.node is None and tracked.node is not None
        assert _same_bits(plain.data, tracked.data)


def _layer_norm_reference(x, gamma, beta, eps=1e-5):
    """The formula ``layer_norm`` must equal bit for bit: means through
    ``ndarray.mean``."""
    mu = x.mean(axis=-1, keepdims=True, dtype=np.float32)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True, dtype=np.float32)
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    return gamma * (xc * inv) + beta


class TestRowMean:
    @pytest.mark.parametrize("magnitude", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_matches_ndarray_mean_for_every_row_length(self, magnitude):
        gen = np.random.default_rng(int(magnitude * 1000))
        for d in range(1, 201):
            x = (gen.normal(0, magnitude, (6, d))).astype(np.float32)
            x[1] = 0.0
            x[2] = -0.0
            x[3, ::2] = -0.0
            x[4, : d // 2] = -x[4, d - d // 2:][::-1]  # sums that cancel to zero
            assert _same_bits(T._row_mean(x), x.mean(axis=-1, keepdims=True,
                                                      dtype=np.float32)), d

    @pytest.mark.parametrize("shape", [(8, 64, 32), (8, 16, 64), (64, 8, 32)])
    def test_layer_norm_equals_mean_formula(self, shape):
        x = rnd(shape, seed=122, scale=2.0)
        gamma = rnd(shape[-1:], seed=123, scale=0.3) + 1
        beta = rnd(shape[-1:], seed=124, scale=0.3)
        out = T.layer_norm(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta)).data
        assert _same_bits(out, _layer_norm_reference(x, gamma, beta))

    @pytest.mark.parametrize("shape", [(8, 64, 32), (64, 8, 32)])
    def test_layer_norm_gradient_equals_mean_formula(self, shape):
        x = rnd(shape, seed=125, scale=2.0)
        gamma = rnd(shape[-1:], seed=126, scale=0.3) + 1
        g = rnd(shape, seed=127)
        tape = T.Tape()
        wx = tape.watch(T.Tensor(x))
        out = T.layer_norm(wx, T.Tensor(gamma), T.Tensor(np.zeros_like(gamma)))
        T.backward(tape, T.sum(T.mul(out, T.Tensor(g))))
        xc = x - x.mean(axis=-1, keepdims=True, dtype=np.float32)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True, dtype=np.float32)
                            + np.float32(1e-5))
        xh, dxh = xc * inv, g * gamma
        want = inv * (dxh - dxh.mean(axis=-1, keepdims=True)
                      - xh * (dxh * xh).mean(axis=-1, keepdims=True))
        assert _same_bits(tape.grad(wx).data, want.astype(np.float32))


@pytest.mark.parametrize("name,f,shape", [
    ("add", lambda x: T.sum(T.add(x, T.Tensor(rnd((3, 4), 21)))), (3, 4)),
    ("sub", lambda x: T.sum(T.sub(T.Tensor(rnd((3, 4), 22)), x)), (3, 4)),
    ("mul", lambda x: T.sum(T.mul(x, T.Tensor(rnd((3, 4), 23)))), (3, 4)),
    ("scale", lambda x: T.sum(T.scale(x, -2.5)), (3, 4)),
    ("matmul", lambda x: T.mean(T.matmul(x, T.Tensor(rnd((4, 2), 24)))), (3, 4)),
    ("matmul_rank3", lambda x: T.mean(T.matmul(x, T.Tensor(rnd((2, 4, 3), 25)))),
     (2, 3, 4)),
    ("transpose", lambda x: T.mean(T.mul(T.transpose(x, (1, 0, 2)),
                                         T.Tensor(rnd((4, 2, 3), 26)))), (2, 4, 3)),
    ("reshape", lambda x: T.mean(T.mul(T.reshape(x, (6, 2)),
                                       T.Tensor(rnd((6, 2), 27)))), (3, 4)),
    ("concat", lambda x: T.mean(T.mul(T.concat([x, x], axis=1),
                                      T.Tensor(rnd((3, 8), 28)))), (3, 4)),
    ("slice", lambda x: T.mean(T.mul(T.slice_axis(x, 0, 1, 3),
                                     T.Tensor(rnd((2, 4), 29)))), (3, 4)),
    ("repeat", lambda x: T.mean(T.mul(T.repeat_axis(x, 1, 2),
                                      T.Tensor(rnd((3, 8), 30)))), (3, 4)),
    ("softmax", lambda x: T.mean(T.mul(T.softmax(x, axis=1),
                                       T.Tensor(rnd((3, 4), 31)))), (3, 4)),
    ("mean_axis", lambda x: T.mean(T.mul(T.mean(x, axis=0),
                                         T.Tensor(rnd((4,), 32)))), (3, 4)),
    ("silu", lambda x: T.mean(T.mul(T.silu(x), T.Tensor(rnd((3, 4), 33)))), (3, 4)),
    ("conv1", lambda x: T.mean(T.mul(T.conv_temporal(x, T.Tensor([0.5, -1.0, 0.25])),
                                     T.Tensor(rnd((5, 3), 34)))), (5, 3)),
    ("layer_norm", lambda x: T.mean(T.mul(
        T.layer_norm(x, T.Tensor(rnd((4,), 35, 0.3) + 1), T.Tensor(rnd((4,), 36, 0.3))),
        T.Tensor(rnd((3, 4), 37)))), (3, 4)),
    ("matmul_stack", lambda x: T.mean(T.mul(T.matmul(x, T.Tensor(rnd((4, 3), 39))),
                                            T.Tensor(rnd((2, 3, 3), 40)))), (2, 3, 4)),
])
def test_primitive_gradients_match_finite_differences(name, f, shape):
    x0 = rnd(shape, seed=zlib.crc32(name.encode()) % 1000, scale=0.8)
    ok, err = check_gradient(f, x0, h=1e-3, tol=1e-3)
    assert ok, f"{name}: relative error {err}"


def test_layer_norm_gradient_at_input_seed_37_matches_float64_reference():
    """The layer_norm case above at input seed 37 reads 1.02e-3 against its
    float32 central difference, just over that oracle's tolerance; the gap is
    the oracle's own rounding, so this input is checked against float64."""
    gamma, beta = rnd((4,), 35, 0.3) + 1, rnd((4,), 36, 0.3)
    probe = rnd((3, 4), 37)
    x0 = rnd((3, 4), seed=37, scale=0.8)
    tape = T.Tape()
    x = tape.watch(T.Tensor(x0))
    T.backward(tape, T.mean(T.mul(
        T.layer_norm(x, T.Tensor(gamma), T.Tensor(beta)), T.Tensor(probe))))

    def f64(a):
        xc = a - a.mean(axis=-1, keepdims=True)
        xh = xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        return ((gamma * xh + beta) * probe).mean()

    err = relative_error(tape.grad(x).data, numeric_gradient(f64, x0, h=1e-5))
    assert err < 1e-5, f"relative error {err}"


def test_gradients_on_randomized_shapes():
    gen = np.random.default_rng(99)
    for trial in range(8):
        m = int(gen.integers(1, 6))
        k = int(gen.integers(1, 6))
        n = int(gen.integers(1, 6))
        a0 = gen.normal(0, 0.8, (m, k)).astype(np.float32)
        b = T.Tensor(gen.normal(0, 0.8, (k, n)).astype(np.float32))
        probe = T.Tensor(gen.normal(0, 1, (m, n)).astype(np.float32))

        def f(a):
            return T.mean(T.mul(T.softmax(T.matmul(a, b), axis=1), probe))

        ok, err = check_gradient(f, a0, h=1e-3, tol=1e-3)
        assert ok, f"trial {trial} shape ({m},{k},{n}): relative error {err}"


def test_conv_temporal_kernel_gradient():
    x = T.Tensor(rnd((5, 2, 3), seed=40))

    def f(k):
        return T.mean(T.mul(T.conv_temporal(x, k), T.Tensor(rnd((5, 2, 3), 41))))

    ok, err = check_gradient(f, rnd((2, 2, 3), seed=42, scale=0.5), h=1e-3, tol=1e-3)
    assert ok, f"relative error {err}"


def test_layer_norm_param_gradients():
    x = T.Tensor(rnd((3, 4), seed=50))
    r = T.Tensor(rnd((3, 4), seed=51))

    def fg(gamma):
        return T.mean(T.mul(T.layer_norm(x, gamma, T.zeros((4,))), r))

    ok, err = check_gradient(fg, rnd((4,), seed=52, scale=0.3) + 1, tol=1e-3)
    assert ok, f"gamma relative error {err}"


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = {"w": T.Tensor(rnd((3, 3), seed=60))}
        state = T.AdamState(lr=1e-2)
        out = T.adam_step(p, {"w": T.zeros((3, 3))}, state)
        np.testing.assert_array_equal(out["w"].data, p["w"].data)

    def test_constant_gradient_moves_against_sign(self):
        p = {"w": T.Tensor(np.zeros((4,), np.float32))}
        g = T.Tensor(np.array([1.0, -1.0, 2.0, -0.5], np.float32))
        state = T.AdamState(lr=1e-2)
        for _ in range(20):
            p = T.adam_step(p, {"w": g}, state)
        assert (np.sign(p["w"].data) == -np.sign(g.data)).all()

    def test_quadratic_bowl_descends_monotonically_after_warmup(self):
        w = {"w": T.Tensor(rnd((6,), seed=61))}
        state = T.AdamState(lr=1e-2)
        norms = []
        for _ in range(200):
            tape = T.Tape()
            watched = tape.watch(w["w"])
            loss = T.sum(T.mul(watched, watched))
            T.backward(tape, loss)
            w = T.adam_step(w, {"w": tape.grad(watched)}, state)
            norms.append(float(np.linalg.norm(w["w"].data)))
        warm = norms[10:]
        assert all(b <= a + 1e-7 for a, b in zip(warm, warm[1:]))
        assert norms[-1] < 0.5 * norms[0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            T.adam_step({"w": T.zeros((2,))}, {"w": T.zeros((3,))}, T.AdamState())

    def test_step_counter_strictly_increases(self):
        state = T.AdamState()
        p = {"w": T.zeros((2,))}
        for want in (1, 2, 3):
            T.adam_step(p, {"w": T.zeros((2,))}, state)
            assert state.step_count == want


def _adam_reference(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The closed form ``adam_step`` must equal bit for bit, with fresh
    arrays for everything."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    return p - lr * mhat / (np.sqrt(vhat) + eps), m, v


class TestAdamInPlace:
    def test_moments_stay_one_array_and_updates_equal_the_closed_form(self):
        shapes = {"w": (3, 4), "b": (5,), "k": (2, 3, 3)}
        params = {n: T.Tensor(rnd(s, seed=70 + i, scale=0.5))
                  for i, (n, s) in enumerate(shapes.items())}
        want = {n: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
                for n, p in params.items()}
        state = T.AdamState(lr=1e-2)
        first = None
        for step in range(1, 6):
            # every value scale from tiny to large, and one step where "b" gets
            # no gradient at all
            grads = {n: T.Tensor(rnd(s, seed=100 * step + i, scale=10.0 ** (step - 3)))
                     for i, (n, s) in enumerate(shapes.items())}
            if step == 3:
                grads["b"] = None
            kept = {n: p.data.copy() for n, p in params.items()}
            kept_grads = {n: g.data.copy() for n, g in grads.items() if g is not None}
            out = T.adam_step(params, grads, state)
            for n, p in params.items():
                assert _same_bits(p.data, kept[n]), n
                g = grads[n]
                assert g is None or _same_bits(g.data, kept_grads[n]), n
                garr = np.zeros_like(p.data) if g is None else g.data
                want[n] = _adam_reference(want[n][0], garr, want[n][1], want[n][2],
                                          step, 1e-2)
                assert _same_bits(out[n].data, want[n][0]), (n, step)
                assert _same_bits(state.m[n], want[n][1]), (n, step)
                assert _same_bits(state.v[n], want[n][2]), (n, step)
                assert not np.shares_memory(out[n].data, p.data)
            if first is None:
                first = ({n: state.m[n] for n in shapes}, {n: state.v[n] for n in shapes})
            for n in shapes:
                assert state.m[n] is first[0][n] and state.v[n] is first[1][n]
            params = out


def _backward_of(op, *arrays, tracked=None):
    """The recorded closure of one ``op`` on watched copies of ``arrays``
    (only those flagged in ``tracked``), and the result's data."""
    tape = T.Tape()
    tracked = tracked or (True,) * len(arrays)
    ins = [tape.watch(T.Tensor(a)) if k else T.Tensor(a) for a, k in zip(arrays, tracked)]
    out = op(*ins)
    return out.node.backward_fn, out.data


def _gradient_probes(shape, seed):
    """A C-contiguous upstream gradient and one with the same values laid out
    as a transpose's backward hands them over (leading axes swapped)."""
    g = rnd(shape, seed=seed, scale=2.0)
    if len(shape) < 2:
        return [g]
    swapped = np.ascontiguousarray(np.swapaxes(g, 0, 1))
    return [g, np.swapaxes(swapped, 0, 1)]


_GRAD_SHAPES = ([(3, n) for n in _ROW_LENGTHS] + [(2, 5, n) for n in _ROW_LENGTHS]
                + [(5, 2, n) for n in _ROW_LENGTHS])


class TestBackwardKernelOracles:
    """The softmax, layer-norm and mean gradients equal their former
    allocate-everything expressions bit for bit, in the same memory layout,
    for contiguous and transposed upstream gradients, and leave the gradient
    they are handed and what they saved intact."""

    @staticmethod
    def _check(bwd, g, want):
        keep = g.copy()
        for _ in range(2):  # a second walk reads the same saved arrays
            got = bwd(g)
            assert _same_bits(g, keep)
            for a, b in zip(got, want):
                assert (a is None) == (b is None)
                if a is not None:
                    assert _same_bits(a, b) and a.strides == b.strides

    @pytest.mark.parametrize("shape", _GRAD_SHAPES, ids=str)
    def test_softmax(self, shape):
        x = rnd(shape, seed=shape[-1] + len(shape), scale=4.0)
        for axis in (-1, 0):
            bwd, out = _backward_of(lambda a: T.softmax(a, axis=axis), x)
            for g in _gradient_probes(shape, seed=shape[-1]):
                dot = (g * out).sum(axis=axis, keepdims=True)
                self._check(bwd, g, (out * (g - dot),))

    @pytest.mark.parametrize("shape", _GRAD_SHAPES, ids=str)
    @pytest.mark.parametrize("tracked", [(True, True, True), (True, False, False),
                                         (False, True, True)], ids=str)
    def test_layer_norm(self, shape, tracked):
        d = shape[-1]
        x = rnd(shape, seed=d, scale=2.0)
        gamma, beta = rnd((d,), seed=d + 1, scale=0.3) + 1, rnd((d,), seed=d + 2)
        bwd, _ = _backward_of(T.layer_norm, x, gamma, beta, tracked=tracked)
        mu = T._row_mean(x)
        xc = x - mu
        inv = 1.0 / np.sqrt(T._row_mean(xc * xc) + np.float32(1e-5))
        xh = xc * inv
        for g in _gradient_probes(shape, seed=d + 3):
            lead = tuple(range(g.ndim - 1))
            dxh = g * gamma
            dx = inv * (dxh - T._row_mean(dxh) - xh * T._row_mean(dxh * xh))
            want = (dx.astype(np.float32) if tracked[0] else None,
                    ((g * xh).sum(axis=lead) if lead else g * xh).astype(np.float32)
                    if tracked[1] else None,
                    (g.sum(axis=lead) if lead else g).astype(np.float32)
                    if tracked[2] else None)
            self._check(bwd, g, want)

    @pytest.mark.parametrize("shape", _GRAD_SHAPES, ids=str)
    @pytest.mark.parametrize("axis, keepdims", [(None, False), (0, False), (-1, False),
                                                (-1, True)])
    def test_mean(self, shape, axis, keepdims):
        x = rnd(shape, seed=shape[-1] + 7)
        bwd, out = _backward_of(lambda a: T.mean(a, axis=axis, keepdims=keepdims), x)
        n = x.size if axis is None else shape[axis]
        for g in _gradient_probes(out.shape, seed=shape[-1] + 8):
            gg = g if keepdims or axis is None else np.expand_dims(g, axis)
            self._check(bwd, g, ((np.broadcast_to(gg, shape) / np.float32(n))
                                 .astype(np.float32),))

    @pytest.mark.parametrize("shape", [(8, 64, 32), (64, 8, 32), (8, 16, 320)], ids=str)
    def test_layer_norm_backward_holds_at_most_two_arrays_beyond_its_result(self, shape):
        x = rnd(shape, seed=140, scale=2.0)
        gamma, beta = rnd(shape[-1:], seed=141) + 1, rnd(shape[-1:], seed=142)
        bwd, _ = _backward_of(T.layer_norm, x, gamma, beta)
        g = rnd(shape, seed=143)
        full = g.nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = bwd(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert grads[0].nbytes == full
        # the result, two full-size temporaries, and row means and the
        # (d,) parameter gradients
        assert peak <= 3 * full + full // 4, (peak, full)


class TestDeterminismAndFiniteness:
    def test_rng_reproducible(self):
        a = T.Rng(123).normal((4, 4)).data
        b = T.Rng(123).normal((4, 4)).data
        np.testing.assert_array_equal(a, b)

    def test_ops_bit_identical_across_calls(self):
        x = rnd((4, 4), seed=70)
        a = T.softmax(T.matmul(T.Tensor(x), T.Tensor(x)), axis=1).data
        b = T.softmax(T.matmul(T.Tensor(x), T.Tensor(x)), axis=1).data
        np.testing.assert_array_equal(a, b)

    def test_finite_outputs_on_finite_inputs(self):
        x = T.Tensor(rnd((4, 4), seed=71, scale=100.0))
        for out in (T.softmax(x, axis=1), T.silu(x),
                    T.layer_norm(x, T.ones((4,)), T.zeros((4,)))):
            assert np.isfinite(out.data).all()


class TestMeltContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        t = T.Tensor(rnd((3, 5, 2), seed=80))
        path = tmp_path / "t.melt"
        T.save_tensor(path, t)
        back = T.load_tensor(path)
        assert back.shape == t.shape
        np.testing.assert_array_equal(back.data, t.data)
        T.save_tensor(tmp_path / "t2.melt", back)
        assert (tmp_path / "t.melt").read_bytes() == (tmp_path / "t2.melt").read_bytes()

    def test_header_layout(self):
        raw = T.tensor_bytes(T.Tensor(np.zeros((2, 3), np.float32)))
        assert raw[:4] == b"MELT"
        assert raw[4] == 1 and raw[5] == 0
        assert raw[6:10] == (2).to_bytes(4, "little")
        assert raw[10:14] == (2).to_bytes(4, "little")
        assert raw[14:18] == (3).to_bytes(4, "little")
        assert len(raw) == 18 + 4 * 6

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            T.tensor_from_bytes(b"NOPE" + bytes(20))

    @pytest.mark.parametrize("raw,where", [
        (b"NOPE" + bytes(20), "byte 0"),
        (b"MELT\x01\x00\x02", "byte 7"),
        (b"MELT\x01\x00" + (2).to_bytes(4, "little") + bytes(4), "byte 14"),
        (T.tensor_bytes(T.zeros((2, 3)))[:-1], "byte 41"),
    ], ids=["bad-magic", "short-header", "truncated-dims", "truncated-payload"])
    def test_malformed_bytes_raise_format_error_naming_offset(self, raw, where):
        with pytest.raises(T.FormatError, match=where):
            T.tensor_from_bytes(raw)

    @pytest.mark.parametrize("tail", [b"garbage!", T.tensor_bytes(T.ones((1,)))],
                             ids=["garbage", "second-container"])
    def test_trailing_bytes_rejected_at_payload_end(self, tail):
        raw = T.tensor_bytes(T.zeros((2, 3)))
        with pytest.raises(T.FormatError, match=f"trailing bytes .* at byte {len(raw)}"):
            T.tensor_from_bytes(raw + tail)

    @staticmethod
    def _parses_or_format_error(raw):
        try:
            out = T.tensor_from_bytes(raw)
        except T.FormatError:
            return
        assert isinstance(out, T.Tensor)
        assert T.tensor_bytes(out) == raw

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_fuzz_arbitrary_bytes(self, raw):
        self._parses_or_format_error(raw)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=0, max_size=3), st.data())
    def test_fuzz_truncated_and_mutated_containers(self, dims, data):
        raw = T.tensor_bytes(T.Tensor(np.arange(math.prod(dims), dtype=np.float32)
                                      .reshape(dims)))
        cut = data.draw(st.integers(0, len(raw)), label="cut")
        self._parses_or_format_error(raw[:cut])
        mutated = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 4), label="flips")):
            pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
            mutated[pos] = data.draw(st.integers(0, 255), label="byte")
        self._parses_or_format_error(bytes(mutated))


def test_numeric_gradient_oracle_on_known_function():
    # sanity-check the oracle itself on f(x) = sum(x^2), grad 2x
    x = rnd((5,), seed=90)
    g = numeric_gradient(lambda a: float((a.astype(np.float64) ** 2).sum()), x.copy())
    assert relative_error(2 * x, g) < 1e-5
