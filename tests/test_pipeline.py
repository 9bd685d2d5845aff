import gc
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import make_job, synth_masks, synth_skeletons, synth_video
from vidmotion import diffusion as D
from vidmotion import injection as I
from vidmotion import network as N
from vidmotion import pipeline as P
from vidmotion import skeleton as SK
from vidmotion import tensor as T


class TestOneShotTrain:
    def test_zero_steps_leaves_weights_bit_exact(self, base_model, schedule):
        res = P.one_shot_train(base_model, synth_video(), synth_skeletons(),
                               "p", steps=0, schedule=schedule, rng=T.Rng(0))
        assert res.losses == []
        assert N.parameter_checksum(res.model) == N.parameter_checksum(base_model)

    def test_frozen_parameters_get_no_gradients(self, base_model, schedule):
        # replicate one training step; only watched (trainable) nodes may
        # carry gradients, so frozen gradient norms are exactly zero
        z0 = N.encode_video(synth_video(), base_model.cfg)
        rng = T.Rng(5)
        t = rng.integer(0, schedule.timesteps)
        eps = rng.normal(z0.shape)
        x_t = D.q_sample(z0, t, eps, schedule)
        tape = T.Tape()
        names = sorted(N.trainable_names(base_model))
        watched = {n: tape.watch(base_model.params[n]) for n in names}
        m = base_model.replace(watched)
        sides = N.control_sides(m, x_t, t, N.pose_features(m, synth_skeletons()))
        loss = D.training_loss(N.unet_forward(
            m, x_t, t, "p", step=N.StepContext(t, x_t, lambda: sides)), eps)
        T.backward(tape, loss)
        for n in names:
            assert tape.grad(watched[n]) is not None
        watched_ids = {w.node.idx for w in watched.values()}
        leaf_ids = {node.idx for node in tape.nodes if node.op == "leaf"}
        assert leaf_ids == watched_ids

    def test_training_steps_leave_no_cyclic_garbage(self, base_model, schedule):
        # with the cyclic collector off, every step's tape and nodes must be
        # freed by reference counting; DEBUG_SAVEALL keeps whatever a later
        # collection finds unreachable in gc.garbage, where it can be seen
        gc.collect()
        enabled, flags, start = gc.isenabled(), gc.get_debug(), len(gc.garbage)
        gc.disable()
        try:
            P.one_shot_train(base_model, synth_video(), synth_skeletons(), "p",
                             steps=2, schedule=schedule, rng=T.Rng(0))
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage[start:]
                      if isinstance(o, (T.Tape, T.Node))]
        finally:
            gc.set_debug(flags)
            del gc.garbage[start:]
            if enabled:
                gc.enable()
        assert leaked == []

    def test_skipped_frozen_products_leave_trainable_gradients_bit_identical(
            self, base_model, schedule):
        # nonzero adapter output projections make every trainable gradient
        # nonzero; watching every weight computes every product
        model = base_model.replace({
            f"adapter{lvl}.out_proj": T.Tensor(
                np.random.default_rng(lvl).normal(0, 0.1, (d, d)).astype(np.float32))
            for lvl, d in enumerate(base_model.cfg.widths)})
        z0 = N.encode_video(synth_video(), model.cfg)
        rng = T.Rng(6)
        t = rng.integer(0, schedule.timesteps)
        eps = rng.normal(z0.shape)
        x_t = D.q_sample(z0, t, eps, schedule)
        pose = N.pose_features(model, synth_skeletons())
        trainable = {n: model.params[n] for n in sorted(N.trainable_names(model))}
        loss, grads = P.train_step(model, trainable, pose, x_t, t, eps, "p")
        loss_all, every = P.train_step(model, model.params, pose, x_t, t, eps, "p")
        assert loss == loss_all
        assert set(every) == set(model.params)
        assert sum(every[n] is not None for n in set(every) - set(grads)) > 100
        for name, grad in grads.items():
            assert np.abs(grad.data).max() > 0, name
            assert grad.data.tobytes() == every[name].data.tobytes(), name

    def test_later_steps_add_adam_state_but_no_second_graph(self, base_model, schedule):
        # each step's graph is freed before the next one is built, so three
        # steps peak above one step only by what the first update adds: new
        # weights and Adam's two moments, each the size of the trainable
        # weights. One step's graph is several times that size.
        def traced_peak(steps):
            tracemalloc.start()
            try:
                P.one_shot_train(base_model, synth_video(), synth_skeletons(), "p",
                                 steps=steps, schedule=schedule, rng=T.Rng(0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, three = traced_peak(1), traced_peak(3)
        state = 3 * sum(base_model.params[n].data.nbytes
                        for n in N.trainable_names(base_model))
        assert three <= one + state + 0.05 * one, (one, three, state)

    def test_later_steps_hold_one_copy_of_the_trainable_weights(self, base_model,
                                                                schedule):
        # with a model nothing else holds, the first update frees the initial
        # trainable weights, so three steps peak above one step only by
        # Adam's two moments
        trainable = sorted(N.trainable_names(base_model))

        def traced_peak(steps):
            tracemalloc.start()
            try:
                P.one_shot_train(
                    base_model.replace({n: T.Tensor(base_model.params[n].data.copy())
                                        for n in trainable}),
                    synth_video(), synth_skeletons(), "p",
                    steps=steps, schedule=schedule, rng=T.Rng(0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, three = traced_peak(1), traced_peak(3)
        state = 2 * sum(base_model.params[n].data.nbytes for n in trainable)
        assert three <= one + state + 0.05 * one, (one, three, state)

    def test_source_and_time_rows_are_freed_as_training_goes(self, base_model,
                                                             schedule, monkeypatch):
        # the caller keeps no reference to the video or the skeletons, so
        # training frees them once encoded; each step's time rows go with it
        source = [synth_video(), synth_skeletons()]
        source_refs = [weakref.ref(source[0].data), weakref.ref(source[1])]
        time_projs = {id(w) for name, w in base_model.params.items()
                      if name.endswith(".time_proj")}
        rows, seen = [], []
        real_matmul, real_step = T.matmul, P.train_step

        def matmul(a, b):
            out = real_matmul(a, b)
            if id(b) in time_projs:
                rows.append((len(seen), weakref.ref(out.data)))
            return out

        def train_step(*args, **kwargs):
            seen.append([ref() is None for ref in source_refs]
                        + [ref() is None for _, ref in rows])
            return real_step(*args, **kwargs)
        monkeypatch.setattr(T, "matmul", matmul)
        monkeypatch.setattr(P, "train_step", train_step)
        P.one_shot_train(base_model, source.pop(0), source.pop(0), "p", steps=3,
                         schedule=schedule, rng=T.Rng(0))
        assert len(seen) == 3 and all(all(freed) for freed in seen)
        # 5 U-Net rows and 3 ControlNet rows in each step
        assert [step for step, _ in rows] == [1] * 8 + [2] * 8 + [3] * 8

    def test_training_descends_and_freezes(self, base_model, schedule, training_run):
        frozen = set(base_model.params) - N.trainable_names(base_model)
        assert (N.parameter_checksum(training_run.model, frozen)
                == N.parameter_checksum(base_model, frozen))
        assert (N.parameter_checksum(training_run.model)
                != N.parameter_checksum(base_model))
        assert len(training_run.losses) == 300
        first10 = float(np.mean(training_run.losses[:10]))
        last10 = float(np.mean(training_run.losses[-10:]))
        assert last10 <= 0.5 * first10

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_aborts_with_diagnostics(self, base_model, schedule):
        bad = base_model.replace({
            "unet.out_proj": T.Tensor(np.full((32, 4), 1e30, np.float32))})
        with pytest.raises(RuntimeError, match="non-finite"):
            P.one_shot_train(bad, synth_video(), synth_skeletons(), "p",
                             steps=3, schedule=schedule, rng=T.Rng(0))


class TestInvert:
    def test_single_step_inverts_back_within_1e5(self, base_model, schedule):
        z0 = N.encode_video(synth_video(), base_model.cfg)
        traj = P.invert(base_model, z0, 1, schedule)
        assert traj.timesteps == [D.CLEAN_STEP, 999]
        # freeze the same prediction the inversion used and step back down;
        # the single jump spans alpha_bar 1 -> 4e-5, so float32 cancellation
        # leaves a few 2e-5-scale outliers even though the algebra is exact
        eps = N.unet_forward(base_model, z0, 999, None)
        back = D.ddim_step(traj.final, eps, 999, D.CLEAN_STEP, schedule)
        rms = float(np.sqrt(np.mean((back.data - z0.data) ** 2)))
        assert rms <= 1e-5
        assert float(np.abs(back.data - z0.data).max()) <= 5e-5

    def test_trajectory_strictly_increasing(self, base_model, schedule):
        z0 = N.encode_video(synth_video(), base_model.cfg)
        traj = P.invert(base_model, z0, 7, schedule)
        ts = traj.timesteps
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert len(ts) == 8

    def test_round_trip_rms_recorded_and_pinned(self, base_model, schedule):
        video = synth_video()
        sk = synth_skeletons()
        z0 = N.encode_video(video, base_model.cfg)
        rec = P.reconstruct(base_model, video, sk, "a figure walking right",
                            steps=50, schedule=schedule)
        rms = float(np.sqrt(np.mean((rec.latent.data - z0.data) ** 2)))
        assert np.isfinite(rms)
        assert rms <= 5400.0  # recorded 4433 on the frozen seed, plus headroom


class TestReconstruct:
    def test_oracle_eps_double_recovers_source(self, base_model, schedule):
        video = synth_video()
        z0 = N.encode_video(video, base_model.cfg)
        oracle = D.oracle_eps_fn(z0, schedule)
        rec = P.reconstruct(base_model, video, synth_skeletons(), "p",
                            steps=50, schedule=schedule, eps_fn=oracle)
        rms = float(np.sqrt(np.mean((rec.latent.data - z0.data) ** 2)))
        assert rms <= 1e-4

    def test_inversion_and_sampling_run_one_predictor(self, base_model, schedule,
                                                       monkeypatch):
        built, used = [], {}

        def recorded(owner, name, record):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                out = real(*args, **kwargs)
                record(args, out)
                return out
            monkeypatch.setattr(owner, name, wrapper)

        recorded(P, "_predictor", lambda args, fn: built.append(fn))
        recorded(D, "ddim_invert", lambda args, _: used.setdefault("invert", args[0]))
        recorded(D, "ddim_sample", lambda args, _: used.setdefault("sample", args[0]))
        P.reconstruct(base_model, synth_video(), synth_skeletons(), "p", steps=2,
                      schedule=schedule)
        assert len(built) == 1
        assert used["invert"] is used["sample"] is built[0]

    def test_no_inversion_latent_outlives_the_call(self, base_model, schedule,
                                                  monkeypatch):
        refs = []
        invert, step = D.ddim_invert, D.ddim_invert_step

        def inverted(eps_fn, z0, *args):  # z0, then each latent a step makes
            refs.append(weakref.ref(z0.data))
            return invert(eps_fn, z0, *args)

        def stepped(*args):
            x = step(*args)
            refs.append(weakref.ref(x.data))
            return x

        monkeypatch.setattr(D, "ddim_invert", inverted)
        monkeypatch.setattr(D, "ddim_invert_step", stepped)
        rec = P.reconstruct(base_model, synth_video(), synth_skeletons(), "p",
                            steps=3, schedule=schedule)
        assert len(refs) == 4
        assert [ref() is None for ref in refs] == [True] * 4
        ts = D.subsequence(schedule.timesteps, 3)
        assert rec.inversion_timesteps == [D.CLEAN_STEP, *ts]

    def test_peak_is_flat_in_steps(self, base_model, schedule):
        peaks = {}
        for steps in (10, 40):
            tracemalloc.start()
            try:
                P.reconstruct(base_model, synth_video(), synth_skeletons(), "p",
                              steps=steps, schedule=schedule)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # one 8 KiB latent per step would add 240 KiB
        assert peaks[40] - peaks[10] <= 128 << 10, peaks

    def test_deterministic_under_fixed_seed(self, schedule, net_config):
        outs = []
        for _ in range(2):
            model = N.init_model(net_config, seed=99)
            rec = P.reconstruct(model, synth_video(), synth_skeletons(), "p",
                                steps=4, schedule=schedule)
            outs.append(rec.latent.data)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_post_training_reconstruction_not_worse(self, base_model, schedule,
                                                    training_run):
        video = synth_video()
        sk = synth_skeletons()
        z0 = N.encode_video(video, base_model.cfg)
        rms = {}
        for tag, m in (("pre", base_model), ("post", training_run.model)):
            rec = P.reconstruct(m, video, sk, "a figure walking right",
                                steps=20, schedule=schedule)
            rms[tag] = float(np.sqrt(np.mean((rec.latent.data - z0.data) ** 2)))
        assert rms["post"] <= rms["pre"]


class TestEdit:
    def test_branch_equivalence_bit_exact(self, base_model, schedule):
        job = make_job(ref_skeletons=synth_skeletons(), ref_masks=synth_masks(),
                       prompt_target="a figure walking right",
                       guidance=1.0, steps=5,
                       injection=I.InjectionSettings(enabled=False))
        res = P.edit(job, base_model, schedule)
        rec = P.reconstruct(base_model, job.video, job.source_skeletons,
                            job.prompt_source, steps=5, schedule=schedule)
        np.testing.assert_array_equal(res.edited.data, rec.latent.data)
        np.testing.assert_array_equal(res.reconstructed.data, rec.latent.data)

    def test_reconstructed_equals_reconstruct_per_control_flag(self, base_model,
                                                               schedule):
        recons = {}
        for control in (True, False):
            job = make_job(steps=3, guidance=7.5, control_on_recon=control)
            res = P.edit(job, base_model, schedule)
            rec = P.reconstruct(base_model, job.video, job.source_skeletons,
                                job.prompt_source, steps=3, schedule=schedule,
                                control_on_recon=control)
            np.testing.assert_array_equal(res.reconstructed.data, rec.latent.data)
            recons[control] = rec.latent.data
        # the flag reaches the branch: without the source pose it differs
        assert not np.array_equal(recons[True], recons[False])

    def test_full_run_finite_and_covers_all_gated_layers(self, base_model, schedule):
        job = make_job(steps=5, guidance=1.0)
        res = P.edit(job, base_model, schedule)
        assert np.isfinite(res.edited.data).all()
        gated = [lid for lid in N.BLOCK_ORDER if N.TOPOLOGY[lid] == "decoder"]
        assert res.cache.reads_cs == len(gated) * job.steps
        assert res.cache.reads_temporal == len(gated) * job.steps
        # the cache holds one step per gated layer: the last sampler step's
        ts = D.subsequence(schedule.timesteps, job.steps)
        for store in (res.cache.cs, res.cache.temporal):
            assert set(store) == set(gated)
            assert {t for t, _, _ in store.values()} == {ts[0]}
        # one cross-frame and one temporal stack per gated layer and step
        assert res.cache.writes == 2 * len(gated) * job.steps

    @pytest.mark.parametrize("inject_mid,want", [(False, 589_824), (True, 786_432)],
                             ids=["decoder", "mid"])
    def test_cache_peak_is_one_step_of_stacks(self, base_model, schedule,
                                              inject_mid, want):
        cfg = base_model.cfg
        job = make_job(steps=3, injection=I.InjectionSettings(inject_mid=inject_mid))
        res = P.edit(job, base_model, schedule)
        levels = [N.BLOCK_LEVEL[lid] for lid in N.BLOCK_ORDER
                  if I.gate(lid, N.TOPOLOGY, inject_mid)]
        # float32 keys and values: a (F, 2N, d) cross-frame stack and a
        # (N, F, d) temporal stack per gated layer
        one_step = sum(24 * cfg.frames * math.prod(cfg.level_hw(lv)) * cfg.widths[lv]
                       for lv in levels)
        assert res.cache.peak_bytes == one_step == want

    def test_injection_changes_the_edit(self, base_model, schedule):
        job_on = make_job(steps=4, guidance=1.0)
        job_off = make_job(steps=4, guidance=1.0,
                           injection=I.InjectionSettings(enabled=False))
        on = P.edit(job_on, base_model, schedule).edited.data
        off = P.edit(job_off, base_model, schedule).edited.data
        assert not np.array_equal(on, off)

    def test_empty_reference_mask_error_names_frame(self, base_model, schedule):
        masks = synth_masks(shift=3)
        masks[3] = 0.0
        job = make_job(ref_masks=masks, steps=3)
        with pytest.raises(SK.EmptyMaskError, match="frame 3"):
            P.edit(job, base_model, schedule)

    def test_guidance_scale_changes_output(self, base_model, schedule):
        a = P.edit(make_job(steps=3, guidance=1.0), base_model, schedule)
        b = P.edit(make_job(steps=3, guidance=7.5), base_model, schedule)
        assert not np.array_equal(a.edited.data, b.edited.data)

    def test_align_reports_cover_frames(self, base_model, schedule):
        job = make_job(steps=3)
        res = P.edit(job, base_model, schedule)
        assert len(res.align_reports) == base_model.cfg.frames
        for rep in res.align_reports:
            assert rep["w_star"] >= 1

    def test_first_frame_only_alignment_switch(self, base_model, schedule):
        job = make_job(steps=3, align_first_frame_only=True)
        res = P.edit(job, base_model, schedule)
        refs = [rep["bbox_reference"] for rep in res.align_reports]
        assert all(r == refs[0] for r in refs)

    def test_injection_window_restricts_reads(self, base_model, schedule):
        inj = I.InjectionSettings(window_fraction=0.4)
        job = make_job(steps=5, guidance=1.0, injection=inj)
        res = P.edit(job, base_model, schedule)
        gated = 2
        # 40% of 5 steps -> the trailing 2 steps inject
        assert res.cache.reads_cs == gated * 2

    def test_guided_injection_window_counts_a_read_per_forward(self, base_model,
                                                               schedule):
        inj = I.InjectionSettings(window_fraction=0.4)
        job = make_job(steps=5, guidance=7.5, injection=inj)
        res = P.edit(job, base_model, schedule)
        gated, forwards, steps = 2, 2, 2  # cond and uncond in the trailing 2 steps
        assert res.cache.reads_cs == gated * forwards * steps
        assert res.cache.reads_temporal == gated * forwards * steps

    def test_mis_shaped_video_fails_before_alignment(self, base_model, schedule):
        # frame 3's empty reference mask would fail alignment; the video's
        # shape is checked first, by the one rule encode_video keeps
        masks = synth_masks(shift=3)
        masks[3] = 0.0
        job = make_job(video=synth_video(frames=6), ref_masks=masks, steps=2)
        with pytest.raises(N.ConfigError, match=r"video shape \(6, 4, 32, 32\)"):
            P.edit(job, base_model, schedule)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_value_names_the_editing_half(self, base_model, schedule):
        job = make_job(steps=3, guidance=1e30)
        with pytest.raises(D.NonFiniteError, match=r"edit step .* in the editing half$"):
            P.edit(job, base_model, schedule)

    def test_job_validation_catches_frame_mismatch(self, base_model):
        job = make_job(source_masks=synth_masks(frames=4))
        with pytest.raises(P.JobError, match="source_masks"):
            job.validate(base_model.cfg)


def _patch_forward(monkeypatch, role, t_bad, effect):
    """U-Net forwards of ``role`` at ``t_bad`` return ``effect(eps)``."""
    real = N.unet_forward

    def forward(model, z, t, *args, **kwargs):
        out = real(model, z, t, *args, **kwargs)
        return effect(out) if kwargs.get("role") == role and t == t_bad else out

    monkeypatch.setattr(N, "unet_forward", forward)


def _nan(eps):
    return T.Tensor(np.full(eps.shape, np.nan, np.float32))


def _interrupt(eps):
    raise KeyboardInterrupt


def _exit(eps):
    os._exit(3)


def _patch_controlnet(monkeypatch, t_bad, effect):
    """ControlNet forwards at ``t_bad`` return ``effect`` of each feature."""
    real = N.controlnet_forward

    def forward(model, z, t, *args, **kwargs):
        feats = real(model, z, t, *args, **kwargs)
        return {k: effect(v) for k, v in feats.items()} if t == t_bad else feats

    monkeypatch.setattr(N, "controlnet_forward", forward)


def _huge(feats):
    return T.Tensor(feats.data * np.float32(1e30))


def _exit_in_child(parent=os.getpid()):
    """An effect that ends a forked worker, and only a forked worker."""
    def effect(feats):
        if os.getpid() != parent:
            os._exit(3)
        return feats
    return effect


@pytest.fixture
def place(monkeypatch):
    """``place(fork)`` forces edit's placement of its step worker and
    returns the list the pids of its forks go to."""
    real = os.fork

    def placed(fork):
        pids = []

        def recorded():
            pid = real()
            pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recorded)
        monkeypatch.setattr(P, "_fork_worker", lambda: fork)
        return pids
    return placed


class TestReconPlacement:
    """The step worker (control sides and the reconstruction walk) runs in a
    forked child or in this process, with the same results and errors, and
    no child outlives an edit."""

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(injection=I.InjectionSettings(drop_masked_tokens=True, inject_mid=True)),
        dict(injection=I.InjectionSettings(enabled=False)),
        dict(guidance=1.0),
        dict(injection=I.InjectionSettings(window_fraction=0.5)),
        dict(control_on_recon=False),
    ], ids=["default", "drop-mid", "no-injection", "guidance-1", "window-half",
            "no-recon-control"])
    def test_both_placements_give_identical_results(self, base_model, schedule,
                                                    place, monkeypatch, overrides):
        job = make_job(steps=4, **{"guidance": 7.5, **overrides})
        built = []
        real = N.control_sides
        monkeypatch.setattr(N, "control_sides",
                            lambda *args: built.append(args[2]) or real(*args))
        results = {}
        for fork in (False, True):
            pids = place(fork)
            results[fork] = P.edit(job, base_model, schedule)
            assert len(pids) == fork
            if not fork:
                # the editing walk asks for every step's sides; the inversion
                # asks, and the reconstruction walk builds them, only under
                # the source pose
                ts = D.subsequence(schedule.timesteps, job.steps)
                want = ts[::-1] + (ts + ts[::-1] if job.control_on_recon else [])
                assert sorted(built) == sorted(want)
        here, forked = results[False], results[True]
        for name in ("edited", "reconstructed"):
            a, b = getattr(here, name).data, getattr(forked, name).data
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for name in ("writes", "reads_cs", "reads_temporal", "peak_bytes"):
            assert getattr(here.cache, name) == getattr(forked.cache, name)

    @pytest.mark.parametrize("control_on_recon", [True, False],
                             ids=["recon-control", "no-recon-control"])
    def test_the_worker_encodes_the_poses(self, base_model, schedule, place,
                                          monkeypatch, control_on_recon):
        job = make_job(steps=2, control_on_recon=control_on_recon)
        encoded = []
        real = N.pose_features
        monkeypatch.setattr(N, "pose_features",
                            lambda model, sk: encoded.append(sk) or real(model, sk))
        pids = place(True)
        P.edit(job, base_model, schedule)
        # a forked worker's calls append to its own copy of the list
        assert len(pids) == 1 and encoded == []
        place(False)
        res = P.edit(job, base_model, schedule)
        # one pyramid per stack: the source's only under the source pose
        want = [job.source_skeletons] * control_on_recon + [res.aligned_skeletons]
        assert len(encoded) == len(want)
        assert all(got is stack for got, stack in zip(encoded, want))

    @pytest.mark.parametrize("fork", [False, True], ids=["here", "forked"])
    def test_peak_is_flat_in_steps(self, base_model, schedule, place, fork):
        place(fork)
        peaks = {}
        for steps in (10, 40):
            job = make_job(steps=steps)
            tracemalloc.start()
            try:
                P.edit(job, base_model, schedule)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # one 8 KiB latent per step would add 240 KiB
        assert peaks[40] - peaks[10] <= 128 << 10, peaks

    def test_steps_before_the_window_send_no_writes(self, base_model, schedule):
        job = make_job(steps=4, injection=I.InjectionSettings(window_fraction=0.5))
        ts = D.subsequence(schedule.timesteps, job.steps)
        x = T.Tensor(np.zeros((8, 4, 8, 8), np.float32))
        *steps, last = P._recon_walk(base_model, x, ts, schedule, job.prompt_source,
                                     None, job.injection, N.Conditioning(base_model))
        gated = sum(N.TOPOLOGY[lid] == "decoder" for lid in N.BLOCK_ORDER)
        assert [len(writes) for writes in steps] == [0, 0, 2 * gated, 2 * gated]
        assert isinstance(last, T.Tensor)

    @pytest.mark.parametrize("fork", [False, True], ids=["here", "forked"])
    @pytest.mark.parametrize("both", [False, True], ids=["recon", "both"])
    def test_non_finite_recon_half_is_named(self, base_model, schedule, place,
                                            monkeypatch, fork, both):
        ts = D.subsequence(schedule.timesteps, 3)
        _patch_forward(monkeypatch, "recon", ts[1], _nan)
        if both:
            _patch_forward(monkeypatch, "edit", ts[1], _nan)
        place(fork)
        with pytest.raises(D.NonFiniteError) as err:
            P.edit(make_job(steps=3), base_model, schedule)
        assert str(err.value) == (f"non-finite value in edit step 2/3 (t={ts[1]}): "
                                  "the new latent is not finite in the "
                                  "reconstruction half")

    @pytest.mark.parametrize("phase,control_on_recon", [
        ("invert", True), ("edit", False)], ids=["invert", "edit"])
    @pytest.mark.parametrize("effect,encoder_fails,message", [
        (_nan, False, "the new latent is not finite"),
        (_huge, False, "overflow encountered in"),
        (_huge, True, "overflow encountered in"),
    ], ids=["nan", "overflow", "overflow-and-encoder"])
    def test_control_error_names_its_step_in_both_placements(
            self, base_model, schedule, place, monkeypatch, phase,
            control_on_recon, effect, encoder_fails, message):
        # without the source pose only the editing walk runs the ControlNet
        ts = D.subsequence(schedule.timesteps, 3)
        _patch_controlnet(monkeypatch, ts[1], effect)
        if encoder_fails:
            # the U-Net fails before it reaches a controlled layer; the
            # control error still wins, as when the ControlNet ran first
            real, role = N.unet_forward, {"invert": "plain", "edit": "edit"}[phase]

            def forward(model, z, t, *args, **kwargs):
                if t == ts[1] and kwargs.get("role", "plain") == role:
                    raise FloatingPointError("the encoder's own error")
                return real(model, z, t, *args, **kwargs)

            monkeypatch.setattr(N, "unet_forward", forward)
        job = make_job(steps=3, guidance=7.5, control_on_recon=control_on_recon)
        texts = []
        for fork in (False, True):
            place(fork)
            with pytest.raises(D.NonFiniteError) as err:
                P.edit(job, base_model, schedule)
            texts.append(str(err.value))
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"non-finite value in {phase} step 2/3 "
                                   f"(t={ts[1]}): {message}")
        assert texts[0].endswith(" in the editing half") == (phase == "edit")

    @pytest.mark.parametrize("patch,error", [
        pytest.param(None, None, id="success"),
        pytest.param(("recon", _nan), r"in the reconstruction half$",
                     id="recon-non-finite"),
        pytest.param(("edit", _nan), r"in the editing half$", id="edit-non-finite"),
        pytest.param(("edit", _interrupt), None, id="edit-interrupted"),
        pytest.param(("recon", _exit), r"stopped before its last message",
                     id="worker-died"),
        pytest.param(("control", _huge), r"invert step 2/3 .*: overflow",
                     id="control-non-finite"),
        pytest.param(("control", _exit_in_child()),
                     r"stopped before its last message",
                     id="worker-died-in-control"),
    ])
    def test_no_child_outlives_an_edit(self, base_model, schedule, place,
                                       monkeypatch, patch, error):
        ts = D.subsequence(schedule.timesteps, 3)
        if patch is not None:
            where, effect = patch
            if where == "control":
                _patch_controlnet(monkeypatch, ts[1], effect)
            else:
                _patch_forward(monkeypatch, where, ts[1], effect)
        pids = place(True)
        job = make_job(steps=3)
        if patch is None:
            P.edit(job, base_model, schedule)
        elif error is None:
            with pytest.raises(KeyboardInterrupt):
                P.edit(job, base_model, schedule)
        else:
            with pytest.raises((D.NonFiniteError, RuntimeError), match=error):
                P.edit(job, base_model, schedule)
        [pid] = pids
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_buffered_stdout_is_printed_once(self):
        # stdout to a pipe is block-buffered, so the text is still in the
        # buffer when the child forks; a child that flushed it would print it
        # a second time
        code = textwrap.dedent("""
            import sys
            from conftest import make_job
            from vidmotion import network as N, pipeline as P
            P._fork_worker = lambda: True
            sys.stdout.write("left in the buffer\\n")
            P.edit(make_job(steps=2), N.init_model(N.NetConfig(), seed=3))
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(P.__file__)))
        tests = os.path.dirname(os.path.abspath(__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, tests])
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=300,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "left in the buffer\n"


class TestEditJobValidation:
    def test_bad_steps_rejected(self, base_model):
        job = make_job(steps=0)
        with pytest.raises(P.JobError, match="steps"):
            job.validate(base_model.cfg)

    def test_bad_guidance_rejected(self, base_model):
        job = make_job(guidance=-1.0)
        with pytest.raises(P.JobError, match="guidance"):
            job.validate(base_model.cfg)

    @pytest.mark.parametrize("guidance", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_guidance_rejected(self, base_model, guidance):
        job = make_job(guidance=guidance)
        with pytest.raises(P.JobError, match="guidance"):
            job.validate(base_model.cfg)
