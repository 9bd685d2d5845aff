"""Command-line entry points: align, train, reconstruct, edit, selftest.

Exit codes: 0 success, 1 check failure, 2 usage or input error. Every
command writes one new --out directory, whole or not at all, and is
byte-deterministic for a fixed config and seed.
"""
from __future__ import annotations

import argparse
import ctypes
import errno
import functools
import gc
import json
import os
import shutil
import sys
import tempfile
import time
import weakref
from dataclasses import fields

import numpy as np

from . import adapter as AD
from . import attention as A
from . import config as C
from . import diffusion as D
from . import gradcheck as G
from . import injection as I
from . import network as N
from . import pipeline as P
from . import skeleton as SK
from . import tensor as T

_INPUT_ERRORS = (N.ConfigError, P.JobError, SK.EmptyMaskError,
                 SK.RasterError, SK.KeypointError, D.ScheduleError,
                 T.ShapeError, T.FormatError, I.MaskError, I.CacheError,
                 I.GateError, OSError)


# ---------------------------------------------------------------------------
# process set-up


_M_TRIM_THRESHOLD = -1  # glibc <malloc.h> mallopt parameters
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> bool:
    """Have glibc keep freed memory for reuse; True if it took the settings.

    Each forward allocates and frees about 1 MB of numpy temporaries. By
    default glibc maps large blocks afresh and returns the top of the heap to
    the kernel, so every forward page-faults its temporaries back in. Blocks
    below 32 MiB now come from the heap, which is trimmed only once 64 MiB
    lie free at its top. Does nothing where ``mallopt`` is missing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)
                and mallopt(_M_TRIM_THRESHOLD, 64 << 20))


@functools.cache
def _one_blas_thread() -> bool:
    """Run OpenBLAS on one thread; True if it took the setting.

    The matrices are tiny, so a second BLAS thread only spins, and ``edit``
    hands its reconstruction branch to a second process only beside a
    one-thread BLAS. Does nothing where numpy links no OpenBLAS.
    """
    set_threads = P.openblas_function("set")
    if set_threads is None:
        return False
    set_threads(1)
    return P.openblas_function("get")() == 1


# ---------------------------------------------------------------------------
# shared I/O helpers


def _load_raster_dir(path, mask: bool = False) -> np.ndarray:
    """A directory's .pgm frames as float32, through ``read_mask_pgm`` if ``mask``."""
    if not os.path.isdir(path):
        raise FileNotFoundError(f"frame directory not found: {path}")
    names = sorted(f for f in os.listdir(path) if f.endswith(".pgm"))
    if not names:
        raise FileNotFoundError(f"no .pgm frames in {path}")
    read = SK.read_mask_pgm if mask else SK.read_pgm
    frames = [read(os.path.join(path, n)) for n in names]
    h0, w0 = frames[0].shape
    for name, frame in zip(names, frames):
        if frame.shape != (h0, w0):
            h, w = frame.shape
            raise SK.RasterError(f"{path}: frame {name} is {w}x{h}, but "
                                 f"{names[0]} is {w0}x{h0}")
    return np.stack(frames).astype(np.float32)


def _inputs(cfg: C.Config, *keys: str) -> list:
    """The inputs at the config's paths ``keys``, in order: the MELT video,
    or a directory's PGM frames (masks thresholded). Every path is checked
    present and existing before any is read."""
    missing = [k for k in keys if k not in cfg.paths]
    if missing:
        raise C.ConfigError(f"config paths missing: {missing}")
    for k in keys:
        if not os.path.exists(cfg.paths[k]):
            raise FileNotFoundError(f"{k}: no such path {cfg.paths[k]}")
    return [T.load_tensor(cfg.paths[k]) if k == "source_video"
            else _load_raster_dir(cfg.paths[k], mask=k.endswith("_masks"))
            for k in keys]


def _stage(out_dir: str) -> str:
    """A new directory beside ``out_dir``, of the mode ``os.mkdir`` gives, for
    a command's tree; ``main`` renames it to ``out_dir``. As for mkdir(1),
    ``out_dir`` must not exist, not even as a link, and its parent must be an
    existing directory: "link/" is the link itself, "gone/../o" has none."""
    try:
        os.stat(out_dir)  # an empty, overlong or looping name, a file on the way
    except FileNotFoundError:
        if not out_dir:
            raise
    path = out_dir.rstrip(os.sep) or os.sep  # not normpath, which drops "gone/.."
    if os.path.lexists(path):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out_dir)
    parent, name = os.path.split(path)
    if not os.path.isdir(parent or os.curdir):
        raise FileNotFoundError(errno.ENOENT, "no such parent directory", out_dir)
    staging = tempfile.mkdtemp(prefix=f".{name}.partial-", dir=parent or os.curdir)
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(staging, 0o777 & ~umask)
    return staging


def _model_for(cfg: C.Config) -> N.ModelWeights:
    """The weights every command but ``align`` starts from: the config's
    checkpoint, else a new model of the config's ``model`` section. A
    checkpoint must describe that model field by field; its time embeddings
    cover the noise schedule it was built for, so one built for another
    number of timesteps than the config's schedule is refused too."""
    if "checkpoint" not in cfg.paths:
        return N.init_model(cfg.model, seed=cfg.seed)
    model = N.load_checkpoint(cfg.paths["checkpoint"])
    for f in fields(N.NetConfig):
        have, want = getattr(model.cfg, f.name), getattr(cfg.model, f.name)
        if have == want:
            continue
        if f.name == "schedule_steps":
            raise C.ConfigError(f"the checkpoint's time embeddings cover a "
                                f"{have}-step schedule, but "
                                f"schedule.timesteps is {want}")
        raise C.ConfigError(f"the checkpoint's model.{f.name} is {have!r}, "
                            f"but the config's is {want!r}")
    return model


def _schedule_for(cfg: C.Config) -> D.NoiseSchedule:
    return D.make_schedule(cfg.schedule.timesteps, cfg.schedule.beta_min,
                           cfg.schedule.beta_max)


def _write_latent_outputs(out_dir, name: str, latent: T.Tensor) -> None:
    T.save_tensor(os.path.join(out_dir, f"{name}.melt"), latent)
    preview_dir = os.path.join(out_dir, f"{name}_previews")
    os.mkdir(preview_dir)
    data = latent.data
    frames, channels = data.shape[0], data.shape[1]
    for f in range(frames):
        tiles = []
        for c in range(channels):
            ch = data[f, c].astype(np.float64)
            lo, hi = ch.min(), ch.max()
            tiles.append(np.zeros_like(ch) if hi == lo
                         else (ch - lo) / (hi - lo) * 255.0)
        SK.write_pgm(os.path.join(preview_dir, f"frame_{f:03d}.pgm"),
                     np.concatenate(tiles, axis=1))


# ---------------------------------------------------------------------------
# commands


def cmd_align(cfg: C.Config, out_dir: str) -> str:
    rasters = _inputs(cfg, "source_skeletons", "source_masks",
                      "ref_skeletons", "ref_masks")
    counts = {arr.shape[0] for arr in rasters}
    if len(counts) != 1:
        raise P.JobError(f"frame counts disagree across inputs: {sorted(counts)}")
    aligned, reports = P.align_skeletons(*rasters, cfg.alignment.first_frame_only)
    for i, (raster, report) in enumerate(zip(aligned, reports)):
        SK.write_pgm(os.path.join(out_dir, f"aligned_{i:03d}.pgm"), raster)
        report["frame"] = i
    with open(os.path.join(out_dir, "align_report.json"), "w") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
    return f"aligned {len(reports)} frames -> {out_dir}"


def cmd_train(cfg: C.Config, out_dir: str) -> str:
    source = _inputs(cfg, "source_video", "source_skeletons")
    # the call alone holds the model and the source, so training frees the
    # initial weights after the first step and the source once it is encoded
    result = P.one_shot_train(_model_for(cfg), source.pop(0), source.pop(0),
                              cfg.prompts.source, steps=cfg.training.steps,
                              lr=cfg.training.lr, schedule=_schedule_for(cfg),
                              rng=T.Rng(cfg.seed))
    N.save_checkpoint(os.path.join(out_dir, "checkpoint"), result.model)
    with open(os.path.join(out_dir, "loss.csv"), "w") as fh:
        fh.write("step,loss\n")
        for i, value in enumerate(result.losses):
            fh.write(f"{i},{value:.8f}\n")
    n = len(result.losses)
    k = max(1, min(10, n // 2))  # disjoint windows from two steps on
    return (f"trained {n} steps: first-{k} mean {np.mean(result.losses[:k]):.4f}, "
            f"last-{k} mean {np.mean(result.losses[-k:]):.4f}" if n
            else "trained 0 steps")


def cmd_reconstruct(cfg: C.Config, out_dir: str) -> str:
    model = _model_for(cfg)
    video, skeletons = _inputs(cfg, "source_video", "source_skeletons")
    result = P.reconstruct(model, video, skeletons, cfg.prompts.source,
                           steps=cfg.sampler.steps, schedule=_schedule_for(cfg),
                           control_on_recon=cfg.alignment.control_on_recon)
    _write_latent_outputs(out_dir, "reconstructed", result.latent)
    with open(os.path.join(out_dir, "reconstruct_report.json"), "w") as fh:
        json.dump({
            "inversion_timesteps": result.inversion_timesteps,
            "metrics_vs_source": result.metrics_vs_source,
        }, fh, indent=1, sort_keys=True)
    return f"reconstructed -> {out_dir}"


def cmd_edit(cfg: C.Config, out_dir: str) -> str:
    model = _model_for(cfg)
    # the path keys name EditJob's first five fields, in order
    job = P.EditJob(*_inputs(cfg, "source_video", "source_masks", "source_skeletons",
                             "ref_skeletons", "ref_masks"),
                    prompt_source=cfg.prompts.source, prompt_target=cfg.prompts.target,
                    steps=cfg.sampler.steps, guidance=cfg.sampler.guidance,
                    injection=cfg.injection,
                    align_first_frame_only=cfg.alignment.first_frame_only,
                    control_on_recon=cfg.alignment.control_on_recon)
    result = P.edit(job, model, _schedule_for(cfg))
    _write_latent_outputs(out_dir, "edited", result.edited)
    _write_latent_outputs(out_dir, "reconstructed", result.reconstructed)
    aligned_dir = os.path.join(out_dir, "aligned")
    os.mkdir(aligned_dir)
    for i, raster in enumerate(result.aligned_skeletons):
        SK.write_pgm(os.path.join(aligned_dir, f"frame_{i:03d}.pgm"), raster)
    with open(os.path.join(out_dir, "edit_report.json"), "w") as fh:
        json.dump({
            "align": result.align_reports,
            "inversion_timesteps": result.inversion_timesteps,
            "cache": {"writes": result.cache.writes,
                      "peak_bytes": result.cache.peak_bytes,
                      **{f"reads_{kind}": n for kind, n in result.cache.reads.items()}},
            "sampler": {"steps": job.steps, "guidance": job.guidance},
            "injection_enabled": job.injection.enabled,
        }, fh, indent=1, sort_keys=True)
    return f"edited -> {out_dir}"


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks(seed: int, corrupt_gradient: bool):
    rng = np.random.default_rng(seed)

    def gen(shape, scale=1.0):
        return rng.normal(0, scale, shape).astype(np.float32)

    def check_primitive_gradients():
        w44 = T.Tensor(gen((4, 4)))
        w43 = T.Tensor(gen((4, 3)))
        p43 = T.Tensor(gen((4, 3)))
        p243 = T.Tensor(gen((2, 4, 3)))
        p54 = T.Tensor(gen((5, 4)))
        kernel = T.Tensor([0.5, -1.0, 0.25])
        # the (frames, tokens, width) stack x matrix is the network's projection
        cases = {
            "matmul": (lambda x: T.mean(T.mul(T.matmul(x, w43), p43)), (4, 4)),
            "matmul_stack": (lambda x: T.mean(T.mul(T.matmul(x, w43), p243)),
                             (2, 4, 4)),
            "softmax": (lambda x: T.mean(T.mul(T.softmax(x, axis=1), w44)), (4, 4)),
            "layer_norm": (lambda x: T.mean(T.mul(
                T.layer_norm(x, T.ones((4,)), T.zeros((4,))), w44)), (4, 4)),
            "conv_temporal": (lambda x: T.mean(T.mul(
                T.conv_temporal(x, kernel), p54)), (5, 4)),
            "silu": (lambda x: T.mean(T.mul(T.silu(x), w44)), (4, 4)),
        }
        worst = 0.0
        for name, (f, shape) in cases.items():
            ok, err = G.check_gradient(f, gen(shape, 0.8))
            worst = max(worst, err)
            if not ok:
                return False, f"{name} relative error {err:.2e}"
        return True, f"worst relative error {worst:.2e}"

    def check_attention_gradients():
        p = A.init_projection_set(T.Rng(seed), 6)
        # one token matrix, and a stack of two as the network calls them
        for shape in ((3, 6), (2, 3, 6)):
            other = T.Tensor(gen(shape))
            probe = T.Tensor(gen(shape))
            kernels = {
                "attend": lambda x: A.attend(x, other, other),
                "cs": lambda x: A.cs_attention(other, x, p),
                "temporal": lambda x: A.temporal_attention(x, p),
                "cross": lambda x: A.content_cross_attention(x, other, p),
            }
            for name, k in kernels.items():
                ok, err = G.check_gradient(
                    lambda x, k=k: T.mean(T.mul(k(x), probe)), gen(shape, 0.7))
                if not ok:
                    return False, (f"{name} rank {len(shape)} relative error "
                                   f"{err:.2e}")
        return True, "all four kernels within 1e-3 on rank 2 and rank 3"

    def check_adapter_gradients():
        w = AD.init_adapter(T.Rng(seed + 1), 6)
        transform = None
        if corrupt_gradient:
            def transform(name, grad):
                return grad * 1.5 + 0.05 if name == "adapter.conv1" else grad
        report = AD.adapter_grad_check(w, T.Rng(seed + 2), frames=2, tokens=3,
                                       grad_transform=transform)
        bad = [k for k, v in report.items() if k != "__all__" and not v["ok"]]
        return report["__all__"]["ok"], ("all parameters within 1e-3" if not bad
                                         else f"failing: {bad}")

    def check_unet_gradient():
        model = _model_for(C.Config(seed=seed))
        cfg = model.cfg
        z = T.Tensor(gen((cfg.frames, cfg.channels, 8, 8), 0.5))
        probe = T.Tensor(gen(z.shape))
        name = "unet.dec0.temporal.w_out"

        def f(w):
            return T.mean(T.mul(
                N.unet_forward(model.replace({name: w}), z, 33, "p"), probe))

        v = gen(model.params[name].shape)
        v /= np.linalg.norm(v)
        ok, err = G.directional_check(f, model.params[name].data, v, h=5e-3)
        return ok, f"directional relative error {err:.2e}"

    def check_tape_refcount():
        # with the cyclic collector off, only reference counting can free
        # the tape; a Node -> Tape back-reference would keep it alive
        enabled = gc.isenabled()
        gc.disable()
        try:
            tape = T.Tape()
            x = tape.watch(T.Tensor(gen((3, 4))))
            T.backward(tape, T.mean(T.silu(T.matmul(x, T.Tensor(gen((4, 2)))))))
            freed = weakref.ref(tape)
            del tape, x
            alive = freed() is not None
        finally:
            if enabled:
                gc.enable()
        return not alive, ("tape outlived its tensors: a reference cycle"
                           if alive else "tape freed with its last tensor")

    def check_tape_saves():
        # a frozen weight's input is not kept for the weight's gradient, and
        # skipping frozen products leaves every trainable gradient's bits
        tape = T.Tape()
        x = tape.watch(T.Tensor(gen((3, 4))))
        h = T.matmul(x, T.Tensor(gen((4, 2))))
        kept = weakref.ref(x.data)
        del x
        if kept() is not None:
            return False, "a frozen weight's input outlived the forward"
        model = _model_for(C.Config(seed=seed + 5))
        cfg = model.cfg
        model = model.replace({
            f"adapter{lvl}.out_proj": T.Tensor(gen((d, d), 0.1))
            for lvl, d in enumerate(cfg.widths)})
        z = T.Tensor(gen((cfg.frames, cfg.channels, cfg.latent_size, cfg.latent_size)))
        eps = T.Tensor(gen(z.shape))
        pose = N.pose_features(model, rng.uniform(
            0, 255, (cfg.frames, cfg.image_size, cfg.image_size)))
        trainable = {n: model.params[n] for n in N.trainable_names(model)}
        _, grads = P.train_step(model, trainable, pose, z, 417, eps, "p")
        _, every = P.train_step(model, model.params, pose, z, 417, eps, "p")
        moved = sorted(n for n, g in grads.items()
                       if g.data.tobytes() != every[n].data.tobytes())
        if moved:
            return False, f"gradients differ from the watch-all walk: {moved}"
        return True, (f"input freed with {h.shape} output alive; "
                      f"{len(grads)} trainable gradients equal the watch-all walk")

    def check_partition():
        for i in range(100):
            n = int(rng.integers(1, 65))
            d = int(rng.integers(1, 33))
            k, v = gen((n, d), 3.0), gen((n, d), 3.0)
            m = rng.integers(0, 2, n).astype(np.float32)
            k_fg, v_fg, k_bg, v_bg = I.decouple_kv(T.Tensor(k), T.Tensor(v), m)
            if not ((k_fg.data + k_bg.data == k).all()
                    and (v_fg.data + v_bg.data == v).all()):
                return False, f"partition broke at case {i}"
        return True, "100 random masks, bit-exact"

    def check_duplication():
        for i in range(50):
            d = int(rng.integers(2, 17))
            n = int(rng.integers(1, 9))
            p = A.init_projection_set(T.Rng(seed + 10 + i), d)
            z = T.Tensor(gen((n, d)))
            via_cs = A.cs_attention(z, z, p)
            plain = T.matmul(A.attend(T.matmul(z, p.w_q), T.matmul(z, p.w_k),
                                      T.matmul(z, p.w_v)), p.w_out)
            if np.abs(via_cs.data - plain.data).max() > 1e-5:
                return False, f"duplication reduction broke at case {i}"
        return True, "50 fixtures within 1e-5"

    def check_injection_layout():
        frames, n, d = 3, 4, 8
        k_r = T.Tensor(gen((frames, 2 * n, d)))
        v_r = T.Tensor(gen((frames, 2 * n, d)))
        mask = rng.integers(0, 2, (frames, 2 * n)).astype(np.float32)
        recon = I.decouple_kv(k_r, v_r, mask)
        cur = (T.Tensor(gen((frames, n, d))), T.Tensor(gen((frames, n, d))))
        k_inj, v_inj = I.build_injected_kv(recon, cur)
        if k_inj.shape != (frames, 5 * n, d) or v_inj.shape != k_inj.shape:
            return False, f"stack shape {k_inj.shape}"
        for i in range(frames):
            if not ((k_inj.data[i, :2 * n] == recon[0].data[i]).all()
                    and (k_inj.data[i, 2 * n:4 * n] == recon[2].data[i]).all()
                    and (k_inj.data[i, 4 * n:] == cur[0].data[i]).all()
                    and (v_inj.data[i, :2 * n] == recon[1].data[i]).all()
                    and (v_inj.data[i, 2 * n:4 * n] == recon[3].data[i]).all()
                    and (v_inj.data[i, 4 * n:] == cur[1].data[i]).all()):
                return False, f"frame {i} slices do not recover constituents"
        return True, f"5N layout on {frames} frames, slices recover constituents"

    def check_ddim_identity():
        s = D.make_schedule()
        x0 = T.Tensor(gen((1, 4, 8, 8)))
        eps0 = T.Tensor(gen((1, 4, 8, 8)))
        fn = D.oracle_eps_fn(x0, s)
        start = D.q_sample(x0, 999, eps0, s)
        traj = D.ddim_sample(fn, start, D.subsequence(1000, 50), s)
        rms = float(np.sqrt(np.mean((traj.final.data - x0.data) ** 2)))
        if rms > 1e-4:
            return False, f"oracle round trip rms {rms:.2e}"
        x = T.Tensor(gen((2, 3)))
        eps = T.Tensor(gen((2, 3)))
        up = D.ddim_invert_step(x, eps, 200, 700, s)
        back = D.ddim_step(up, eps, 700, 200, s)
        gap = float(np.abs(back.data - x.data).max())
        if gap > 1e-6:
            return False, f"mutual inverse gap {gap:.2e}"
        return True, f"round trip rms {rms:.2e}, inverse gap {gap:.2e}"

    def check_gating():
        model = _model_for(C.Config(seed=seed + 3))
        cfg = model.cfg
        z = T.Tensor(gen((cfg.frames, cfg.channels, 8, 8), 0.5))
        cache = I.ReconCache()
        N.unet_forward(model, z, 7, "p", role="recon", cache=cache)
        masks = I.LatentMask.from_rasters(
            (rng.uniform(size=(cfg.frames, 32, 32)) > 0.5).astype(np.float32),
            cfg.level_shapes())
        probe_on, probe_off = {}, {}
        N.unet_forward(model, z, 7, "p", role="edit", cache=cache, masks=masks,
                       inj=I.InjectionSettings(), probe=probe_on)
        N.unet_forward(model, z, 7, "p", role="edit",
                       inj=I.InjectionSettings(enabled=False), probe=probe_off)
        for lid in ("enc0", "enc1", "mid"):
            for kind in ("cs", "cross", "temporal"):
                if not np.array_equal(probe_on[(lid, kind)],
                                      probe_off[(lid, kind)]):
                    return False, f"encoder layer {lid}/{kind} changed"
        return True, "encoder layers bit-identical under injection"

    def check_alignment():
        mask = np.zeros((32, 32), dtype=np.float32)
        mask[8:24, 10:26] = 1.0  # square bbox: aspect ratio exactly 1
        skel = np.zeros((32, 32), dtype=np.float32)
        skel[12:20, 12:20] = 180.0
        res = SK.align(skel, mask, skel, mask)
        if not np.array_equal(res.skeleton, skel):
            return False, "identity fixture not reproduced"
        if res.report["ratio"] != 1.0 or res.report["offset"] != [0, 0]:
            return False, f"identity report {res.report}"
        shifted_m = np.roll(mask, (6, 6), axis=(0, 1))
        shifted_s = np.roll(skel, (6, 6), axis=(0, 1))
        res2 = SK.align(skel, mask, shifted_s, shifted_m)
        if res2.report["offset"] != [-6, -6]:
            return False, f"translation offset {res2.report['offset']}"
        if not np.allclose(res2.skeleton, skel):
            return False, "translation fixture not recovered"
        src = np.zeros((128, 128), dtype=np.float32)
        src[10:110, 30:90] = 1.0
        ref = np.zeros((128, 128), dtype=np.float32)
        ref[20:70, 40:65] = 1.0
        res3 = SK.align(src, src, ref, ref)
        if res3.report["w_star"] != 50:
            return False, f"hand-traced w_star {res3.report['w_star']}"
        return True, "identity, translation, and resize fixtures hold"

    def check_adapter_identity():
        w = AD.init_adapter(T.Rng(seed + 4), 8)
        for i in range(20):
            m = T.Tensor(gen((2, 3, 8), 2.0))
            z = T.Tensor(gen((2, 3, 8), 2.0))
            if not np.array_equal(AD.adapter_forward(m, z, w).data, m.data):
                return False, f"identity broke at fixture {i}"
        return True, "20 fixtures, bit-exact passthrough"

    def check_cfg_combine():
        u, c = T.Tensor(gen((4,))), T.Tensor(gen((4,)))
        ok = (D.cfg_combine(u, c, 0.0) is u and D.cfg_combine(u, c, 1.0) is c
              and D.cfg_combine(T.zeros((1,)), T.Tensor([2.0]), 7.5).item() == 15.0)
        return ok, "scales 0/1 exact, 7.5 extrapolates"

    def check_kernel_identity():
        # rows around the 127/128-entry switch of softmax's max, signed zeros,
        # subnormals and magnitudes near the float32 limit
        specials = np.array([0.0, -0.0, 1e-45, -1e-45, 88.7, -88.7, 3e38, -3e38],
                            dtype=np.float32)
        for row in (1, 2, 126, 127, 128, 129, 400):
            for axis in (0, 1, 2):
                shape = [3, 5, 4]
                shape[axis] = row
                x = gen(shape, 30.0)
                x.reshape(-1)[:len(specials)] = specials
                if T._sigmoid(x).tobytes() != T._sigmoid_reference(x).tobytes():
                    return False, f"sigmoid differs on shape {tuple(shape)}"
                with np.errstate(over="ignore"):
                    fast = T.softmax(T.Tensor(x), axis=axis).data
                    ref = T._softmax_reference(x.copy(), axis)
                if fast.tobytes() != ref.tobytes():
                    return False, f"softmax differs on shape {tuple(shape)} axis {axis}"
        return True, "sigmoid and softmax bit-identical to their references"

    return [
        ("gradient-primitives", check_primitive_gradients),
        ("gradient-attention", check_attention_gradients),
        ("gradient-adapter", check_adapter_gradients),
        ("gradient-unet", check_unet_gradient),
        ("tape-refcount", check_tape_refcount),
        ("tape-saves", check_tape_saves),
        ("partition-identity", check_partition),
        ("duplication-reduction", check_duplication),
        ("injection-layout", check_injection_layout),
        ("ddim-identities", check_ddim_identity),
        ("decoder-gating", check_gating),
        ("alignment-fixtures", check_alignment),
        ("adapter-identity", check_adapter_identity),
        ("cfg-combine", check_cfg_combine),
        ("kernel-identity", check_kernel_identity),
    ]


def cmd_selftest(seed: int = 0, corrupt_gradient: bool = False) -> int:
    started = time.perf_counter()
    failures = 0
    for name, check in _selftest_checks(seed, corrupt_gradient):
        t0 = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<24} {elapsed:6.2f}s  {detail}")
        failures += 0 if ok else 1
    total = time.perf_counter() - started
    print(f"{'OK' if failures == 0 else 'FAILED'}: "
          f"{failures} failure(s), {total:.1f}s total")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vidmotion",
        description="pose-driven video motion editing, desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    # every flag but --config and --out stores its value, None when it is
    # not given, under the section.field it overrides
    def common(p):
        p.add_argument("--config", required=True, help="config JSON path")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", default="out", help="output directory")

    p_align = sub.add_parser("align", help="align reference skeletons")
    common(p_align)

    p_train = sub.add_parser("train", help="one-shot training on the source")
    common(p_train)
    p_train.add_argument("--steps", type=int, default=None, dest="training.steps",
                         help="override training steps")

    for name in ("edit", "reconstruct"):
        p_cmd = sub.add_parser(name)
        common(p_cmd)
        p_cmd.add_argument("--checkpoint", default=None, dest="paths.checkpoint",
                           help="trained checkpoint directory")
        p_cmd.add_argument("--steps", type=int, default=None, dest="sampler.steps",
                           help="override sampler steps")
    p_edit = sub.choices["edit"]  # guidance and injection: editing branch only
    p_edit.add_argument("--guidance", type=float, default=None,
                        dest="sampler.guidance")
    p_edit.add_argument("--no-injection", action="store_false", default=None,
                        dest="injection.enabled")
    p_edit.add_argument("--inject-mid", action="store_true", default=None,
                        dest="injection.inject_mid")
    p_edit.add_argument("--drop-masked-tokens", action="store_true", default=None,
                        dest="injection.drop_masked_tokens")

    p_self = sub.add_parser("selftest", help="run the invariant suite")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--corrupt-gradient", action="store_true",
                        help="negative control: break one backward rule")
    return parser


def _flag_fields(args) -> dict[str, object]:
    """The value of each config field, by ``section.field``, that a
    command-line flag sets."""
    return {dest: value for dest, value in vars(args).items()
            if value is not None and dest not in ("command", "config", "out")}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _keep_freed_heap()
    _one_blas_thread()
    try:
        if args.command == "selftest":
            seed = C.config_from_dict({"seed": args.seed}).seed
            return cmd_selftest(seed=seed, corrupt_gradient=args.corrupt_gradient)
        cfg = C.load_config(args.config, _flag_fields(args))
        command = {"align": cmd_align, "train": cmd_train,
                   "reconstruct": cmd_reconstruct, "edit": cmd_edit}[args.command]
        staging = _stage(args.out)
        try:
            summary = command(cfg, staging)
            os.rename(staging, args.out)
        finally:  # gone after the rename; a killed run leaves it as its marker
            shutil.rmtree(staging, ignore_errors=True)
        print(summary.replace(staging, args.out))  # a summary names its tree
        return 0
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
