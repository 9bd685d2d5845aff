"""End-to-end orchestration: one-shot training on the source video, DDIM
inversion, and two-branch editing with attention injection.

Both branches denoise the inverted source step by step: at each step the
reconstruction branch (source skeleton condition) writes its keys/values, the
editing branch's ReconCache takes them, and the editing branch (aligned
target skeleton) reads them as injected keys/values at gated layers, so the
cache hands off one step at a time. The reconstruction branch reads nothing
of the editing branch, and a step's ControlNet features read nothing of its
U-Net stream, so where the host allows it a forked step worker, on another
CPU, builds each step's adapter control sides while the U-Net encoder runs
here, and runs the reconstruction branch one step ahead. The text keys and
values are the weights' own (``network.ModelWeights.text``), built once for
every predictor and training step that shares the weights.
"""
from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import itertools
import math
import os
import pickle
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, NoReturn

import numpy as np

from . import adapter as AD
from . import diffusion as D
from . import injection as I
from . import network as N
from . import skeleton as SK
from . import tensor as T
from .tensor import Tensor


class JobError(ValueError):
    """Inconsistent editing-job inputs."""


@dataclass
class EditJob:
    video: Tensor                 # (F, C, image, image) source pixels
    source_masks: np.ndarray      # (F, image, image) in {0,1}
    source_skeletons: np.ndarray  # (F, image, image) intensities
    ref_skeletons: np.ndarray
    ref_masks: np.ndarray
    prompt_source: str
    prompt_target: str
    steps: int
    guidance: float
    injection: I.InjectionSettings
    align_first_frame_only: bool
    control_on_recon: bool

    def validate(self, cfg: N.NetConfig) -> None:
        """Check every input but the video, whose shape ``N.encode_video``
        checks."""
        frames = cfg.frames
        per_frame = {
            "source_masks": self.source_masks,
            "source_skeletons": self.source_skeletons,
            "ref_skeletons": self.ref_skeletons,
            "ref_masks": self.ref_masks,
        }
        for name, arr in per_frame.items():
            arr = np.asarray(arr)
            if arr.shape != (frames, cfg.image_size, cfg.image_size):
                raise JobError(f"{name} shape {arr.shape} != "
                               f"{(frames, cfg.image_size, cfg.image_size)}")
        if self.steps < 1:
            raise JobError(f"sampler steps must be >= 1, got {self.steps}")
        if not 0 <= self.guidance < math.inf:
            raise JobError(f"guidance must be finite and >= 0, got {self.guidance}")


@dataclass
class TrainResult:
    model: N.ModelWeights
    losses: list[float]


def one_shot_train(model: N.ModelWeights, video: Tensor,
                   skeletons: np.ndarray, prompt: str, steps: int, lr: float,
                   schedule: D.NoiseSchedule, rng: T.Rng) -> TrainResult:
    """Fine-tune only the adapter and temporal attention to re-predict the
    noise on the source video (uniform timesteps, Adam, constant lr).

    ``model`` is rebound to the updated weights after every step; they
    share its text keys and values (``N.ModelWeights.text``), so a run
    builds those once. A caller that keeps no reference to ``model`` has
    one copy of the trainable weights alive between steps, beside Adam's
    two moments. Likewise ``video`` and ``skeletons`` are let go once
    encoded, so a caller that keeps no reference to them frees them before
    the first step. A step's graph, time rows and control sides are freed
    before the next step builds its own."""
    z0 = N.encode_video(video, model.cfg)
    pose = N.pose_features(model, skeletons)
    del video, skeletons
    names = sorted(N.trainable_names(model))
    state = T.AdamState(lr=lr)
    losses: list[float] = []
    for step in range(steps):
        t = rng.integer(0, schedule.timesteps)
        eps = rng.normal(z0.shape)
        params = {n: model.params[n] for n in names}
        where = f"non-finite value in train step {step + 1}/{steps} (t={t})"
        with D.guard(where) as finite:
            value, grads = train_step(model, params, pose,
                                      D.q_sample(z0, t, eps, schedule), t, eps, prompt)
            finite(value, "the loss")
            model = model.replace(T.adam_step(params, grads, state))
        # grads and the old weights are not held while the next step builds
        # its graph
        del grads, params
        losses.append(value)
    return TrainResult(model, losses)


def train_step(model: N.ModelWeights, params: dict[str, Tensor],
               pose: dict[int, Tensor], x_t: Tensor, t: int, eps: Tensor,
               prompt: str) -> tuple[float, dict[str, Tensor | None]]:
    """The loss of one step and the gradient of each of ``params``. The
    step's graph and StepContext live only in this frame: backward frees
    each node's saved arrays as it passes, and the rest is freed on return,
    before the next step builds its own."""
    tape = T.Tape()
    watched = {n: tape.watch(p) for n, p in params.items()}
    m = model.replace(watched)
    step = N.StepContext(t, x_t, _computed(m, pose)(x_t, t))
    loss = D.training_loss(N.unet_forward(m, x_t, t, prompt, step=step), eps)
    value = loss.item()
    T.backward(tape, loss)
    return value, {n: tape.grad(w) for n, w in watched.items()}


# A predictor's control: called with a step's latent and t, it asks for that
# step's control sides and returns the function that hands them over. Each
# controlled layer calls that function, so it may be called more than once,
# and returns the same sides or raises the same error each time.
Control = Callable[[Tensor, int], Callable[[], dict[str, AD.ControlSide]]]


def _predictor(model: N.ModelWeights, ts: list[int], prompt: str | None,
               guidance: float = 1.0, role: str = "plain",
               cache: I.ReconCache | None = None,
               masks: I.LatentMask | None = None,
               inj: I.InjectionSettings | None = None,
               control: Control | None = None) -> D.EpsFn:
    """One branch's eps function over the sampler steps ``ts``: adapter
    control sides from ``control`` (none without it), classifier-free
    guidance (one forward at 0, the uncond, and at 1, the cond), and ``role``
    inside the injection window of ``inj``, "plain" before it and at every
    step without ``inj``. The forwards read their text keys and values from
    ``model``, which keeps them for every predictor that shares it. Each
    step's forwards share one StepContext, so under guidance the uncond
    forward reuses the cond forward's first-block opening and control sides,
    but builds its own injected blocks, so no block outlives the forward
    that attends it.

    A step's sides are asked for before its forwards run and handed over
    through its StepContext to each controlled layer. An error in the
    control work outranks one of the forwards, as when the ControlNet ran
    before the U-Net."""
    step_index = {t: idx for idx, t in enumerate(reversed(ts))}

    def eps_fn(x: Tensor, t: int) -> Tensor:
        step_role = (role if inj is not None
                     and inj.active_at(step_index[t], len(ts)) else "plain")
        sides = None if control is None else control(x, t)
        step = N.StepContext(t, x, sides)

        def forward(text: str | None) -> Tensor:
            return N.unet_forward(model, x, t, text, role=step_role, cache=cache,
                                  masks=masks, inj=inj, step=step)

        try:
            if guidance == 0.0:
                return forward(None)
            eps_c = forward(prompt)
            if guidance == 1.0:
                return eps_c
            return D.cfg_combine(forward(None), eps_c, guidance)
        except Exception:
            if sides is not None:
                sides()  # raises the control work's error, if it had one
            raise

    return eps_fn


def _computed(model: N.ModelWeights,
              pose: dict[int, Tensor] | None) -> Control | None:
    """The one place a pose pyramid (from N.pose_features) becomes a
    Control: it builds each step's sides from ``pose`` at once, here. None
    without a pose."""
    if pose is None:
        return None

    def control(x: Tensor, t: int) -> Callable[[], dict[str, AD.ControlSide]]:
        sides = N.control_sides(model, x, t, pose)
        return lambda: sides
    return control


def invert(model: N.ModelWeights, z0: Tensor, steps: int,
           schedule: D.NoiseSchedule, eps_fn: D.EpsFn | None = None) -> D.Trajectory:
    """DDIM inversion at guidance scale 1 (no extrapolation; the null-text
    stage is deliberately absent). The predictor is ``eps_fn`` if given
    (``reconstruct``'s and ``edit``'s conditioned one, or an oracle in
    tests), else the model on the unconditional embedding without control.
    Returns the walk's timesteps and its end latent z_T, nothing between.
    """
    ts = D.subsequence(schedule.timesteps, steps)
    return D.ddim_invert(eps_fn or _predictor(model, ts, None), z0, ts, schedule)


def frame_metrics(a: Tensor, b: Tensor) -> list[dict]:
    """Per-frame RMSE and PSNR (reference range from the first argument).

    Identical frames report PSNR as +inf.
    """
    if a.shape != b.shape:
        raise T.ShapeError(f"frame metric shapes differ: {a.shape} vs {b.shape}")
    out = []
    for f in range(a.shape[0]):
        ref = a.data[f].astype(np.float64)
        diff = ref - b.data[f].astype(np.float64)
        mse = float((diff * diff).mean())
        rmse = math.sqrt(mse)
        data_range = float(ref.max() - ref.min())
        if mse == 0.0:
            psnr = math.inf
        elif data_range == 0.0:
            psnr = -math.inf if mse > 0 else math.inf
        else:
            psnr = 10.0 * math.log10(data_range * data_range / mse)
        out.append({"rmse": rmse, "psnr": psnr})
    return out


@dataclass
class ReconstructResult:
    """The reconstructed latent, the timesteps the inversion passed through
    (neither walk keeps a latent between its ends) and the latent's
    ``frame_metrics`` against the encoded source."""
    latent: Tensor
    inversion_timesteps: list[int]
    metrics_vs_source: list[dict]


def reconstruct(model: N.ModelWeights, video: Tensor, skeletons: np.ndarray,
                prompt: str, steps: int, schedule: D.NoiseSchedule,
                control_on_recon: bool = True,
                eps_fn: D.EpsFn | None = None) -> ReconstructResult:
    """Invert the source then denoise it back under the source skeleton
    condition at guidance 1, with no injection. Both walks run one
    predictor (``eps_fn`` if given), so the reconstruction undoes the
    inversion's conditioning exactly. Each walk keeps only its end latent,
    so memory stays flat in ``steps``; the encoded source is kept to score
    the reconstruction against (``frame_metrics``)."""
    z0 = N.encode_video(video, model.cfg)
    ts = D.subsequence(schedule.timesteps, steps)
    if eps_fn is None:
        pose = N.pose_features(model, skeletons) if control_on_recon else None
        eps_fn = _predictor(model, ts, prompt, control=_computed(model, pose))
    inv = invert(model, z0, steps, schedule, eps_fn=eps_fn)
    traj = D.ddim_sample(eps_fn, inv.final, ts, schedule, phase="reconstruct")
    return ReconstructResult(traj.final, inv.timesteps, frame_metrics(z0, traj.final))


@dataclass
class EditResult:
    """The edited and reconstructed latents, the aligned reference
    skeletons and their reports, the timesteps the inversion passed
    through (the walk keeps no latent but z_T) and the cache."""
    edited: Tensor
    reconstructed: Tensor
    aligned_skeletons: np.ndarray
    align_reports: list[dict]
    inversion_timesteps: list[int]
    cache: I.ReconCache


def align_skeletons(source_skeletons: np.ndarray, source_masks: np.ndarray,
                    ref_skeletons: np.ndarray, ref_masks: np.ndarray,
                    first_frame_only: bool) -> tuple[np.ndarray, list[dict]]:
    """Per-frame skeleton alignment, or with ``first_frame_only`` the frame-0
    source and reference masks reused for every frame; alignment errors
    carry the frame index."""
    aligned = []
    reports = []
    for i in range(len(ref_skeletons)):
        j = 0 if first_frame_only else i
        try:
            res = SK.align(source_skeletons[j], source_masks[j],
                           ref_skeletons[i], ref_masks[j])
        except (SK.EmptyMaskError, SK.RasterError) as exc:
            raise type(exc)(f"frame {i}: {exc}") from exc
        aligned.append(res.skeleton)
        reports.append(res.report)
    return np.stack(aligned), reports


@functools.cache
def openblas_function(verb: str):
    """numpy's OpenBLAS ``openblas_<verb>_num_threads`` ("get" or "set"),
    under whichever prefix and suffix its build exports it, or None where
    numpy links no OpenBLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
        fn = getattr(lib, f"{prefix}openblas_{verb}_num_threads{suffix}", None)
        if fn is not None:
            fn.argtypes = (ctypes.c_int,) if verb == "set" else ()
            fn.restype = None if verb == "set" else ctypes.c_int
            return fn
    return None


def _fork_worker() -> bool:
    """Whether ``edit`` runs its step worker in a forked child: fork exists,
    this process may use 2 CPUs or more, OpenBLAS runs one thread and no
    other Python thread runs. A fork copies no thread, so it must not leave
    a lock some other thread holds; and two BLAS threads in each of two
    processes contend for the cores."""
    get_threads = openblas_function("get")
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and get_threads is not None and get_threads() == 1
            and threading.active_count() == 1)


def _recon_walk(model: N.ModelWeights, x: Tensor, ts: list[int],
                schedule: D.NoiseSchedule, prompt: str,
                pose: dict[int, Tensor] | None, inj: I.InjectionSettings
                ) -> Iterator[list[I.Write] | Tensor | Exception]:
    """``edit``'s reconstruction branch as messages: for each sampler step
    the cache writes of its forward, which the editing forwards of that step
    read, then its final latent. An error ends it as its last message."""
    log = I.CacheLog()
    eps_fn = _predictor(model, ts, prompt, role="recon", cache=log, inj=inj,
                        control=_computed(model, pose))
    try:
        for _, x in D.ddim_steps(eps_fn, x, ts, schedule, phase="reconstruct"):
            yield log.take()
        yield x
    except Exception as exc:  # sent on, for edit to raise
        yield exc


def _control_reply(model: N.ModelWeights, x: Tensor, t: int,
                   pose: Callable[[], dict[int, Tensor]]):
    """A step's control sides from the pyramid ``pose()`` returns, built
    with numpy overflow and invalid operations raised as under ``D.guard``,
    or the error that raised; the asking step's guard names it."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return N.control_sides(model, x, t, pose())
    except Exception as exc:  # sent on, for the step that asked to raise
        return exc


def _serve(requests: Iterator[tuple[str, Tensor, int | None]],
           model: N.ModelWeights, skeletons: dict[str, np.ndarray | None],
           walk: Callable[[Tensor, dict[int, Tensor] | None], Iterator]
           ) -> Iterator[object]:
    """``edit``'s step worker: its messages, in the order edit reads them.

    A control request (the name of a skeleton stack in ``skeletons``, a
    step's latent and t) gets that step's control sides, or the error
    building them raised. The worker encodes each stack's pose pyramid
    (``N.pose_features``) on its first request, as part of that reply, and
    keeps it. A ("recon", z_T, None) request starts ``walk`` from z_T and
    the "source" pyramid (None without a source stack), and from then on
    the walk runs one step ahead: its first message at once, and each later
    one after the reply to the next control request. So while the editing
    walk runs, the messages read W_0, S_0, W_1, S_1, ..., the final latent
    (W a step's cache writes, S its control sides)."""
    pose = functools.cache(lambda kind: None if skeletons[kind] is None
                           else N.pose_features(model, skeletons[kind]))
    recon = iter(())
    for kind, x, t in requests:
        if kind == "recon":
            recon = walk(x, pose("source"))
        else:
            yield _control_reply(model, x, t, functools.partial(pose, kind))
        yield from itertools.islice(recon, 1)


def _received(message):
    if isinstance(message, BaseException):
        raise message
    return message


def _asking(send: Callable[[object], None], recv: Callable[[], object],
            kind: str) -> Control:
    """A Control served by the step worker: it sends the worker each step's
    latent and t with the name ``kind`` of its pose. The function it returns
    reads the reply on its first call, and on every call returns it or
    raises the error it carries."""
    def control(x: Tensor, t: int) -> Callable[[], dict[str, AD.ControlSide]]:
        send((kind, x, t))
        reply = functools.cache(recv)  # read once, however often asked
        return lambda: _received(reply())
    return control


_STOPPED = "the step worker stopped before its last message"
_PIPE_BYTES = 1 << 20


def _load(pipe):
    """The next object pickled into ``pipe``; its end, or a message cut
    short, means the writer stopped."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(_STOPPED) from None


def _send(fd: int, message) -> None:
    """Pickle ``message`` into the pipe ``fd``, for ``_load`` at its other end."""
    data = memoryview(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    try:
        while data:
            data = data[os.write(fd, data):]
    except BrokenPipeError:
        raise RuntimeError(_STOPPED) from None


def _serve_forked(serve: Callable[[Iterator], Iterator], requests_fd: int,
                  messages_fd: int, parent_fds: tuple[int, ...]) -> NoReturn:
    """In the forked child: run ``serve`` on the requests of one pipe and
    pickle each message into the other until either pipe is closed, then
    leave without flushing the stdio buffers or running the exit hooks it
    inherited. The parent kills and reaps the child, so its exit status is
    never read."""
    try:
        for fd in parent_fds:
            os.close(fd)
        with open(requests_fd, "rb") as requests:
            for message in serve(iter(functools.partial(_load, requests), None)):
                _send(messages_fd, message)
    finally:
        os._exit(0)


@contextlib.contextmanager
def _started(serve: Callable[[Iterator], Iterator]
             ) -> Iterator[tuple[Callable[[object], None], Callable[[], object]]]:
    """``serve`` as ``send``, which hands it a request, and ``recv``, which
    returns its next message. Where ``_fork_worker()`` holds, a forked child
    runs it and sends its messages ahead of their reads; both pipes are
    enlarged to 1 MiB where the platform allows it, so that a step's
    messages fit and neither process wakes the other per 64 KiB. Leaving
    the ``with`` block kills and reaps the child, however the block ends.
    Elsewhere, or where the fork fails, each ``recv`` advances ``serve`` in
    this process, on the requests sent so far."""
    if _fork_worker():
        # here, so importing vidmotion loads no module numpy does not
        import fcntl
        import signal
        requests_r, requests_w = os.pipe()
        messages_r, messages_w = os.pipe()
        if hasattr(fcntl, "F_SETPIPE_SZ"):
            for fd in (requests_w, messages_w):
                with contextlib.suppress(OSError):  # beyond the host's limit
                    fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        try:
            pid = os.fork()
        except OSError:  # out of processes or memory: no pipe is left open
            for fd in (requests_r, requests_w, messages_r, messages_w):
                os.close(fd)
        else:
            if pid == 0:
                _serve_forked(serve, requests_r, messages_w, (requests_w, messages_r))
            try:
                os.close(requests_r)
                os.close(messages_w)
                with open(messages_r, "rb") as messages:
                    yield functools.partial(_send, requests_w), lambda: _load(messages)
            finally:
                os.close(requests_w)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            return
    requests = collections.deque()
    messages = serve(iter(requests.popleft, None))
    yield requests.append, lambda: next(messages)


def edit(job: EditJob, model: N.ModelWeights,
         schedule: D.NoiseSchedule) -> EditResult:
    """Full two-branch motion edit.

    Encode the source video, align the reference skeletons, invert the
    source, then denoise it with the reconstruction branch and the editing
    branch. Before each editing step the ReconCache takes the keys/values
    the reconstruction branch wrote at that step, and the editing forwards
    (target prompt and guidance) read them at gated layers. The step worker
    (``_serve``) encodes the source and aligned reference poses, builds the
    control sides of each inversion and editing step and runs the
    reconstruction branch; this process holds no pose pyramid when the
    worker is forked, and keeps only z_T and the timesteps of the
    inversion. A non-finite value names the walk it arose in, "reconstruct"
    or "edit"; the reconstruction walk is named when both fail at one step.
    """
    cfg = model.cfg
    job.validate(cfg)
    z0 = N.encode_video(job.video, cfg)
    aligned, reports = align_skeletons(job.source_skeletons, job.source_masks,
                                       job.ref_skeletons, job.ref_masks,
                                       job.align_first_frame_only)
    ts = D.subsequence(schedule.timesteps, job.steps)

    serve = functools.partial(
        _serve, model=model,
        skeletons={"source": job.source_skeletons if job.control_on_recon else None,
                   "reference": aligned},
        walk=lambda z_t, pose: _recon_walk(model, z_t, ts, schedule,
                                           job.prompt_source, pose, job.injection))
    cache = I.ReconCache()
    masks = I.LatentMask.from_rasters(np.asarray(job.source_masks),
                                      cfg.level_shapes())
    with _started(serve) as (send, recv):
        inverting = _predictor(model, ts, job.prompt_source,
                               control=(_asking(send, recv, "source")
                                        if job.control_on_recon else None))
        inv = invert(model, z0, job.steps, schedule, eps_fn=inverting)
        del z0
        send(("recon", inv.final, None))
        editing = _predictor(model, ts, job.prompt_target, job.guidance, "edit",
                             cache, masks, job.injection,
                             control=_asking(send, recv, "reference"))
        steps = D.ddim_steps(editing, inv.final, ts, schedule, phase="edit")
        for _ in ts:
            cache.replay(_received(recv()))
            _, edited = next(steps)
        recon = _received(recv())
    return EditResult(edited, recon, aligned, reports, inv.timesteps, cache)
