"""End-to-end orchestration: one-shot training on the source video, DDIM
inversion, and two-branch editing with attention injection.

Both branches denoise the inverted source in lockstep through one DDIM loop:
at each step the reconstruction branch (source skeleton condition) writes its
keys/values into the ReconCache, and the editing branch (aligned target
skeleton) reads them as injected keys/values at gated layers, so the cache
hands off one step at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    prompt_source: str = ""
    prompt_target: str = ""
    steps: int = 50
    guidance: float = 7.5
    injection: I.InjectionSettings = field(default_factory=I.InjectionSettings)
    align_first_frame_only: bool = False
    control_on_recon: bool = True

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
                   skeletons: np.ndarray, prompt: str,
                   steps: int = 300, lr: float = 3e-5,
                   schedule: D.NoiseSchedule | None = None,
                   rng: T.Rng | None = None) -> TrainResult:
    """Fine-tune only the adapter and temporal attention to re-predict the
    noise on the source video (uniform timesteps, Adam, constant lr)."""
    schedule = schedule or D.make_schedule(model.cfg.schedule_steps)
    rng = rng or T.Rng(0)
    z0 = N.encode_video(video, model.cfg)
    names = sorted(N.trainable_names(model))
    params = {n: model.params[n] for n in names}
    state = T.AdamState(lr=lr)
    losses: list[float] = []
    pose = N.pose_features(model, skeletons)
    cond = N.Conditioning(model)
    for step in range(steps):
        t = rng.integer(0, schedule.timesteps)
        eps = rng.normal(z0.shape)
        value, grads = train_step(model, params, pose,
                                  D.q_sample(z0, t, eps, schedule), t, eps, prompt,
                                  cond)
        if not np.isfinite(value):
            raise RuntimeError(f"non-finite training loss {value} at step {step} "
                               f"(timestep {t})")
        params = T.adam_step(params, grads, state)
        del grads  # not held while the next step builds its graph
        losses.append(value)
    return TrainResult(model.replace(params), losses)


def train_step(model: N.ModelWeights, params: dict[str, Tensor],
               pose: dict[int, Tensor], x_t: Tensor, t: int, eps: Tensor,
               prompt: str, cond: N.Conditioning | None = None
               ) -> tuple[float, dict[str, Tensor | None]]:
    """The loss of one step and the gradient of each of ``params`` (none if
    the loss is not finite). The step's graph lives only in this frame, so it
    is freed on return, before the next step builds its own. ``cond``, the
    run's Conditioning, must read none of ``params``."""
    if cond is not None and not cond.names.isdisjoint(params):
        raise T.TapeError(f"conditioning reads trained weights "
                          f"{sorted(cond.names.intersection(params))}")
    tape = T.Tape()
    watched = {n: tape.watch(p) for n, p in params.items()}
    m = model.replace(watched)
    feats = N.controlnet_forward(m, x_t, t, pose, cond)
    loss = D.training_loss(N.unet_forward(m, x_t, t, prompt, control_feats=feats,
                                          cond=cond), eps)
    value = loss.item()
    if not np.isfinite(value):
        return value, {}
    T.backward(tape, loss)
    return value, {n: tape.grad(w) for n, w in watched.items()}


def _predictor(model: N.ModelWeights, ts: list[int], prompt: str | None,
               pose: dict[int, Tensor] | None, guidance: float = 1.0,
               role: str = "plain", cache: I.ReconCache | None = None,
               masks: I.LatentMask | None = None,
               inj: I.InjectionSettings | None = None,
               cond: N.Conditioning | None = None) -> D.EpsFn:
    """One branch's eps function over the sampler steps ``ts``: ControlNet
    features from ``pose`` if given, classifier-free guidance (one forward at
    1), and ``role`` inside the injection window of ``inj``, "plain" before
    it and at every step without ``inj``. ``cond`` is the run's Conditioning
    (built here if not given); each step's forwards share one StepContext, so
    under guidance the uncond forward reuses the cond forward's first-block
    opening."""
    step_index = {t: idx for idx, t in enumerate(reversed(ts))}
    cond = N.Conditioning(model) if cond is None else cond

    def eps_fn(x: Tensor, t: int) -> Tensor:
        step_role = (role if inj is not None
                     and inj.active_at(step_index[t], len(ts)) else "plain")
        feats = (N.controlnet_forward(model, x, t, pose, cond)
                 if pose is not None else None)
        step = N.StepContext(t, x)

        def forward(text: str | None) -> Tensor:
            return N.unet_forward(model, x, t, text, control_feats=feats,
                                  role=step_role, cache=cache, masks=masks,
                                  inj=inj, cond=cond, step=step)

        eps_c = forward(prompt)
        if guidance == 1.0:
            return eps_c
        return D.cfg_combine(forward(None), eps_c, guidance)

    return eps_fn


def invert(model: N.ModelWeights, z0: Tensor, steps: int,
           schedule: D.NoiseSchedule | None = None,
           eps_fn: D.EpsFn | None = None,
           pose: dict[int, Tensor] | None = None,
           prompt: str | None = None,
           cond: N.Conditioning | None = None) -> D.Trajectory:
    """DDIM inversion at guidance scale 1 (no extrapolation; the null-text
    stage is deliberately absent and ``eps_fn`` overrides the predictor for
    oracle tests).

    By default the predictor runs on the unconditional embedding; passing the
    branches' ``prompt`` and ``pose`` (from N.pose_features) makes the
    inversion share their conditioning, so reconstruction undoes it without a
    predictor mismatch; ``cond`` shares the run's Conditioning with them.
    """
    schedule = schedule or D.make_schedule(model.cfg.schedule_steps)
    ts = D.subsequence(schedule.timesteps, steps)
    return D.ddim_invert(eps_fn or _predictor(model, ts, prompt, pose, cond=cond),
                         z0, ts, schedule)


@dataclass
class ReconstructResult:
    latent: Tensor
    inversion: D.Trajectory


def reconstruct(model: N.ModelWeights, video: Tensor, skeletons: np.ndarray,
                prompt: str, steps: int = 50,
                schedule: D.NoiseSchedule | None = None,
                control_on_recon: bool = True,
                eps_fn: D.EpsFn | None = None) -> ReconstructResult:
    """Invert the source then denoise it back under the source skeleton
    condition at guidance 1, with no injection."""
    schedule = schedule or D.make_schedule(model.cfg.schedule_steps)
    z0 = N.encode_video(video, model.cfg)
    pose = N.pose_features(model, skeletons) if control_on_recon else None
    cond = N.Conditioning(model)
    inv = invert(model, z0, steps, schedule, eps_fn=eps_fn, pose=pose,
                 prompt=prompt, cond=cond)
    ts = D.subsequence(schedule.timesteps, steps)
    traj = D.ddim_sample(eps_fn or _predictor(model, ts, prompt, pose, cond=cond),
                         inv.final, ts, schedule, phase="reconstruct")
    return ReconstructResult(traj.final, inv)


@dataclass
class EditResult:
    edited: Tensor
    reconstructed: Tensor
    aligned_skeletons: np.ndarray
    align_reports: list[dict]
    inversion: D.Trajectory
    cache: I.ReconCache


def align_skeletons(source_skeletons: np.ndarray, source_masks: np.ndarray,
                    ref_skeletons: np.ndarray, ref_masks: np.ndarray,
                    first_frame_only: bool = False) -> tuple[np.ndarray, list[dict]]:
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


def edit(job: EditJob, model: N.ModelWeights,
         schedule: D.NoiseSchedule | None = None) -> EditResult:
    """Full two-branch motion edit.

    Encode the source video, align the reference skeletons, invert the
    source, then denoise the reconstruction branch (writing the cache) and
    the editing branch (reading injected keys/values at gated layers under
    the target prompt and guidance) in lockstep, stacked along the frame
    axis. A non-finite value names the half it arose in.
    """
    cfg = model.cfg
    job.validate(cfg)
    z0 = N.encode_video(job.video, cfg)
    schedule = schedule or D.make_schedule(cfg.schedule_steps)
    aligned, reports = align_skeletons(job.source_skeletons, job.source_masks,
                                       job.ref_skeletons, job.ref_masks,
                                       job.align_first_frame_only)

    cond = N.Conditioning(model)
    source_pose = (N.pose_features(model, job.source_skeletons)
                   if job.control_on_recon else None)
    inv = invert(model, z0, job.steps, schedule, pose=source_pose,
                 prompt=job.prompt_source, cond=cond)
    ts = D.subsequence(schedule.timesteps, job.steps)

    cache = I.ReconCache()
    masks = I.LatentMask.from_rasters(np.asarray(job.source_masks),
                                      cfg.level_shapes())
    # recon first, so step t is cached before the edit forwards read it
    halves = {
        "reconstruction": _predictor(model, ts, job.prompt_source, source_pose,
                                     role="recon", cache=cache,
                                     inj=job.injection, cond=cond),
        "editing": _predictor(model, ts, job.prompt_target,
                              N.pose_features(model, aligned), job.guidance,
                              "edit", cache, masks, job.injection, cond)}
    f = cfg.frames

    def lockstep(x: Tensor, t: int) -> Tensor:
        # DDIM updates are elementwise, so each half equals a separate run
        eps = []
        for i, (half, eps_fn) in enumerate(halves.items()):
            try:
                eps.append(eps_fn(T.slice_axis(x, 0, i * f, (i + 1) * f), t))
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} in the {half} half") from None
        return T.concat(eps, axis=0)

    both = D.ddim_sample(lockstep, T.concat([inv.final] * 2, axis=0), ts,
                         schedule, phase="edit", halves=tuple(halves)).final
    recon, edited = (T.slice_axis(both, 0, i * f, (i + 1) * f) for i in (0, 1))
    return EditResult(edited, recon, aligned, reports, inv, cache)
