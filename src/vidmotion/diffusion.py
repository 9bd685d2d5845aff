"""Noise schedules, the forward marginal, DDIM sampling and its inverse.

The sampler is deterministic (zero posterior noise); inversion is the exact
per-step rearrangement of the sampling update, so the two are mutual inverses
whenever the noise prediction is held fixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor


class ScheduleError(ValueError):
    """Invalid schedule parameters or timestep ordering."""


class NonFiniteError(RuntimeError):
    """A sampler step overflowed or produced a non-finite latent."""


CLEAN_STEP = -1  # timestep sentinel for the fully-denoised endpoint (alpha_bar = 1)


@dataclass
class NoiseSchedule:
    """Cumulative signal coefficients for each of T diffusion steps."""

    timesteps: int
    beta_min: float
    beta_max: float
    alpha_bar: np.ndarray  # float64, strictly decreasing, in (0, 1]

    def alpha_bar_at(self, t: int) -> float:
        if t == CLEAN_STEP:
            return 1.0
        if not 0 <= t < self.timesteps:
            raise ScheduleError(f"timestep {t} out of range [0, {self.timesteps})")
        return float(self.alpha_bar[t])


def make_schedule(timesteps: int = 1000, beta_min: float = 1e-4,
                  beta_max: float = 2e-2) -> NoiseSchedule:
    """Linear-beta schedule; alpha_bar is the running product of (1 - beta)."""
    if timesteps < 2:
        raise ScheduleError(f"need at least 2 timesteps, got {timesteps}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ScheduleError(
            f"betas must satisfy 0 < beta_min <= beta_max < 1, "
            f"got ({beta_min}, {beta_max})")
    betas = np.linspace(beta_min, beta_max, timesteps, dtype=np.float64)
    alpha_bar = np.cumprod(1.0 - betas)
    return NoiseSchedule(timesteps, beta_min, beta_max, alpha_bar)


def subsequence(timesteps: int, count: int) -> list[int]:
    """Uniform-stride increasing sub-sequence ending at the last timestep."""
    if not 1 <= count <= timesteps:
        raise ScheduleError(f"cannot take {count} steps from {timesteps}")
    return [math.floor((k + 1) * timesteps / count) - 1 for k in range(count)]


@dataclass
class Trajectory:
    """The end of a sampling or inversion walk: the timesteps it passed
    through, its start included, and the latent it reached. The latents in
    between are not kept; ``ddim_steps`` yields them one at a time."""

    timesteps: list[int]
    final: Tensor


def q_sample(x0: Tensor, t: int, eps: Tensor, s: NoiseSchedule) -> Tensor:
    """Forward marginal: sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps."""
    if eps.shape != x0.shape:
        raise T.ShapeError(f"noise shape {eps.shape} != sample shape {x0.shape}")
    ab = s.alpha_bar_at(t)
    return T.add(T.scale(x0, math.sqrt(ab)), T.scale(eps, math.sqrt(1.0 - ab)))


def training_loss(eps_pred: Tensor, eps_true: Tensor) -> Tensor:
    """Mean squared error between predicted and drawn noise."""
    if eps_pred.shape != eps_true.shape:
        raise T.ShapeError(f"prediction shape {eps_pred.shape} != "
                           f"target shape {eps_true.shape}")
    diff = T.sub(eps_pred, eps_true)
    return T.mean(T.mul(diff, diff))


def _ddim_move(x: Tensor, eps_pred: Tensor, ab_from: float, ab_to: float) -> Tensor:
    pred_x0 = T.scale(T.sub(x, T.scale(eps_pred, math.sqrt(1.0 - ab_from))),
                      1.0 / math.sqrt(ab_from))
    return T.add(T.scale(pred_x0, math.sqrt(ab_to)),
                 T.scale(eps_pred, math.sqrt(1.0 - ab_to)))


def ddim_step(x_t: Tensor, eps_pred: Tensor, t: int, t_prev: int,
              s: NoiseSchedule) -> Tensor:
    """One deterministic denoising step from t to the earlier t_prev."""
    if t_prev >= t:
        raise ScheduleError(f"ddim_step needs t > t_prev, got {t} -> {t_prev}")
    if eps_pred.shape != x_t.shape:
        raise T.ShapeError(f"noise shape {eps_pred.shape} != sample shape {x_t.shape}")
    return _ddim_move(x_t, eps_pred, s.alpha_bar_at(t), s.alpha_bar_at(t_prev))


def ddim_invert_step(x_t: Tensor, eps_pred: Tensor, t: int, t_next: int,
                     s: NoiseSchedule) -> Tensor:
    """One inversion step from t to the later t_next; exact inverse of ddim_step."""
    if t_next <= t:
        raise ScheduleError(f"ddim_invert_step needs t_next > t, got {t} -> {t_next}")
    if eps_pred.shape != x_t.shape:
        raise T.ShapeError(f"noise shape {eps_pred.shape} != sample shape {x_t.shape}")
    return _ddim_move(x_t, eps_pred, s.alpha_bar_at(t), s.alpha_bar_at(t_next))


def cfg_combine(eps_uncond: Tensor, eps_cond: Tensor, scale: float) -> Tensor:
    """Guided prediction eps_u + scale * (eps_c - eps_u); exact at 0 and 1."""
    if eps_uncond.shape != eps_cond.shape:
        raise T.ShapeError(f"guidance shapes differ: {eps_uncond.shape} "
                           f"vs {eps_cond.shape}")
    if scale < 0:
        raise ValueError(f"guidance scale must be >= 0, got {scale}")
    if scale == 0.0:
        return eps_uncond
    if scale == 1.0:
        return eps_cond
    return T.add(eps_uncond, T.scale(T.sub(eps_cond, eps_uncond), scale))


EpsFn = Callable[[Tensor, int], Tensor]


def _finite_step(where: str, predict: Callable[[], Tensor],
                 move: Callable[[Tensor], Tensor]) -> Tensor:
    """Run one sampler step, the predictor and then the elementwise move,
    with numpy overflow and invalid operations raised. The first non-finite
    value raises NonFiniteError ``where``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            x = move(predict())
    except FloatingPointError as exc:
        raise NonFiniteError(f"{where}: {exc}") from None
    if not np.isfinite(x.data).all():
        raise NonFiniteError(f"{where}: the new latent is not finite")
    return x


def _walk(eps_fn: EpsFn, x: Tensor, path: list[int], s: NoiseSchedule,
          step: Callable[..., Tensor], phase: str) -> Iterator[tuple[int, Tensor]]:
    """Move x along ``path`` with ``step``, predicting noise at the later end
    of each move, and yield each (timestep, latent) it reaches after
    ``path[0]``; the step function rejects a move in the wrong direction."""
    for i, (a, b) in enumerate(zip(path, path[1:])):
        t = max(a, b)
        where = f"non-finite value in {phase} step {i + 1}/{len(path) - 1} (t={t})"
        x = _finite_step(where, lambda: eps_fn(x, t),
                         lambda eps: step(x, eps, a, b, s))
        yield b, x


def ddim_steps(eps_fn: EpsFn, x_start: Tensor, ts: Sequence[int],
               s: NoiseSchedule, phase: str = "sample"
               ) -> Iterator[tuple[int, Tensor]]:
    """``ddim_sample`` one step at a time: each (timestep, latent) after
    ``x_start`` is yielded as it is reached."""
    return _walk(eps_fn, x_start, [*reversed(ts), CLEAN_STEP], s, ddim_step, phase)


def _end(eps_fn: EpsFn, x: Tensor, path: list[int], s: NoiseSchedule,
         step: Callable[..., Tensor], phase: str) -> Trajectory:
    """Walk ``path`` as ``_walk`` does and keep only the latent it reaches."""
    for _, x in _walk(eps_fn, x, path, s, step, phase):
        pass
    return Trajectory(path, x)


def ddim_sample(eps_fn: EpsFn, x_start: Tensor, ts: Sequence[int],
                s: NoiseSchedule, phase: str = "sample") -> Trajectory:
    """Denoise along decreasing ts (ending at the clean endpoint)."""
    return _end(eps_fn, x_start, [*reversed(ts), CLEAN_STEP], s, ddim_step, phase)


def ddim_invert(eps_fn: EpsFn, x0: Tensor, ts: Sequence[int],
                s: NoiseSchedule) -> Trajectory:
    """Invert from clean data up along increasing ts.

    The predictor is evaluated at the current latent with the *target*
    timestep (the clean endpoint is never fed to the network).
    """
    return _end(eps_fn, x0, [CLEAN_STEP, *ts], s, ddim_invert_step, "invert")


def oracle_eps_fn(x0: Tensor, s: NoiseSchedule) -> EpsFn:
    """The exact noise predictor for a known clean sample.

    Inverts the forward marginal: eps = (x_t - sqrt(ab) x0) / sqrt(1 - ab).
    Under it every DDIM step maps marginals to marginals exactly.
    """

    def fn(x_t: Tensor, t: int) -> Tensor:
        ab = s.alpha_bar_at(t)
        if ab >= 1.0:
            return T.zeros(x_t.shape)
        return T.scale(T.sub(x_t, T.scale(x0, math.sqrt(ab))),
                       1.0 / math.sqrt(1.0 - ab))

    return fn
