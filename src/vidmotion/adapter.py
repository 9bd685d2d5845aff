"""Content-aware motion adapter.

Consumes per-level control features (queries) and U-Net latents (keys/values)
and returns an adapted residual through two parallel paths: a global path
(pose-query cross-attention then temporal attention) and a local path (two
temporal convolutions). The shared output projection is zero-initialized, so
an untrained adapter passes its control features through unchanged. What
reads only the control features (the pose queries and the local path) is its
``ControlSide``, which forwards that share the features can share.

``adapter_layout`` declares each weight's name, shape and init once;
``init_adapter`` draws it, the network composes it into its own layout, and
``AdapterWeights`` reads a level's weights back out of the flat name -> Tensor
map by prefix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import attention as A
from . import tensor as T
from .gradcheck import numeric_gradient, relative_error
from .tensor import Tensor


def layer_norm_layout(prefix: str, d: int) -> T.Layout:
    """Layer-norm gain and bias, an identity at construction."""
    return [(f"{prefix}.gamma", (d,), T.ones), (f"{prefix}.beta", (d,), T.zeros)]


def adapter_layout(prefix: str, d: int) -> T.Layout:
    """One level's adapter weights of width ``d``, named ``{prefix}.*``."""
    conv_std = 1.0 / math.sqrt(d * 3)
    return [*layer_norm_layout(f"{prefix}.ln_cross", d),
            *layer_norm_layout(f"{prefix}.ln_temporal", d),
            *A.projection_layout(f"{prefix}.cross", d),
            *A.projection_layout(f"{prefix}.temporal", d),
            # temporal kernels of width 3, channel-mixing
            (f"{prefix}.conv1", (d, d, 3), conv_std),
            (f"{prefix}.conv2", (d, d, 3), conv_std),
            (f"{prefix}.out_proj", (d, d), T.zeros)]


@dataclass(frozen=True)
class AdapterWeights:
    """One level's adapter weights: the ``{prefix}.*`` entries, laid out by
    ``adapter_layout``, of a flat name -> Tensor map."""

    named: dict[str, Tensor]
    prefix: str = "adapter"

    def __getitem__(self, name: str) -> Tensor:
        return self.named[f"{self.prefix}.{name}"]

    @property
    def cross(self) -> A.ProjectionSet:
        return A.ProjectionSet.from_named(self.named, f"{self.prefix}.cross")

    @property
    def temporal(self) -> A.ProjectionSet:
        return A.ProjectionSet.from_named(self.named, f"{self.prefix}.temporal")

    @property
    def out_proj(self) -> Tensor:
        return self["out_proj"]


def init_adapter(rng: T.Rng, d: int) -> AdapterWeights:
    return AdapterWeights(rng.draw(adapter_layout("adapter", d)))


@dataclass(frozen=True)
class ControlSide:
    """What one level's adapter computes from its control features ``m``
    alone: the global path's pose queries and the local path's output. Every
    forward that reads the same features (cond and uncond under guidance)
    can share it."""

    m: Tensor
    q: Tensor
    local: Tensor


def control_side(m: Tensor, w: AdapterWeights) -> ControlSide:
    if m.data.ndim != 3:
        raise T.ShapeError(f"expected (frames, tokens, width), got {m.shape}")
    q_in = T.layer_norm(m, w["ln_cross.gamma"], w["ln_cross.beta"])
    return ControlSide(m, T.matmul(q_in, w.cross.w_q), adapter_local_path(m, w))


def adapter_global_path(c: ControlSide, z: Tensor, w: AdapterWeights) -> Tensor:
    """Cross-attention (pose queries over latents) followed by temporal
    attention, each preceded by layer norm of the adapter stream."""
    g1 = T.matmul(A.attend(c.q, *A.project_kv(z, w.cross)), w.cross.w_out)
    t_in = T.transpose(T.layer_norm(g1, w["ln_temporal.gamma"],
                                    w["ln_temporal.beta"]), (1, 0, 2))
    g2 = A.temporal_attention(t_in, w.temporal)
    return T.transpose(g2, (1, 0, 2))


def adapter_local_path(m: Tensor, w: AdapterWeights) -> Tensor:
    """Two channel-mixing temporal convolutions along the frame axis."""
    x = T.transpose(m, (0, 2, 1))  # (F, d, N): channels on axis 1
    x = T.conv_temporal(x, w["conv1"])
    x = T.conv_temporal(x, w["conv2"])
    return T.transpose(x, (0, 2, 1))


def adapter_apply(c: ControlSide, z: Tensor, w: AdapterWeights) -> Tensor:
    """The adapted residual of latents ``z`` from a prepared control side."""
    if c.m.shape != z.shape:
        raise T.ShapeError(f"control features {c.m.shape} and latents {z.shape} "
                           f"must share shape")
    fused = T.add(adapter_global_path(c, z, w), c.local)
    return T.add(T.matmul(fused, w.out_proj), c.m)


def adapter_forward(m: Tensor, z: Tensor, w: AdapterWeights) -> Tensor:
    """out_proj(global(m, z) + local(m)) + m over (frames, tokens, width)."""
    return adapter_apply(control_side(m, w), z, w)


def adapter_grad_check(w: AdapterWeights, rng: T.Rng | None = None,
                       frames: int = 3, tokens: int = 4,
                       h: float = 1e-3, tol: float = 1e-3,
                       grad_transform: Callable[[str, np.ndarray], np.ndarray] | None = None,
                       ) -> dict[str, dict]:
    """Compare each parameter's tape gradient against central differences.

    Returns {param name: {"rel_err": float, "ok": bool}} plus an "__all__"
    summary entry. ``grad_transform`` perturbs the analytic gradient before
    comparison (negative-control hook for the test harness).
    """
    rng = rng or T.Rng(0)
    d = w.out_proj.shape[0]
    m0 = rng.normal((frames, tokens, d), 0.7)
    z0 = rng.normal((frames, tokens, d), 0.7)
    probe = rng.normal((frames, tokens, d), 1.0)
    named = w.named
    report: dict[str, dict] = {}
    all_ok = True
    for name in sorted(n for n in named if n.startswith(f"{w.prefix}.")):
        tape = T.Tape()
        watched = {name: tape.watch(named[name])}
        w_t = AdapterWeights({**named, **watched}, w.prefix)
        loss = T.mean(T.mul(adapter_forward(m0, z0, w_t), probe))
        T.backward(tape, loss)
        analytic = tape.grad(watched[name]).data
        if grad_transform is not None:
            analytic = grad_transform(name, analytic)

        def forward(arr: np.ndarray, _name=name) -> float:
            w_n = AdapterWeights({**named, _name: Tensor(arr)}, w.prefix)
            return T.mean(T.mul(adapter_forward(m0, z0, w_n), probe)).item()

        numeric = numeric_gradient(forward, named[name].data.copy(), h=h)
        err = relative_error(analytic, numeric)
        ok = err <= tol
        all_ok &= ok
        report[name] = {"rel_err": err, "ok": ok}
    report["__all__"] = {"ok": all_ok}
    return report
