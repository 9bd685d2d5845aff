"""Content-aware motion adapter.

Consumes per-level control features (queries) and U-Net latents (keys/values)
and returns an adapted residual through two parallel paths: a global path
(pose-query cross-attention then temporal attention) and a local path (two
temporal convolutions). The shared output projection is zero-initialized, so
an untrained adapter passes its control features through unchanged.
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


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}


def init_layer_norm(d: int) -> LayerNormParams:
    return LayerNormParams(T.ones((d,)), T.zeros((d,)))


@dataclass
class AdapterWeights:
    """Weights for one resolution level of width d."""

    ln_cross: LayerNormParams
    ln_temporal: LayerNormParams
    cross: A.ProjectionSet
    temporal: A.ProjectionSet
    conv1: Tensor  # (d, d, 3) temporal kernels, channel-mixing
    conv2: Tensor
    out_proj: Tensor  # (d, d), zero at construction

    @property
    def width(self) -> int:
        return self.out_proj.shape[0]

    def named(self, prefix: str = "adapter") -> dict[str, Tensor]:
        out = {}
        out.update(self.ln_cross.named(f"{prefix}.ln_cross"))
        out.update(self.ln_temporal.named(f"{prefix}.ln_temporal"))
        out.update(self.cross.named(f"{prefix}.cross"))
        out.update(self.temporal.named(f"{prefix}.temporal"))
        out[f"{prefix}.conv1"] = self.conv1
        out[f"{prefix}.conv2"] = self.conv2
        out[f"{prefix}.out_proj"] = self.out_proj
        return out

    @classmethod
    def from_named(cls, named: dict[str, Tensor],
                   prefix: str = "adapter") -> "AdapterWeights":
        """The weights that ``named(prefix)`` would list, read from ``named``."""
        def ln(sub):
            return LayerNormParams(named[f"{prefix}.{sub}.gamma"],
                                   named[f"{prefix}.{sub}.beta"])

        return cls(
            ln_cross=ln("ln_cross"), ln_temporal=ln("ln_temporal"),
            cross=A.ProjectionSet.from_named(named, f"{prefix}.cross"),
            temporal=A.ProjectionSet.from_named(named, f"{prefix}.temporal"),
            conv1=named[f"{prefix}.conv1"], conv2=named[f"{prefix}.conv2"],
            out_proj=named[f"{prefix}.out_proj"],
        )


def init_adapter(rng: T.Rng, d: int, kernel_width: int = 3) -> AdapterWeights:
    conv_std = 1.0 / math.sqrt(d * kernel_width)
    return AdapterWeights(
        ln_cross=init_layer_norm(d),
        ln_temporal=init_layer_norm(d),
        cross=A.init_projection_set(rng, d),
        temporal=A.init_projection_set(rng, d),
        conv1=rng.normal((d, d, kernel_width), conv_std),
        conv2=rng.normal((d, d, kernel_width), conv_std),
        out_proj=T.zeros((d, d)),
    )


def adapter_global_path(m: Tensor, z: Tensor, w: AdapterWeights) -> Tensor:
    """Cross-attention (pose queries over latents) followed by temporal
    attention, each preceded by layer norm of the adapter stream."""
    q_in = T.layer_norm(m, w.ln_cross.gamma, w.ln_cross.beta)
    g1 = A.content_cross_attention(q_in, z, w.cross)
    t_in = T.transpose(T.layer_norm(g1, w.ln_temporal.gamma, w.ln_temporal.beta),
                       (1, 0, 2))
    g2 = A.temporal_attention(t_in, w.temporal)
    return T.transpose(g2, (1, 0, 2))


def adapter_local_path(m: Tensor, w: AdapterWeights) -> Tensor:
    """Two channel-mixing temporal convolutions along the frame axis."""
    x = T.transpose(m, (0, 2, 1))  # (F, d, N): channels on axis 1
    x = T.conv_temporal(x, w.conv1)
    x = T.conv_temporal(x, w.conv2)
    return T.transpose(x, (0, 2, 1))


def adapter_forward(m: Tensor, z: Tensor, w: AdapterWeights) -> Tensor:
    """out_proj(global(m, z) + local(m)) + m over (frames, tokens, width)."""
    if m.shape != z.shape:
        raise T.ShapeError(f"control features {m.shape} and latents {z.shape} "
                           f"must share shape")
    if m.data.ndim != 3:
        raise T.ShapeError(f"expected (frames, tokens, width), got {m.shape}")
    fused = T.add(adapter_global_path(m, z, w), adapter_local_path(m, w))
    return T.add(T.matmul(fused, w.out_proj), m)


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
    d = w.width
    m0 = rng.normal((frames, tokens, d), 0.7)
    z0 = rng.normal((frames, tokens, d), 0.7)
    probe = rng.normal((frames, tokens, d), 1.0)
    named = w.named()
    report: dict[str, dict] = {}
    all_ok = True
    for name in sorted(named):
        tape = T.Tape()
        watched = {name: tape.watch(named[name])}
        w_t = AdapterWeights.from_named({**named, **watched})
        loss = T.mean(T.mul(adapter_forward(m0, z0, w_t), probe))
        T.backward(tape, loss)
        analytic = tape.grad(watched[name]).data
        if grad_transform is not None:
            analytic = grad_transform(name, analytic)

        def forward(arr: np.ndarray, _name=name) -> float:
            w_n = AdapterWeights.from_named({**named, _name: Tensor(arr)})
            return T.mean(T.mul(adapter_forward(m0, z0, w_n), probe)).item()

        numeric = numeric_gradient(forward, named[name].data.copy(), h=h)
        err = relative_error(analytic, numeric)
        ok = err <= tol
        all_ok &= ok
        report[name] = {"rel_err": err, "ok": ok}
    report["__all__"] = {"ok": all_ok}
    return report
