"""Attention kernels: scaled-dot attention, cross-frame (preceding+current)
attention, per-location temporal attention, and pose-query cross-attention.

Single head throughout; tokens are rows, projections right-multiply. Every
kernel takes one rank-2 token matrix (n, d) or a rank-3 stack (B, n, d) whose
leading axis is attended independently; rank-2 keys and values serve every
entry of a rank-3 query stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

from . import tensor as T
from .tensor import Tensor


@dataclass
class ProjectionSet:
    """Square query/key/value/output projections sharing one model width."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_out: Tensor

    @classmethod
    def from_named(cls, named: dict[str, Tensor], prefix: str) -> "ProjectionSet":
        """The projections that ``projection_layout(prefix, ...)`` names,
        read from ``named``."""
        return cls(named[f"{prefix}.w_q"], named[f"{prefix}.w_k"],
                   named[f"{prefix}.w_v"], named[f"{prefix}.w_out"])


def projection_layout(prefix: str, d: int, out_std: float | None = None,
                      v_std: float | None = None) -> T.Layout:
    """One ProjectionSet's (d, d) weights, named ``{prefix}.<field>``, each
    drawn with std 1/sqrt(d) unless ``v_std`` or ``out_std`` is given."""
    std = 1.0 / math.sqrt(d)
    stds = (std, std, std if v_std is None else v_std,
            std if out_std is None else out_std)
    return [(f"{prefix}.{f.name}", (d, d), s)
            for f, s in zip(fields(ProjectionSet), stds)]


def init_projection_set(rng: T.Rng, d: int) -> ProjectionSet:
    return ProjectionSet.from_named(rng.draw(projection_layout("p", d)), "p")


def attend(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q kT / sqrt(d)) v for rank-2 token matrices, or for rank-3
    stacks (B,nq,d) x (B,nk,d) -> (B,nq,d) with one softmax per batch entry.
    A rank-3 query stack may also attend rank-2 keys and values (nk,d) that
    every batch entry shares."""
    qs, ks, vs = q.data.shape, k.data.shape, v.data.shape
    rank = len(ks)
    if (rank not in (2, 3) or len(vs) != rank or len(qs) not in (rank, 3)
            or not qs[:rank - 2] == ks[:-2] == vs[:-2]):
        raise T.ShapeError(f"attend expects rank-2 or rank-3 stacks with one "
                           f"batch size, or shared rank-2 keys and values, got "
                           f"{qs}, {ks}, {vs}")
    if qs[-1] != ks[-1]:
        raise T.ShapeError(f"query width {qs[-1]} != key width {ks[-1]}")
    if ks[-2] != vs[-2]:
        raise T.ShapeError(f"key count {ks[-2]} != value count {vs[-2]}")
    if ks[-2] == 0:
        raise T.ShapeError("attend needs at least one key")
    k_t = T.transpose(k, (*range(rank - 2), rank - 1, rank - 2))
    scores = T.scale(T.matmul(q, k_t), 1.0 / math.sqrt(qs[-1]))
    return T.matmul(T.softmax(scores, axis=len(qs) - 1), v)


KVHook = Callable[[Tensor, ProjectionSet], tuple[Tensor, Tensor]]


def project_kv(src: Tensor, p: ProjectionSet) -> tuple[Tensor, Tensor]:
    """The keys and values of the ``src`` tokens."""
    return T.matmul(src, p.w_k), T.matmul(src, p.w_v)


def attention(q_src: Tensor, kv_src: Tensor, p: ProjectionSet,
              kv: KVHook | None = None) -> Tensor:
    """Queries projected from ``q_src``, keys and values from ``kv_src``,
    attended, then projected out. A ``kv`` hook owns the key/value side: it
    is handed ``kv_src`` and the projections instead of ``project_kv``, and
    may return other keys and values, or keys it did not project."""
    q = T.matmul(q_src, p.w_q)
    k, v = (kv or project_kv)(kv_src, p)
    return T.matmul(attend(q, k, v), p.w_out)


def cs_attention(z_prev: Tensor, z_cur: Tensor, p: ProjectionSet,
                 kv: KVHook | None = None) -> Tensor:
    """Cross-frame attention: queries from the current frame, keys/values from
    the concatenated preceding+current frames (frame 0 passes itself twice)."""
    if z_prev.shape != z_cur.shape:
        raise T.ShapeError(f"frame token shapes differ: {z_prev.shape} "
                           f"vs {z_cur.shape}")
    return attention(z_cur, T.concat([z_prev, z_cur], axis=z_cur.data.ndim - 2),
                     p, kv)


def temporal_attention(stack: Tensor, p: ProjectionSet,
                       kv: KVHook | None = None) -> Tensor:
    """Self-attention across the frame axis: one location's (F, d) stack, or
    (locations, F, d)."""
    return attention(stack, stack, p, kv)


def content_cross_attention(m: Tensor, z: Tensor, p: ProjectionSet) -> Tensor:
    """Pose-feature queries attend over the frame latent; one output row per
    pose token."""
    return attention(m, z, p)
