"""Foreground/background key-value decoupling and cross-branch injection.

The reconstruction branch's keys/values are split rowwise by a binary token
mask, then stacked together with the editing branch's current-frame block;
the editing branch's preceding-frame block is dropped. Temporal attention is
injected wholesale. ``kv_hooks`` decides which U-Net blocks inject and hands
each one the key/value hooks its attention kernels apply.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import KVHook
from .skeleton import resize_nearest
from .tensor import Tensor


class MaskError(ValueError):
    """Token mask is non-binary or has the wrong length."""


class CacheError(KeyError):
    """Reconstruction cache misuse: a read of an unheld step or a repeated write."""


class GateError(KeyError):
    """Layer id is not registered in the network topology."""


def _check_mask(mask, shape: tuple[int, ...]) -> np.ndarray:
    """Validate a binary token mask against the token axes of a key stack:
    ``(n,)`` for one frame (any mask with n entries), ``(F, n)`` for F frames."""
    mask = np.asarray(mask, dtype=np.float32)
    if len(shape) == 1:
        mask = mask.reshape(-1)
        if mask.shape[0] != shape[0]:
            raise MaskError(f"mask length {mask.shape[0]} != token count {shape[0]}")
    elif mask.shape != shape:
        raise MaskError(f"mask shape {mask.shape} != (frames, tokens) {shape}")
    if not np.isin(mask, (0.0, 1.0)).all():
        raise MaskError("mask values must be exactly 0 or 1")
    return mask


def decouple_kv(k: Tensor, v: Tensor, mask) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Split keys/values rowwise into (K_fg, V_fg, K_bg, V_bg).

    Keys/values are n x d, or F x n x d with an (F, n) mask for all frames at
    once. A token's whole d-vector is kept or zeroed, so K_fg + K_bg == K
    exactly.
    """
    if k.shape != v.shape or k.data.ndim not in (2, 3):
        raise T.ShapeError(f"keys/values must be matching [F x] n x d, got "
                           f"{k.shape} and {v.shape}")
    m = _check_mask(mask, k.shape[:-1])[..., None]
    col = Tensor(m)
    inv = Tensor(1.0 - m)
    return T.mul(k, col), T.mul(v, col), T.mul(k, inv), T.mul(v, inv)


def build_injected_kv(recon: tuple[Tensor, Tensor, Tensor, Tensor],
                      edit_cur: tuple[Tensor, Tensor],
                      drop_masked_tokens: bool = False,
                      mask=None) -> tuple[Tensor, Tensor]:
    """Stack [K_fg, K_bg, K_cur] (and likewise for values) along the token
    axis, for one frame (n x d blocks) or all frames (F x n x d blocks).

    Default keeps zeroed rows, giving exactly 5N tokens for N-token frames.
    With ``drop_masked_tokens`` the zeroed rows are removed instead (3N
    tokens), which needs the mask to know which rows survive: one stable
    gather takes the foreground rows, then the background rows, in token
    order from K_fg + K_bg, which equals the undecoupled keys bit for bit.
    """
    k_fg, v_fg, k_bg, v_bg = recon
    k_cu, v_cu = edit_cur
    widths = {t.shape[-1] for t in (k_fg, v_fg, k_bg, v_bg, k_cu, v_cu)}
    if len(widths) != 1:
        raise T.ShapeError(f"key/value widths disagree: {sorted(widths)}")
    if k_fg.shape != k_bg.shape or v_fg.shape != v_bg.shape:
        raise T.ShapeError("foreground/background blocks must match shapes")
    axis = k_fg.data.ndim - 2
    if not drop_masked_tokens:
        return (T.concat([k_fg, k_bg, k_cu], axis=axis),
                T.concat([v_fg, v_bg, v_cu], axis=axis))
    m = _check_mask(mask, k_fg.shape[:-1])
    rows = np.argsort(1.0 - m, axis=-1, kind="stable")  # foreground first
    return (T.concat([T.gather_rows(T.add(k_fg, k_bg), rows), k_cu], axis=axis),
            T.concat([T.gather_rows(T.add(v_fg, v_bg), rows), v_cu], axis=axis))


def gate(layer_id: str, topology: dict[str, str], inject_mid: bool = False) -> bool:
    """True iff injection is active for this layer (decoder half only)."""
    try:
        half = topology[layer_id]
    except KeyError:
        raise GateError(f"unknown layer id {layer_id!r}") from None
    if half == "decoder":
        return True
    if half == "mid":
        return inject_mid
    return False


@dataclass
class InjectionSettings:
    """How the editing branch consumes the reconstruction cache."""

    enabled: bool = True
    inject_mid: bool = False
    drop_masked_tokens: bool = False
    window_fraction: float = 1.0  # inject during the trailing fraction of steps

    def active_at(self, step_index: int, total_steps: int) -> bool:
        if not self.enabled:
            return False
        start = (1.0 - self.window_fraction) * total_steps
        return step_index >= start - 1e-9


def downsample_mask(mask_hw: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor downsample of the last two axes, then re-binarize at
    0.5."""
    return (resize_nearest(np.asarray(mask_hw, dtype=np.float32), out_h, out_w)
            >= 0.5).astype(np.float32)


@dataclass
class LatentMask:
    """Per-frame binary token masks at each layer resolution."""

    levels: dict[int, np.ndarray]  # level -> (frames, tokens), values in {0,1}

    @classmethod
    def from_rasters(cls, masks: np.ndarray,
                     level_shapes: dict[int, tuple[int, int]]) -> "LatentMask":
        """Build the pyramid from (frames, H, W) binary rasters."""
        masks = np.asarray(masks, dtype=np.float32)
        return cls({level: downsample_mask(masks, h, w).reshape(len(masks), -1)
                    for level, (h, w) in level_shapes.items()})

    def cs_mask(self, level: int) -> np.ndarray:
        """(frames, 2N) masks aligned with each frame's [preceding, current]
        keys; frame 0 is its own preceding frame."""
        cur = self.levels[level]
        prev = cur[np.maximum(np.arange(cur.shape[0]) - 1, 0)]
        return np.concatenate([prev, cur], axis=1)


def kv_hooks(role: str, layer: str, t: int, topology: dict[str, str], level: int,
             cache: ReconCache | None, masks: LatentMask | None,
             inj: InjectionSettings | None) -> tuple[KVHook | None, KVHook | None]:
    """The (cross-frame, temporal) key/value hooks of U-Net block ``layer`` at
    step ``t``, or None where the block does not inject. "recon" hooks copy
    the stacks into ``cache``; "edit" hooks return the injected cross-frame
    stacks (masks of ``level``) and the cached temporal stacks."""
    if inj is None or not gate(layer, topology, inj.inject_mid):
        return None, None
    if role == "recon":
        def writer(put):
            def hook(k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
                put(layer, t, k.data, v.data)
                return k, v
            return hook
        return writer(cache.put_cs), writer(cache.put_temporal)
    if role == "edit" and inj.enabled:
        mask = masks.cs_mask(level)

        def inject_cs(k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
            recon = decouple_kv(*cache.get_cs(layer, t), mask)
            n = k.shape[1] // 2
            cur = (T.slice_axis(k, 1, n, 2 * n), T.slice_axis(v, 1, n, 2 * n))
            return build_injected_kv(recon, cur, inj.drop_masked_tokens, mask)

        return inject_cs, lambda k, v: cache.get_temporal(layer, t)
    return None, None


class ReconCache:
    """One-step hand-off of reconstruction keys/values to the editing branch.

    Per gated layer it holds the latest step's (t, k, v): cross-frame stacks
    are (frames, 2N, d), temporal stacks (locations, frames, d). A write
    replaces the layer's previous step, a second write of the same (layer, t)
    is rejected, and a read of any other step misses. It holds the arrays it
    is handed, uncopied, since tensors are immutable. ``peak_bytes`` is the
    most the cache held at once.
    """

    def __init__(self):
        self.cs: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}
        self.temporal: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}
        self.writes = 0
        self.reads_cs = 0
        self.reads_temporal = 0
        self.peak_bytes = 0

    def _put(self, store: dict, layer: str, t: int,
             k: np.ndarray, v: np.ndarray) -> None:
        if layer in store and store[layer][0] == t:
            raise CacheError(f"duplicate cache write for ({layer!r}, t={t})")
        store[layer] = (t, k, v)
        self.writes += 1
        nbytes = sum(hk.nbytes + hv.nbytes for _, hk, hv in
                     (*self.cs.values(), *self.temporal.values()))
        self.peak_bytes = max(self.peak_bytes, nbytes)

    @staticmethod
    def _get(store: dict, kind: str, layer: str, t: int) -> tuple[Tensor, Tensor]:
        held = store.get(layer)
        if held is None or held[0] != t:
            raise CacheError(f"cache miss: {kind} entry ({layer!r}, t={t})")
        return Tensor(held[1]), Tensor(held[2])

    def put_cs(self, layer: str, t: int, k: np.ndarray, v: np.ndarray) -> None:
        self._put(self.cs, layer, t, k, v)

    def put_temporal(self, layer: str, t: int, k: np.ndarray, v: np.ndarray) -> None:
        self._put(self.temporal, layer, t, k, v)

    def get_cs(self, layer: str, t: int) -> tuple[Tensor, Tensor]:
        kv = self._get(self.cs, "cross-frame", layer, t)
        self.reads_cs += 1
        return kv

    def get_temporal(self, layer: str, t: int) -> tuple[Tensor, Tensor]:
        kv = self._get(self.temporal, "temporal", layer, t)
        self.reads_temporal += 1
        return kv
