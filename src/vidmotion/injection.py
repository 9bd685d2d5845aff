"""Foreground/background key-value decoupling and cross-branch injection.

The reconstruction branch's keys/values are split rowwise by a binary token
mask, then stacked together with the editing branch's current-frame block;
the editing branch's preceding-frame block is never built. Each injecting
forward builds the reconstruction part of its stack with ``CsMask.block``,
the builder ``build_injected_kv`` uses, and drops it when its attention
returns. Temporal attention is injected wholesale. ``kv_hooks`` decides
which U-Net blocks inject and hands each one the key/value hooks its
attention kernels apply.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import attention as A
from . import tensor as T
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


def _columns(m: np.ndarray) -> tuple[Tensor, Tensor]:
    """A validated token mask as (..., n, 1) keep and drop columns."""
    col = m[..., None]
    return Tensor(col), Tensor(1.0 - col)


def _split(k: Tensor, v: Tensor, keep: Tensor,
           drop: Tensor) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    return T.mul(k, keep), T.mul(v, keep), T.mul(k, drop), T.mul(v, drop)


def decouple_kv(k: Tensor, v: Tensor, mask) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Split keys/values rowwise into (K_fg, V_fg, K_bg, V_bg).

    Keys/values are n x d, or F x n x d with an (F, n) mask for all frames at
    once. A token's whole d-vector is kept or zeroed, so K_fg + K_bg == K
    exactly.
    """
    if k.shape != v.shape or k.data.ndim not in (2, 3):
        raise T.ShapeError(f"keys/values must be matching [F x] n x d, got "
                           f"{k.shape} and {v.shape}")
    return _split(k, v, *_columns(_check_mask(mask, k.shape[:-1])))


# The reconstruction branch's part of an injected stack, as the key pieces
# and the value pieces that go before the current frame's keys and values.
Block = tuple[list[Tensor], list[Tensor]]


def join_current(block: Block, edit_cur: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """Stack a reconstruction block's pieces, then the current-frame keys
    (and likewise values), along the token axis."""
    (ks, vs), (k_cu, v_cu) = block, edit_cur
    axis = k_cu.data.ndim - 2
    return T.concat([*ks, k_cu], axis=axis), T.concat([*vs, v_cu], axis=axis)


def build_injected_kv(recon: tuple[Tensor, Tensor, Tensor, Tensor],
                      edit_cur: tuple[Tensor, Tensor],
                      drop_masked_tokens: bool = False,
                      mask=None) -> tuple[Tensor, Tensor]:
    """Stack [K_fg, K_bg, K_cur] (and likewise for values) along the token
    axis, for one frame (n x d blocks) or all frames (F x n x d blocks).

    Default keeps zeroed rows, giving exactly 5N tokens for N-token frames.
    With ``drop_masked_tokens`` the zeroed rows are removed instead (3N
    tokens): ``CsMask.block`` takes the kept rows of K_fg + K_bg, which
    equals the undecoupled keys bit for bit, with one frame as a 1-frame
    stack. It takes them outside the tape, so tracked ``recon`` is refused.
    """
    k_fg, v_fg, k_bg, v_bg = recon
    widths = {t.shape[-1] for t in (k_fg, v_fg, k_bg, v_bg, *edit_cur)}
    if len(widths) != 1:
        raise T.ShapeError(f"key/value widths disagree: {sorted(widths)}")
    if k_fg.shape != k_bg.shape or v_fg.shape != v_bg.shape:
        raise T.ShapeError("foreground/background blocks must match shapes")
    if not drop_masked_tokens:
        return join_current(([k_fg, k_bg], [v_fg, v_bg]), edit_cur)
    if any(x.node is not None for x in recon):
        raise T.TapeError("drop mode cannot differentiate through recon keys/values")
    m = _check_mask(mask, k_fg.shape[:-1])

    def stack(x: Tensor) -> Tensor:
        return T.reshape(x, (-1, *x.shape[-2:]))

    block = CsMask.of(m.reshape(-1, m.shape[-1])).block(
        stack(T.add(k_fg, k_bg)), stack(T.add(v_fg, v_bg)), True)
    return tuple(T.reshape(x, (*k_fg.shape[:-2], *x.shape[1:]))
                 for x in join_current(block, tuple(map(stack, edit_cur))))


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


@dataclass(frozen=True)
class CsMask:
    """One level's (F, 2N) cross-frame mask, validated, in the two forms
    that build a reconstruction block from cached (F, 2N, d) keys/values."""

    keep: Tensor  # (F, 2N, 1): 1 on foreground rows, 0 elsewhere
    drop: Tensor  # its complement
    rows: np.ndarray  # (F * 2N,) kept rows of the (F * 2N, d) stack, in order

    @classmethod
    def of(cls, m: np.ndarray) -> "CsMask":
        """From a validated (F, 2N) mask. Each frame keeps every row,
        foreground rows first, then background rows, each in token order."""
        frames, n2 = m.shape
        rows = (np.argsort(1.0 - m, axis=-1, kind="stable")
                + n2 * np.arange(frames)[:, None])
        return cls(*_columns(m), rows.reshape(-1))

    def block(self, k: Tensor, v: Tensor, drop_masked_tokens: bool) -> Block:
        """[K_fg; K_bg] pieces of cached (F, 2N, d) keys, or with
        ``drop_masked_tokens`` their rows in kept order: the undecoupled keys
        equal K_fg + K_bg bit for bit, and the cache's arrays are outside
        any tape, so the rows are taken from them directly."""
        if k.shape[:-1] != self.keep.shape[:-1]:
            raise MaskError(f"mask shape {self.keep.shape[:-1]} != (frames, "
                            f"tokens) {k.shape[:-1]}")
        if drop_masked_tokens:
            def kept(x: Tensor) -> Tensor:
                flat = x.data.reshape(-1, x.shape[-1])
                return Tensor(np.take(flat, self.rows, axis=0).reshape(x.shape))
            return [kept(k)], [kept(v)]
        k_fg, v_fg, k_bg, v_bg = _split(k, v, self.keep, self.drop)
        return [k_fg, k_bg], [v_fg, v_bg]


@dataclass
class LatentMask:
    """Per-frame binary token masks at each layer resolution."""

    levels: dict[int, np.ndarray]  # level -> (frames, tokens), values in {0,1}
    _cs: dict[int, CsMask] = field(default_factory=dict, init=False,
                                   repr=False, compare=False)

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

    def cs(self, level: int) -> CsMask:
        """``cs_mask(level)`` validated and prepared, once per LatentMask."""
        prepared = self._cs.get(level)
        if prepared is None:
            m = self.cs_mask(level)
            prepared = self._cs[level] = CsMask.of(_check_mask(m, m.shape))
        return prepared


def kv_hooks(role: str, layer: str, t: int, topology: dict[str, str], level: int,
             cache: ReconCache | CacheLog | None, masks: LatentMask | None,
             inj: InjectionSettings | None
             ) -> tuple[A.KVHook | None, A.KVHook | None]:
    """The (cross-frame, temporal) key/value hooks of U-Net block ``layer`` at
    step ``t``, or None where the block does not inject. "recon" hooks project
    the stacks and copy them into ``cache``. "edit" hooks are handed the
    current frame's tokens only: the cross-frame hook projects them and puts
    the reconstruction block (masks of ``level``) before them, and the
    temporal hook returns the cached stacks without projecting anything.
    Each call of the cross-frame hook reads the cache and builds its own
    block, which lives only as long as the stacks it is joined into."""
    if inj is None or not gate(layer, topology, inj.inject_mid):
        return None, None
    if role == "recon":
        def writer(put):
            def hook(src: Tensor, p: A.ProjectionSet) -> tuple[Tensor, Tensor]:
                k, v = A.project_kv(src, p)
                put(layer, t, k.data, v.data)
                return k, v
            return hook
        return writer(cache.put_cs), writer(cache.put_temporal)
    if role == "edit" and inj.enabled:
        cs_mask = masks.cs(level)

        def inject_cs(src: Tensor, p: A.ProjectionSet) -> tuple[Tensor, Tensor]:
            block = cs_mask.block(*cache.get_cs(layer, t), inj.drop_masked_tokens)
            return join_current(block, A.project_kv(src, p))

        return inject_cs, lambda src, p: cache.get_temporal(layer, t)
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

    def replay(self, writes: list[Write]) -> None:
        """Apply the writes a CacheLog took, in their order."""
        for kind, *write in writes:
            (self.put_cs if kind == "cs" else self.put_temporal)(*write)

    def get_cs(self, layer: str, t: int) -> tuple[Tensor, Tensor]:
        kv = self._get(self.cs, "cross-frame", layer, t)
        self.reads_cs += 1
        return kv

    def get_temporal(self, layer: str, t: int) -> tuple[Tensor, Tensor]:
        kv = self._get(self.temporal, "temporal", layer, t)
        self.reads_temporal += 1
        return kv


# One cache write: "cs" or "temporal", then the put's (layer, t, k, v).
Write = tuple[str, str, int, np.ndarray, np.ndarray]


class CacheLog:
    """Takes the reconstruction forwards' cache writes in a ReconCache's
    place, in order, for a ReconCache to ``replay`` elsewhere."""

    def __init__(self):
        self.writes: list[Write] = []

    def put_cs(self, layer: str, t: int, k: np.ndarray, v: np.ndarray) -> None:
        self.writes.append(("cs", layer, t, k, v))

    def put_temporal(self, layer: str, t: int, k: np.ndarray, v: np.ndarray) -> None:
        self.writes.append(("temporal", layer, t, k, v))

    def take(self) -> list[Write]:
        """The writes since the last take."""
        writes, self.writes = self.writes, []
        return writes
