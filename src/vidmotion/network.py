"""Toy inflated 3D U-Net noise predictor, ControlNet-style conditioning, and
the pose encoder.

Two resolution levels; each U-Net block runs cross-frame attention, text
cross-attention, and temporal attention (residual + pre-layer-norm each)
through the attention kernels, with key/value hooks from ``injection.kv_hooks``
that write the ReconCache (reconstruction role) or inject from it (editing).
Spatial mixing comes from the attention kernels, so all "convolutions" are
pointwise token projections and resolution changes are average-pool / nearest
repeat.

``_layout`` lists every weight once, as (name, shape, init), composed from the
attention and adapter layouts: ``init_model`` draws it, ``parameter_shapes``
reads its shapes, and the forwards read weights back from the flat name ->
Tensor map by prefix.

What depends only on frozen weights and the prompt (text keys/values, and
the text sub-block's whole output for a one-token prompt such as the
unconditional one) is built once per run in a ``Conditioning``; what the
forwards of one sampler step share (each block's time row, the first block's
opening and the adapter control sides) is built once per step in a
``StepContext``, and goes with the step. Both reuses are exact: one key makes
the text softmax exactly 1, so that output does not depend on the stream, and
enc0 is never gated, so its opening reads only the latent and the timestep.
Injected reconstruction blocks are not shared: each injecting forward builds
its own and drops it. The ControlNet builds its own time rows in each call.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from . import adapter as AD
from . import attention as A
from . import injection as I
from . import tensor as T
from .tensor import Tensor


class ConfigError(ValueError):
    """Malformed or inconsistent configuration, or input that does not match
    the network configuration."""


TOPOLOGY: dict[str, str] = {
    "enc0": "encoder", "enc1": "encoder", "mid": "mid",
    "dec1": "decoder", "dec0": "decoder",
}
BLOCK_ORDER = ("enc0", "enc1", "mid", "dec1", "dec0")
BLOCK_LEVEL = {"enc0": 0, "enc1": 1, "mid": 1, "dec1": 1, "dec0": 0}
CONTROL_BLOCKS = ("c_enc0", "c_enc1", "c_mid")
CONTROL_LEVEL = {"c_enc0": 0, "c_enc1": 1, "c_mid": 1}
CONTROLLED_LAYERS = ("dec1", "dec0")  # blocks that receive adapted residuals


@dataclass
class NetConfig:
    frames: int = 8
    image_size: int = 32
    channels: int = 4
    widths: tuple[int, int] = (32, 64)
    time_width: int = 32
    pool: int = 4  # fixed average-pool factor standing in for the VAE
    schedule_steps: int = 1000

    @property
    def latent_size(self) -> int:
        return self.image_size // self.pool

    def level_hw(self, level: int) -> tuple[int, int]:
        size = self.latent_size // (2 ** level)
        return size, size

    def level_shapes(self) -> dict[int, tuple[int, int]]:
        return {lvl: self.level_hw(lvl) for lvl in range(len(self.widths))}


def net_config(values: dict, where: str = "") -> NetConfig:
    """The NetConfig of ``values`` (field name -> JSON value) if it describes
    a network that can run: every size a positive integer, two level widths,
    ``image_size`` a multiple of ``pool``, an even latent size for the second
    level and an even ``time_width`` (sin and cos halves). Otherwise
    ConfigError, naming the field after ``where``."""
    widths = values.get("widths")
    if not isinstance(widths, (list, tuple)) or len(widths) != 2:
        raise ConfigError(f"{where}widths must list two level widths, got {widths!r}")
    sizes = {f.name: values.get(f.name) for f in fields(NetConfig) if f.name != "widths"}
    for key, value in [*sizes.items(), *(("widths", w) for w in widths)]:
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError(f"{where}{key} must be a positive integer, got {value!r}")
    cfg = NetConfig(widths=tuple(widths), **sizes)
    if cfg.image_size % cfg.pool != 0:
        raise ConfigError(f"{where}image_size {cfg.image_size} not divisible "
                          f"by pool {cfg.pool}")
    if cfg.latent_size % 2 != 0:
        raise ConfigError(f"{where}image_size / pool: latent size "
                          f"{cfg.latent_size} must be even for the second level")
    if cfg.time_width % 2 != 0:
        raise ConfigError(f"{where}time_width {cfg.time_width} must be even "
                          f"(sin and cos halves)")
    return cfg


# ---------------------------------------------------------------------------
# weights


@dataclass
class ModelWeights:
    """All tensors by canonical name, plus the configuration they belong to."""

    cfg: NetConfig
    params: dict[str, Tensor]

    def replace(self, subs: dict[str, Tensor]) -> "ModelWeights":
        merged = dict(self.params)
        for name, value in subs.items():
            if name not in merged:
                raise KeyError(f"unknown parameter {name!r}")
            merged[name] = value
        return ModelWeights(self.cfg, merged)

    def pset(self, prefix: str) -> A.ProjectionSet:
        return A.ProjectionSet.from_named(self.params, prefix)

    def ln(self, prefix: str) -> tuple[Tensor, Tensor]:
        return self.params[f"{prefix}.gamma"], self.params[f"{prefix}.beta"]


def sinusoidal_table(steps: int, width: int) -> Tensor:
    """Fixed sin/cos time embeddings, one row per diffusion timestep."""
    half = width // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = np.arange(steps)[:, None] * freqs[None, :]
    table = np.concatenate([np.sin(angles), np.cos(angles)], axis=1)
    return Tensor(table[:, :width].astype(np.float32))


def _opening_layout(pre: str, d: int, time_width: int, conv_std: float) -> T.Layout:
    """The weights of ``_conv_time_residual``."""
    return [(f"{pre}.conv_w", (d, d), conv_std), (f"{pre}.conv_b", (d,), T.zeros),
            (f"{pre}.time_proj", (time_width, d), 1.0 / math.sqrt(time_width))]


def _layout(cfg: NetConfig, pretrained_control: bool = False) -> T.Layout:
    """Every tensor of the network: name, shape and init, in draw order,
    except that ``init_model`` draws pretrained ``control.zero.*`` last."""
    d0, d1 = cfg.widths
    tw = cfg.time_width
    layout = [
        ("unet.in_proj", (cfg.channels, d0), 1.0 / math.sqrt(cfg.channels)),
        ("unet.out_proj", (d0, cfg.channels), 0.5 / math.sqrt(d0)),
        ("unet.out_b", (cfg.channels,), T.zeros),
        ("unet.down_proj", (d0, d1), 1.0 / math.sqrt(d0)),
        ("unet.up_proj", (d1, d0), 1.0 / math.sqrt(d1)),
        # sin/cos pairs: an odd width has no last column
        ("unet.time_table", (cfg.schedule_steps, 2 * (tw // 2)),
         lambda shape: sinusoidal_table(*shape)),
    ]
    for lid in BLOCK_ORDER:
        d = cfg.widths[BLOCK_LEVEL[lid]]
        pre, std = f"unet.{lid}", 1.0 / math.sqrt(d)
        # frozen residual branches start small so the stream keeps unit scale;
        # temporal attention is the freshly appended, trainable part: its
        # values run hot and its output projection is thin enough for the
        # one-shot protocol to rein in
        layout += [*_opening_layout(pre, d, tw, 0.1 / math.sqrt(d)),
                   *AD.layer_norm_layout(f"{pre}.ln_cs", d),
                   *AD.layer_norm_layout(f"{pre}.ln_cross", d),
                   *AD.layer_norm_layout(f"{pre}.ln_temporal", d),
                   *A.projection_layout(f"{pre}.cs", d, out_std=0.1 / math.sqrt(d)),
                   *A.projection_layout(f"{pre}.cross", d, out_std=0.02 / math.sqrt(d)),
                   *A.projection_layout(f"{pre}.temporal", d, out_std=0.06 * std,
                                        v_std=14.0 * std)]
    layout += [
        ("control.in_proj", (cfg.channels, d0), 1.0 / math.sqrt(cfg.channels)),
        ("control.down_proj", (d0, d1), 1.0 / math.sqrt(d0)),
        ("control.pose0.w", (1, d0), 1.0),
        ("control.pose0.b", (d0,), T.zeros),
        ("control.pose1.w", (d0, d1), 1.0 / math.sqrt(d0)),
        ("control.pose1.b", (d1,), T.zeros),
    ]
    for lid in CONTROL_BLOCKS:
        d = cfg.widths[CONTROL_LEVEL[lid]]
        pre = f"control.{lid}"
        layout += [*_opening_layout(pre, d, tw, 1.0 / math.sqrt(d)),
                   *AD.layer_norm_layout(f"{pre}.ln_sp", d),
                   *A.projection_layout(f"{pre}.spatial", d, out_std=0.1 / math.sqrt(d))]
    # zero at construction; pretrained, small seeded values so the pose path
    # carries signal
    for lid, d in zip(CONTROLLED_LAYERS, (d1, d0)):
        layout.append((f"control.zero.{lid}", (d, d),
                       0.5 / math.sqrt(d) if pretrained_control else T.zeros))
    for level, d in enumerate(cfg.widths):
        layout += AD.adapter_layout(f"adapter{level}", d)
    return layout


def init_model(cfg: NetConfig, seed: int, pretrained_control: bool = True) -> ModelWeights:
    """Seeded construction from ``_layout``. ControlNet output projections
    are zero at construction; with ``pretrained_control`` they are drawn, after
    every other weight, as the stand-in for a pre-trained conditioning
    network."""
    layout = _layout(cfg, pretrained_control)
    drawn = T.Rng(seed).draw(sorted(
        layout, key=lambda entry: entry[0].startswith("control.zero.")))
    return ModelWeights(cfg, {name: drawn[name] for name, _, _ in layout})


def parameter_shapes(cfg: NetConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor ``init_model(cfg, ...)`` builds, from the
    configuration alone: no weight is drawn or allocated."""
    return {name: shape for name, shape, _ in _layout(cfg)}


def trainable_names(model: ModelWeights) -> set[str]:
    """One-shot training touches only the adapter and temporal attention."""
    names = set()
    for name in model.params:
        if name.startswith("adapter"):
            names.add(name)
        elif name.startswith("unet.") and (".temporal." in name
                                           or ".ln_temporal." in name):
            names.add(name)
    return names


def parameter_checksum(model: ModelWeights, names: set[str] | None = None) -> str:
    digest = hashlib.sha256()
    for name in sorted(names if names is not None else model.params):
        digest.update(name.encode())
        digest.update(model.params[name].data.tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# text conditioning

_EMBED_CACHE: dict[tuple[str, int], np.ndarray] = {}
UNCOND_TOKEN = "\x00uncond"


def _token_vector(token: str, d: int) -> np.ndarray:
    key = (token, d)
    cached = _EMBED_CACHE.get(key)
    if cached is None:
        seed = int.from_bytes(
            hashlib.blake2b(f"{token}|{d}".encode(), digest_size=8).digest(), "little")
        gen = np.random.Generator(np.random.PCG64(seed))
        cached = gen.normal(0.0, 1.0, d).astype(np.float32)
        _EMBED_CACHE[key] = cached
    return cached


def text_embedding(prompt: str | None, d: int) -> Tensor:
    """Hash-derived token embeddings; empty/None is the reserved unconditional
    embedding."""
    tokens = prompt.split() if prompt else []
    if not tokens:
        tokens = [UNCOND_TOKEN]
    return Tensor(np.stack([_token_vector(tok, d) for tok in tokens]))


# ---------------------------------------------------------------------------
# forward passes


def _tokens_from_latent(z: Tensor) -> Tensor:
    f, c, h, w = z.shape
    return T.transpose(T.reshape(z, (f, c, h * w)), (0, 2, 1))


def _latent_from_tokens(x: Tensor, cfg: NetConfig) -> Tensor:
    f, n, c = x.shape
    h = w = cfg.latent_size
    return T.reshape(T.transpose(x, (0, 2, 1)), (f, c, h, w))


def _pool2_tokens(x: Tensor, h: int, w: int) -> Tensor:
    f, n, d = x.shape
    g = T.reshape(x, (f, h // 2, 2, w // 2, 2, d))
    g = T.mean(g, axis=2)
    g = T.mean(g, axis=3)
    return T.reshape(g, (f, (h // 2) * (w // 2), d))


def _upsample2_tokens(x: Tensor, h: int, w: int) -> Tensor:
    f, n, d = x.shape
    g = T.reshape(x, (f, h, w, d))
    g = T.repeat_axis(g, 1, 2)
    g = T.repeat_axis(g, 2, 2)
    return T.reshape(g, (f, 4 * h * w, d))


def _frame_shifted(x: Tensor) -> Tensor:
    """Stack of preceding-frame tokens with the frame-0 clamp."""
    frames = x.shape[0]
    if frames == 1:
        return x
    return T.concat([T.slice_axis(x, 0, 0, 1), T.slice_axis(x, 0, 0, frames - 1)],
                    axis=0)


class Conditioning:
    """What the forwards of one run compute from frozen weights and the
    prompt alone, each built on first use and kept for the run: every U-Net
    block's projected text keys and values per prompt, and its text
    sub-block's output for a one-token prompt. Time rows are not kept here:
    a run's timesteps rarely repeat (training draws them at random), so each
    step's StepContext builds its own.

    It holds only the frozen weights it reads (``names``), not the model, so
    a run that updates other weights, as training does, frees the old ones.
    A tracked weight would need its rows rebuilt at every step for its
    gradient, so building from one raises TapeError; a forward handed no
    Conditioning builds its own from its own weights, tracked or not.
    """

    def __init__(self, model: ModelWeights):
        self.names = frozenset(f"unet.{lid}.cross.{w}" for lid in BLOCK_ORDER
                               for w in ("w_k", "w_v", "w_out"))
        tracked = sorted(n for n in self.names if model.params[n].node is not None)
        if tracked:
            raise T.TapeError(f"conditioning built from tracked weights {tracked}")
        self.cfg = model.cfg
        self.params = {n: model.params[n] for n in self.names}
        self._text: dict[tuple[str, str | None], tuple[Tensor, Tensor]] = {}
        self._cross: dict[tuple[str, str | None], Tensor | None] = {}

    def text_kv(self, lid: str, prompt: str | None) -> tuple[Tensor, Tensor]:
        """U-Net block ``lid``'s text keys and values for ``prompt``, as
        ``attention.project_kv`` projects them."""
        kv = self._text.get((lid, prompt))
        if kv is None:
            text = text_embedding(prompt, self.cfg.widths[BLOCK_LEVEL[lid]])
            p = self.params
            kv = self._text[lid, prompt] = (T.matmul(text, p[f"unet.{lid}.cross.w_k"]),
                                            T.matmul(text, p[f"unet.{lid}.cross.w_v"]))
        return kv

    def cross_out(self, lid: str, prompt: str | None) -> Tensor | None:
        """U-Net block ``lid``'s text sub-block output for a one-token
        ``prompt`` (the unconditional one among them), or None for a longer
        prompt. One key makes the softmax exactly 1 for every query, so the
        output is the value row through ``w_out`` whatever the stream; it is
        built as the sub-block builds it, from the full (F, N, 1) stack of
        ones, so its bits equal the sub-block's."""
        key = (lid, prompt)
        if key not in self._cross:
            k, v = self.text_kv(lid, prompt)
            out = None
            if k.shape[0] == 1:
                cfg = self.cfg
                n = math.prod(cfg.level_hw(BLOCK_LEVEL[lid]))
                ones = Tensor(np.ones((cfg.frames, n, 1), np.float32))
                out = T.matmul(T.matmul(ones, v), self.params[f"unet.{lid}.cross.w_out"])
            self._cross[key] = out
        return self._cross[key]


class _OneForward(Conditioning):
    """One forward's conditioning: built from its own weights, tracked ones
    included, so that their gradients reach them. Its text sub-blocks run in
    full, since one forward has nothing to share them with."""

    def __init__(self, model: ModelWeights):
        self.cfg, self.params, self._text = model.cfg, model.params, {}

    def cross_out(self, lid: str, prompt: str | None) -> None:
        return None


def _time_row(model: ModelWeights, pre: str, t: int) -> Tensor:
    """The (1, d) time embedding of block ``pre`` at timestep ``t``."""
    p = model.params
    return T.matmul(T.slice_axis(p["unet.time_table"], 0, t, t + 1),
                    p[f"{pre}.time_proj"])


@dataclass
class StepContext:
    """What the U-Net forwards of one sampler step share, built by the first
    forward that needs it: each block's time row at ``t``, the first block's
    opening on the latent ``z`` and each controlled layer's adapter control
    side. The cond and uncond forwards under guidance read the same latent
    and control sides, so one context serves both; forwards that differ in
    either must not share one, and a forward on another timestep or latent
    refuses it. It holds no injected block, so a forward's blocks are freed
    as that forward ends, and what it holds is freed with the step.

    ``sides``, if given, hands over every controlled layer's control side at
    once (``control_sides`` of the step, built elsewhere); the first
    controlled layer takes them. Without it the forward is unconditioned."""

    t: int
    z: Tensor
    sides: Callable[[], dict[str, AD.ControlSide]] | None = None
    opening: tuple[Tensor, Tensor] | None = None
    control: dict[str, AD.ControlSide] = field(default_factory=dict)
    time: dict[str, Tensor] = field(default_factory=dict)

    def time_row(self, model: ModelWeights, lid: str) -> Tensor:
        """U-Net block ``lid``'s time row at ``t``, built on first use."""
        row = self.time.get(lid)
        if row is None:
            row = self.time[lid] = _time_row(model, f"unet.{lid}", self.t)
        return row


def _cs_sub_block(x: Tensor, model: ModelWeights, lid: str, kv) -> Tensor:
    a_in = T.layer_norm(x, *model.ln(f"unet.{lid}.ln_cs"))
    return A.cs_attention(_frame_shifted(a_in), a_in, model.pset(f"unet.{lid}.cs"), kv)


def _injected_cs_sub_block(x: Tensor, model: ModelWeights, lid: str, kv) -> Tensor:
    """The editing role's cross-frame sub-block at an injecting layer: the
    ``kv`` hook puts the reconstruction block before the current frame's keys
    and values, so no preceding-frame stack is built."""
    a_in = T.layer_norm(x, *model.ln(f"unet.{lid}.ln_cs"))
    return A.attention(a_in, a_in, model.pset(f"unet.{lid}.cs"), kv)


def _cross_sub_block(x: Tensor, model: ModelWeights, lid: str,
                     text_kv: tuple[Tensor, Tensor]) -> Tensor:
    c_in = T.layer_norm(x, *model.ln(f"unet.{lid}.ln_cross"))
    p = model.pset(f"unet.{lid}.cross")
    return T.matmul(A.attend(T.matmul(c_in, p.w_q), *text_kv), p.w_out)


def _temporal_sub_block(x: Tensor, model: ModelWeights, lid: str, kv) -> Tensor:
    t_in = T.layer_norm(x, *model.ln(f"unet.{lid}.ln_temporal"))
    stacks = T.transpose(t_in, (1, 0, 2))  # (locations, frames, d)
    out = A.temporal_attention(stacks, model.pset(f"unet.{lid}.temporal"), kv)
    return T.transpose(out, (1, 0, 2))


def _conv_time_residual(x: Tensor, model: ModelWeights, pre: str,
                        time_row: Tensor) -> Tensor:
    """x + silu(conv(x) + time embedding), the opening of every U-Net and
    ControlNet block."""
    p = model.params
    h = T.add(T.matmul(x, p[f"{pre}.conv_w"]), p[f"{pre}.conv_b"])
    h = T.silu(T.add(h, time_row))  # (1, d) row
    return T.add(x, h)


def _opening(x: Tensor, model: ModelWeights, lid: str, role: str, cs_kv,
             step: StepContext) -> tuple[Tensor, Tensor]:
    """Block ``lid``'s conv/time residual and cross-frame sub-block on the
    stream ``x``: the sub-block's output and the stream after it."""
    x = _conv_time_residual(x, model, f"unet.{lid}", step.time_row(model, lid))
    cs = (_injected_cs_sub_block if role == "edit" and cs_kv is not None
          else _cs_sub_block)
    cs_out = cs(x, model, lid, cs_kv)
    return cs_out, T.add(x, cs_out)


def _unet_block(opened: tuple[Tensor, Tensor], model: ModelWeights, lid: str,
                prompt: str | None, temporal_kv, probe,
                cond: Conditioning) -> Tensor:
    """The rest of block ``lid`` after its ``_opening``: text cross and
    temporal sub-blocks."""
    cs_out, x = opened
    if probe is not None:
        probe[(lid, "cs")] = cs_out.data

    cross_out = cond.cross_out(lid, prompt)
    if cross_out is None:
        cross_out = _cross_sub_block(x, model, lid, cond.text_kv(lid, prompt))
    if probe is not None:
        probe[(lid, "cross")] = cross_out.data
    x = T.add(x, cross_out)

    temp_out = _temporal_sub_block(x, model, lid, temporal_kv)
    if probe is not None:
        probe[(lid, "temporal")] = temp_out.data
    x = T.add(x, temp_out)
    return x


def _adapter_weights(model: ModelWeights, lid: str) -> AD.AdapterWeights:
    return AD.AdapterWeights(model.params, f"adapter{BLOCK_LEVEL[lid]}")


def _adapted(x: Tensor, model: ModelWeights, lid: str, step: StepContext) -> Tensor:
    """x plus the adapter's residual for controlled layer ``lid``, its
    control side taken from ``step.sides``, once per step."""
    if step.sides is None:
        return x
    if not step.control:
        step.control = step.sides()
    w = _adapter_weights(model, lid)
    return T.add(x, AD.adapter_apply(step.control[lid], x, w))


def unet_forward(model: ModelWeights, z: Tensor, t: int, prompt: str | None,
                 role: str = "plain",
                 cache: I.ReconCache | I.CacheLog | None = None,
                 masks: I.LatentMask | None = None,
                 inj: I.InjectionSettings | None = None,
                 probe: dict | None = None, cond: Conditioning | None = None,
                 step: StepContext | None = None) -> Tensor:
    """Predict noise for a latent video block.

    role "recon" writes decoder-layer keys/values to ``cache`` (a ReconCache,
    or a CacheLog that one replays); role "edit" replaces the gated layers'
    keys/values with injected stacks built from ``cache`` and ``masks``. The
    plain role touches neither. ``cond`` (the run's Conditioning: text keys
    and values) and ``step`` (the step's StepContext, built for ``z`` at
    ``t``: time rows, the first block's opening and control sides) hand in
    what other forwards have built already; without them the forward builds
    its own.
    """
    cfg = model.cfg
    want = (cfg.frames, cfg.channels, cfg.latent_size, cfg.latent_size)
    if z.shape != want:
        raise ConfigError(f"latent shape {z.shape} does not match {want}")
    if not 0 <= t < cfg.schedule_steps:
        raise ConfigError(f"timestep {t} outside [0, {cfg.schedule_steps})")
    if role not in ("plain", "recon", "edit"):
        raise ConfigError(f"unknown role {role!r}")
    if role in ("recon", "edit") and inj is None:
        inj = I.InjectionSettings()
    if role == "recon" and cache is None:
        raise ConfigError("reconstruction role needs a cache to write")
    if role == "edit" and inj.enabled and (cache is None or masks is None):
        raise ConfigError("editing role with injection needs cache and masks")
    cond = _OneForward(model) if cond is None else cond
    step = StepContext(t, z) if step is None else step
    if step.t != t:
        raise ConfigError(f"step context of t={step.t} handed to a forward at t={t}")
    if step.z is not z:
        raise ConfigError("step context built for another latent")

    def block(x: Tensor, lid: str) -> Tensor:
        cs_kv, temporal_kv = I.kv_hooks(role, lid, t, TOPOLOGY, BLOCK_LEVEL[lid],
                                        cache, masks, inj)
        return _unet_block(_opening(x, model, lid, role, cs_kv, step), model,
                           lid, prompt, temporal_kv, probe, cond)

    h0 = w0 = cfg.latent_size
    # enc0 is never gated, so its opening reads the latent and t alone and the
    # step's forwards share it
    if step.opening is None:
        x = T.matmul(_tokens_from_latent(z), model.params["unet.in_proj"])
        step.opening = _opening(x, model, "enc0", "plain", None, step)
    x = _unet_block(step.opening, model, "enc0", prompt, None, probe, cond)
    skip0 = x
    x = T.matmul(_pool2_tokens(x, h0, w0), model.params["unet.down_proj"])
    x = block(x, "enc1")
    skip1 = x
    x = block(x, "mid")
    x = _adapted(T.add(x, skip1), model, "dec1", step)
    x = block(x, "dec1")
    x = _upsample2_tokens(T.matmul(x, model.params["unet.up_proj"]),
                          h0 // 2, w0 // 2)
    x = _adapted(T.add(x, skip0), model, "dec0", step)
    x = block(x, "dec0")
    eps = T.add(T.matmul(x, model.params["unet.out_proj"]),
                model.params["unet.out_b"])
    return _latent_from_tokens(eps, cfg)


def _control_block(x: Tensor, model: ModelWeights, lid: str, t: int) -> Tensor:
    pre = f"control.{lid}"
    x = _conv_time_residual(x, model, pre, _time_row(model, pre, t))
    a_in = T.layer_norm(x, *model.ln(f"{pre}.ln_sp"))
    return T.add(x, A.attention(a_in, a_in, model.pset(f"{pre}.spatial")))


def pose_features(model: ModelWeights, skeletons: np.ndarray) -> dict[int, Tensor]:
    """Pose pyramid of a (F, H, W) skeleton stack, per U-Net level: (F, N_l,
    d_l), every frame in one pass.

    The pose encoder is frozen and a run's skeletons are fixed, so callers
    build this once and hand it to every controlnet_forward of the run.
    """
    cfg = model.cfg
    skeletons = np.asarray(skeletons, dtype=np.float32)
    want = (cfg.frames, cfg.image_size, cfg.image_size)
    if skeletons.shape != want:
        raise ConfigError(f"pose map stack {skeletons.shape} does not match "
                          f"(frames, image size, image size) {want}")
    p = model.params
    hs = cfg.latent_size
    # fixed stride-`pool` average pooling down to the latent grid
    g = T.reshape(Tensor(skeletons / 255.0), (cfg.frames, hs, cfg.pool, hs, cfg.pool))
    g = T.mean(g, axis=2)
    g = T.mean(g, axis=3)
    flat = T.reshape(g, (cfg.frames, hs * hs, 1))
    lvl0 = T.silu(T.add(T.matmul(flat, p["control.pose0.w"]), p["control.pose0.b"]))
    g1 = _pool2_tokens(lvl0, hs, hs)
    lvl1 = T.silu(T.add(T.matmul(g1, p["control.pose1.w"]), p["control.pose1.b"]))
    return {0: lvl0, 1: lvl1}


def controlnet_forward(model: ModelWeights, z: Tensor, t: int,
                       pose: dict[int, Tensor]) -> dict[str, Tensor]:
    """Per-block conditioning features from pose_features; zero at
    construction. Each call builds its blocks' time rows at ``t``.

    Returns one feature block per conditioned U-Net layer, shaped like that
    layer's activations.
    """
    cfg = model.cfg
    h0 = w0 = cfg.latent_size
    x = T.matmul(_tokens_from_latent(z), model.params["control.in_proj"])
    x = T.add(x, pose[0])
    x = _control_block(x, model, "c_enc0", t)
    f0 = x
    x = T.matmul(_pool2_tokens(x, h0, w0), model.params["control.down_proj"])
    x = T.add(x, pose[1])
    x = _control_block(x, model, "c_enc1", t)
    x = _control_block(x, model, "c_mid", t)
    return {
        "dec1": T.matmul(x, model.params["control.zero.dec1"]),
        "dec0": T.matmul(f0, model.params["control.zero.dec0"]),
    }


def control_sides(model: ModelWeights, z: Tensor, t: int,
                  pose: dict[int, Tensor]) -> dict[str, AD.ControlSide]:
    """Each controlled layer's adapter control side for the latent ``z`` at
    ``t``: the ControlNet forward on the pose pyramid ``pose``, then what
    the layer's adapter builds from its features alone. It reads nothing of
    the U-Net's stream, so it can run beside the U-Net's encoder."""
    feats = controlnet_forward(model, z, t, pose)
    return {lid: AD.control_side(feats[lid], _adapter_weights(model, lid))
            for lid in CONTROLLED_LAYERS}


def save_checkpoint(directory, model: ModelWeights) -> None:
    """Directory of MELT tensors plus a JSON manifest (shapes, topology,
    gating table). Writes are deterministic: same weights, same bytes."""
    import json
    import os

    os.makedirs(directory, exist_ok=True)
    manifest = {
        "config": asdict(model.cfg),
        "topology": TOPOLOGY,
        "gating": {lid: I.gate(lid, TOPOLOGY) for lid in BLOCK_ORDER},
        "tensors": {},
    }
    for name in sorted(model.params):
        fname = name.replace(".", "_") + ".melt"
        manifest["tensors"][name] = {
            "file": fname, "shape": list(model.params[name].shape)}
        T.save_tensor(os.path.join(directory, fname), model.params[name])
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def load_checkpoint(directory) -> ModelWeights:
    """Read a save_checkpoint directory; a manifest whose config, tensor
    names or shapes do not describe an init_model of that config raises
    ConfigError before any tensor file is read."""
    import json
    import os

    path = os.path.join(directory, "manifest.json")
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"{path}: manifest must be a JSON object")
    if not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"{path}: manifest needs a 'config' object")
    cfg = net_config(manifest["config"], f"{path}: config ")
    tensors = manifest.get("tensors")
    if not isinstance(tensors, dict):
        raise ConfigError(f"{path}: manifest needs a 'tensors' object")
    want = {name: list(shape) for name, shape in parameter_shapes(cfg).items()}
    if set(tensors) != set(want):
        raise ConfigError(f"{path}: tensor names differ from the model: "
                          f"missing {sorted(set(want) - set(tensors))}, "
                          f"unexpected {sorted(set(tensors) - set(want))}")
    for name, meta in tensors.items():
        if (not isinstance(meta, dict) or not isinstance(meta.get("file"), str)
                or meta.get("shape") != want[name]):
            raise ConfigError(f"{path}: tensor {name} entry {meta!r} does not "
                              f"name a file of shape {want[name]}")
    params = {}
    for name, meta in tensors.items():
        t = T.load_tensor(os.path.join(directory, meta["file"]))
        if list(t.shape) != meta["shape"]:
            raise ConfigError(f"checkpoint tensor {name} has shape "
                              f"{t.shape}, manifest says {meta['shape']}")
        params[name] = t
    return ModelWeights(cfg, params)


def encode_video(video: Tensor, cfg: NetConfig) -> Tensor:
    """Fixed average-pool toy encoder: (F,C,H,W) pixels -> latent grid."""
    want = (cfg.frames, cfg.channels, cfg.image_size, cfg.image_size)
    if video.shape != want:
        raise ConfigError(f"video shape {video.shape} does not match config {want}")
    f, c, h, w = want
    k = cfg.pool
    g = T.reshape(video, (f, c, h // k, k, w // k, k))
    g = T.mean(g, axis=3)
    g = T.mean(g, axis=4)
    return g
