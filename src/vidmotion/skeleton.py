"""Skeleton signal alignment and keypoint rasterization.

Alignment is resize-then-translate: the reference protagonist's crop is
rescaled to the source bbox height (aspect preserved), pasted onto a zero
canvas anchored at the source bbox, and finally translated so the pasted
centroid matches the source centroid.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np


class EmptyMaskError(ValueError):
    """Mask contains no foreground pixels."""


class RasterError(ValueError):
    """Raster dimensions disagree or are degenerate."""


class KeypointError(ValueError):
    """Too few usable joints to draw a skeleton."""


@dataclass
class BBox:
    x: int
    y: int
    w: int
    h: int

    def as_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "w": self.w, "h": self.h}


def bounding_rect(mask: np.ndarray) -> BBox:
    """Tightest axis-aligned box containing all foreground pixels."""
    mask = np.asarray(mask)
    ys, xs = np.nonzero(mask)
    if xs.size == 0:
        raise EmptyMaskError("mask has no foreground pixels")
    x0, x1 = int(xs.min()), int(xs.max())
    y0, y1 = int(ys.min()), int(ys.max())
    return BBox(x0, y0, x1 - x0 + 1, y1 - y0 + 1)


def foreground_center(mask: np.ndarray) -> tuple[float, float]:
    """Mean (x, y) of the foreground pixel coordinates."""
    ys, xs = np.nonzero(np.asarray(mask))
    if xs.size == 0:
        raise EmptyMaskError("mask has no foreground pixels")
    return float(xs.mean()), float(ys.mean())


def _round_half_up(v: float) -> int:
    return int(math.floor(v + 0.5))


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-centered bilinear resize; exact identity at scale 1."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bot = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bot * wy


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-centered nearest resize of the last two axes of a raster or
    a stack of rasters."""
    img = np.asarray(img)
    h, w = img.shape[-2:]
    rows = np.clip(((np.arange(out_h) + 0.5) * h / out_h).astype(int), 0, h - 1)
    cols = np.clip(((np.arange(out_w) + 0.5) * w / out_w).astype(int), 0, w - 1)
    return img[..., rows[:, None], cols]


def translate(img: np.ndarray, dx: float, dy: float, nearest: bool) -> np.ndarray:
    """Shift by (dx, dy) pixels; reads outside the frame are zero."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    ys = np.arange(h)[:, None] - dy
    xs = np.arange(w)[None, :] - dx
    if nearest:
        yi = np.floor(ys + 0.5).astype(int)
        xi = np.floor(xs + 0.5).astype(int)
        valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        out = np.zeros_like(img)
        out[valid] = img[yi.clip(0, h - 1), xi.clip(0, w - 1)][valid]
        return out
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    wy = ys - y0
    wx = xs - x0
    out = np.zeros_like(img)
    for oy, corner_wy in ((0, 1 - wy), (1, wy)):
        for ox, corner_wx in ((0, 1 - wx), (1, wx)):
            yy = y0 + oy
            xx = x0 + ox
            valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            weight = corner_wy * corner_wx
            out[valid] += weight[valid] * img[yy.clip(0, h - 1), xx.clip(0, w - 1)][valid]
    return out


@dataclass
class AlignResult:
    skeleton: np.ndarray  # the aligned target skeleton raster
    mask: np.ndarray      # the reference mask carried through the same warp
    report: dict = field(default_factory=dict)


def align(s_sr: np.ndarray, m_sr: np.ndarray,
          s_rf: np.ndarray, m_rf: np.ndarray) -> AlignResult:
    """Rescale and re-anchor the reference skeleton onto the source protagonist.

    Steps: crop the reference at its bbox; resize to (source bbox height,
    round(aspect * height)); paste onto a zero canvas at the source bbox
    (right-aligned when the resized width overflows, clamped at column 0);
    translate by the centroid difference computed on the pasted mask.
    """
    rasters = [np.asarray(r) for r in (s_sr, m_sr, s_rf, m_rf)]
    shapes = {r.shape for r in rasters}
    if len(shapes) != 1 or rasters[0].ndim != 2:
        raise RasterError(f"all four rasters must share 2-D dimensions, got {shapes}")
    s_sr, m_sr, s_rf, m_rf = rasters
    height, width = s_sr.shape

    try:
        box_s = bounding_rect(m_sr)
    except EmptyMaskError:
        raise EmptyMaskError("source mask has no foreground pixels") from None
    try:
        box_r = bounding_rect(m_rf)
    except EmptyMaskError:
        raise EmptyMaskError("reference mask has no foreground pixels") from None
    if box_s.w <= 0 or box_s.h <= 0 or box_r.w <= 0 or box_r.h <= 0:
        raise RasterError("degenerate zero-area bounding box")

    ratio = box_r.w / float(box_r.h)
    w_star = _round_half_up(ratio * box_s.h)
    crop_s = s_rf[box_r.y:box_r.y + box_r.h, box_r.x:box_r.x + box_r.w]
    crop_m = m_rf[box_r.y:box_r.y + box_r.h, box_r.x:box_r.x + box_r.w]
    patch_s = resize_bilinear(crop_s, box_s.h, w_star)
    patch_m = resize_nearest(crop_m, box_s.h, w_star)

    canvas_s = np.zeros_like(s_sr, dtype=np.float64)
    canvas_m = np.zeros_like(m_sr, dtype=np.float64)
    clipped = False
    if w_star < box_s.w:
        x0 = box_s.x
    else:
        x0 = box_s.x - (w_star - box_s.w)
        if x0 < 0:
            warnings.warn(f"aligned skeleton overflows the left edge by {-x0} "
                          f"columns; cropping", stacklevel=2)
            patch_s = patch_s[:, -x0:]
            patch_m = patch_m[:, -x0:]
            clipped = True
            x0 = 0
    x1 = x0 + patch_s.shape[1]
    canvas_s[box_s.y:box_s.y + box_s.h, x0:x1] = patch_s
    canvas_m[box_s.y:box_s.y + box_s.h, x0:x1] = patch_m

    center_s = foreground_center(m_sr)
    try:
        center_r = foreground_center(canvas_m)
    except EmptyMaskError:
        raise EmptyMaskError("reference mask vanished during resize") from None
    dx = center_s[0] - center_r[0]
    dy = center_s[1] - center_r[1]

    out_s = translate(canvas_s, dx, dy, nearest=False)
    out_m = translate(canvas_m, dx, dy, nearest=True)
    report = {
        "bbox_source": box_s.as_dict(),
        "bbox_reference": box_r.as_dict(),
        "ratio": ratio,
        "scale": box_s.h / float(box_r.h),
        "w_star": w_star,
        "offset": [box_s.x - box_r.x, box_s.y - box_r.y],
        "v_trans": [dx, dy],
        "clipped": clipped,
    }
    return AlignResult(out_s, out_m, report)


# ---------------------------------------------------------------------------
# keypoints and rasterization

DEFAULT_BONES: list[tuple[str, str]] = [
    ("nose", "neck"),
    ("neck", "r_shoulder"), ("r_shoulder", "r_elbow"), ("r_elbow", "r_wrist"),
    ("neck", "l_shoulder"), ("l_shoulder", "l_elbow"), ("l_elbow", "l_wrist"),
    ("neck", "r_hip"), ("r_hip", "r_knee"), ("r_knee", "r_ankle"),
    ("neck", "l_hip"), ("l_hip", "l_knee"), ("l_knee", "l_ankle"),
    ("nose", "r_eye"), ("r_eye", "r_ear"),
    ("nose", "l_eye"), ("l_eye", "l_ear"),
]


def render_keypoints(joints: dict[str, tuple[float, float, float]],
                     height: int, width: int,
                     bones: list[tuple[str, str]] | None = None) -> np.ndarray:
    """Rasterize bones as anti-aliased 2-px segments into a uint8 map.

    A joint with confidence <= 0 is treated as missing; present joints must
    lie inside the image. Raises when fewer than two joints are present or no
    bone spans two distinct present joints.
    """
    bones = DEFAULT_BONES if bones is None else bones
    present: dict[str, tuple[float, float]] = {}
    for name, (x, y, conf) in joints.items():
        if conf <= 0:
            continue
        if not (0 <= x < width and 0 <= y < height):
            raise KeypointError(f"joint {name!r} at ({x}, {y}) outside "
                                f"{width}x{height} image")
        present[name] = (float(x), float(y))
    if len(present) < 2:
        raise KeypointError(f"need at least 2 present joints, got {len(present)}")

    canvas = np.zeros((height, width), dtype=np.float64)
    drawn = 0
    for a, b in bones:
        if a not in present or b not in present:
            continue
        (x0, y0), (x1, y1) = present[a], present[b]
        if x0 == x1 and y0 == y1:
            continue
        drawn += 1
        lo_x = max(0, int(math.floor(min(x0, x1) - 2)))
        hi_x = min(width - 1, int(math.ceil(max(x0, x1) + 2)))
        lo_y = max(0, int(math.floor(min(y0, y1) - 2)))
        hi_y = min(height - 1, int(math.ceil(max(y0, y1) + 2)))
        yy, xx = np.mgrid[lo_y:hi_y + 1, lo_x:hi_x + 1]
        vx, vy = x1 - x0, y1 - y0
        length_sq = vx * vx + vy * vy
        t = ((xx - x0) * vx + (yy - y0) * vy) / length_sq
        t = np.clip(t, 0.0, 1.0)
        dist = np.hypot(xx - (x0 + t * vx), yy - (y0 + t * vy))
        cov = np.clip(1.5 - dist, 0.0, 1.0)  # solid inside the 2-px core
        region = canvas[lo_y:hi_y + 1, lo_x:hi_x + 1]
        np.maximum(region, cov, out=region)
    if drawn == 0:
        raise KeypointError("no bone spans two distinct present joints")
    return np.floor(canvas * 255.0 + 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# file format: binary PGM (P5) rasters


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.dtype != np.uint8:
        img = np.clip(np.round(img), 0, 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    """Binary (P5) 8-bit PGM; a malformed file raises RasterError naming the
    path and the byte offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"P5":
        raise RasterError(f"{path}: not a binary PGM (P5) file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token:
            raise RasterError(f"{path}: PGM header truncated at byte {start}")
        if not token.isdigit():
            raise RasterError(f"{path}: PGM header field {token!r} at byte "
                              f"{start} is not a decimal integer")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise RasterError(f"{path}: unsupported maxval {maxval}")
    if w < 1 or h < 1:
        raise RasterError(f"{path}: PGM size {w}x{h} is empty")
    if len(raw) < pos + h * w:
        raise RasterError(f"{path}: PGM payload truncated at byte {len(raw)}: "
                          f"{w}x{h} needs {pos + h * w} bytes")
    data = np.frombuffer(raw, dtype=np.uint8, count=h * w, offset=pos)
    return data.reshape(h, w).copy()


def write_mask_pgm(path, mask01: np.ndarray) -> None:
    write_pgm(path, np.asarray(mask01) * 255)


def read_mask_pgm(path) -> np.ndarray:
    return (read_pgm(path) >= 128).astype(np.float32)
