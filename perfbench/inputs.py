"""Seeded synthetic inputs for the benchmark: one 8-frame 32x32 edit job.

The same seed gives the same bytes. The program receives only the files this
writes: the source video (MELT), source and reference skeleton and mask PGMs,
a config JSON and an ``init_model`` checkpoint. Shapes and token counts do
not depend on the seed, so every seed costs the program the same work.

Run as a script to write one seed's inputs (this is the timed set-up step):

    python3 perfbench/inputs.py --seed 3 --out DIR
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

FRAMES, SIZE, CHANNELS = 8, 32, 4
TRAIN_STEPS, TRAIN_LR = 50, 3e-5
SAMPLER_STEPS, GUIDANCE = 50, 7.5
BONES = [("head", "hip"), ("hip", "l_foot"), ("hip", "r_foot"),
         ("hip", "l_hand"), ("hip", "r_hand")]
# four tokens each, so the text cross-attention has the same shape per seed
SOURCE_WORDS = ("walking", "strolling", "moving", "pacing")
TARGET_WORDS = ("marching", "dancing", "skipping", "striding")


def _joints(frame: int, hip_x0: float, speed: float, spread: float,
            dx: float, dy: float) -> dict[str, tuple[float, float, float]]:
    phase = frame / (FRAMES - 1)
    hip_x = hip_x0 + speed * phase + dx
    hip_y = 16.0 + dy
    swing = spread + 2.0 * phase
    return {
        "head": (hip_x, hip_y - 9.0, 1.0),
        "hip": (hip_x, hip_y, 1.0),
        "l_foot": (hip_x - swing, hip_y + 9.0, 1.0),
        "r_foot": (hip_x + swing, hip_y + 9.0, 1.0),
        "l_hand": (hip_x - 4.0, hip_y - 4.0 + phase, 1.0),
        "r_hand": (hip_x + 4.0, hip_y - 4.0 - phase, 1.0),
    }


def _skeletons_and_masks(render, shape_params, dx, dy):
    """Rendered skeletons and their bounding-box masks (plus a margin)."""
    skeletons = np.stack([render(_joints(f, *shape_params, dx, dy), SIZE, SIZE, BONES)
                          for f in range(FRAMES)])
    masks = np.zeros((FRAMES, SIZE, SIZE), dtype=np.uint8)
    for f in range(FRAMES):
        ys, xs = np.nonzero(skeletons[f])
        masks[f, max(ys.min() - 2, 0):min(ys.max() + 3, SIZE),
              max(xs.min() - 2, 0):min(xs.max() + 3, SIZE)] = 255
    return skeletons, masks


def write_inputs(seed: int, out_dir: str) -> str:
    """Write every input of ``seed`` under ``out_dir``; return the config path."""
    from vidmotion import network as N
    from vidmotion import skeleton as SK
    from vidmotion import tensor as T

    gen = np.random.default_rng(seed)
    # joints stay inside the 32x32 frame for every draw, shift included
    shape_params = (float(gen.uniform(9.0, 12.0)), float(gen.uniform(3.0, 6.0)),
                    float(gen.uniform(3.0, 4.0)))
    ref_shift = (float(gen.uniform(1.0, 3.0)), float(gen.uniform(-2.0, 2.0)))
    base = gen.normal(0.0, 0.6, (CHANNELS, SIZE, SIZE)).astype(np.float32)
    video = np.stack([np.roll(base, f, axis=2)
                      + gen.normal(0.0, 0.05, base.shape).astype(np.float32)
                      for f in range(FRAMES)])
    words = (SOURCE_WORDS[int(gen.integers(len(SOURCE_WORDS)))],
             TARGET_WORDS[int(gen.integers(len(TARGET_WORDS)))])

    os.makedirs(out_dir, exist_ok=True)
    paths = {"source_video": os.path.join(out_dir, "video.melt"),
             "checkpoint": os.path.join(out_dir, "checkpoint")}
    T.save_tensor(paths["source_video"], T.Tensor(video))
    src = _skeletons_and_masks(SK.render_keypoints, shape_params, 0.0, 0.0)
    ref = _skeletons_and_masks(SK.render_keypoints, shape_params, *ref_shift)
    for key, frames in (("source_skeletons", src[0]), ("source_masks", src[1]),
                        ("ref_skeletons", ref[0]), ("ref_masks", ref[1])):
        paths[key] = os.path.join(out_dir, key)
        os.makedirs(paths[key], exist_ok=True)
        for i, raster in enumerate(frames):
            SK.write_pgm(os.path.join(paths[key], f"frame_{i:03d}.pgm"), raster)
    N.save_checkpoint(paths["checkpoint"], N.init_model(N.NetConfig(), seed=seed))

    config = {
        "seed": seed,
        "training": {"steps": TRAIN_STEPS, "lr": TRAIN_LR},
        "sampler": {"steps": SAMPLER_STEPS, "guidance": GUIDANCE},
        "prompts": {"source": f"a figure {words[0]} right",
                    "target": f"a figure {words[1]} right"},
        "paths": paths,
    }
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    return config_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    write_inputs(args.seed, os.path.abspath(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
