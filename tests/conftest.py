"""Shared synthetic fixtures: an 8-frame toy job and a one-shot-trained model.

The training run follows the pinned protocol (300 steps, constant lr 3e-5)
and is session-scoped so the pipeline tests and the acceptance suite share
one run.
"""
import numpy as np
import pytest

from vidmotion import diffusion as D
from vidmotion import injection as I
from vidmotion import network as N
from vidmotion import pipeline as P
from vidmotion import skeleton as SK
from vidmotion import tensor as T

FIXTURE_SEED = 1234


def _moving_joints(frame, frames):
    phase = frame / max(frames - 1, 1)
    hip_x = 12 + 8 * phase
    return {
        "head": (hip_x, 6.0, 1.0),
        "hip": (hip_x, 16.0, 1.0),
        "l_foot": (hip_x - 4 - 2 * phase, 26.0, 1.0),
        "r_foot": (hip_x + 4 + 2 * phase, 26.0, 1.0),
    }


_BONES = [("head", "hip"), ("hip", "l_foot"), ("hip", "r_foot")]


def synth_skeletons(frames=8, size=32, shift=0.0):
    out = []
    for f in range(frames):
        joints = {k: (x + shift, y + shift, c)
                  for k, (x, y, c) in _moving_joints(f, frames).items()}
        out.append(SK.render_keypoints(joints, size, size, _BONES))
    return np.stack(out).astype(np.float32)


def synth_masks(frames=8, size=32, shift=0.0):
    """Solid protagonist boxes: each frame's skeleton bbox plus margin."""
    skeletons = synth_skeletons(frames, size, shift=shift)
    masks = np.zeros((frames, size, size), dtype=np.float32)
    for f in range(frames):
        ys, xs = np.nonzero(skeletons[f])
        y0, y1 = max(ys.min() - 2, 0), min(ys.max() + 3, size)
        x0, x1 = max(xs.min() - 2, 0), min(xs.max() + 3, size)
        masks[f, y0:y1, x0:x1] = 1.0
    return masks


def synth_video(frames=8, size=32, channels=4, seed=FIXTURE_SEED):
    gen = np.random.default_rng(seed)
    base = gen.normal(0, 0.6, (channels, size, size)).astype(np.float32)
    frames_out = []
    for f in range(frames):
        drift = gen.normal(0, 0.05, base.shape).astype(np.float32)
        frames_out.append(np.roll(base, f, axis=2) + drift)
    return T.Tensor(np.stack(frames_out))


def make_job(**overrides):
    defaults = dict(
        video=synth_video(),
        source_masks=synth_masks(),
        source_skeletons=synth_skeletons(),
        ref_skeletons=synth_skeletons(shift=3.0),
        ref_masks=synth_masks(shift=3),
        prompt_source="a figure walking right",
        prompt_target="a figure marching right",
        steps=6,
        guidance=1.0,
        injection=I.InjectionSettings(),
        align_first_frame_only=False,
        control_on_recon=True,
    )
    defaults.update(overrides)
    return P.EditJob(**defaults)


@pytest.fixture(scope="session")
def net_config():
    return N.NetConfig()


@pytest.fixture(scope="session")
def schedule(net_config):
    return D.make_schedule(net_config.schedule_steps)


@pytest.fixture(scope="session")
def base_model(net_config):
    return N.init_model(net_config, seed=FIXTURE_SEED)


@pytest.fixture(scope="session")
def training_run(base_model, schedule):
    """The pinned one-shot protocol: 300 steps, constant lr 3e-5."""
    return P.one_shot_train(base_model, synth_video(), synth_skeletons(),
                            "a figure walking right", steps=300, lr=3e-5,
                            schedule=schedule, rng=T.Rng(FIXTURE_SEED))
