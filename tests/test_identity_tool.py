"""The output-tree comparison of ``tools/identity.py``, on trees built here
(no git, no commands run)."""
import argparse
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from vidmotion import tensor as T
from vidmotion.config import load_config

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
import identity  # noqa: E402

LATENT = np.linspace(-2.0, 2.0, 24, dtype=np.float32).reshape(2, 3, 4)


def build_tree(root, latent=LATENT, losses=(0.5, 0.25), report=b'{"steps": 2}'):
    os.makedirs(os.path.join(root, "previews"))
    T.save_tensor(os.path.join(root, "edited.melt"), T.Tensor(latent))
    with open(os.path.join(root, "loss.csv"), "w") as fh:
        fh.write("step,loss\n" + "".join(f"{i},{v:.8f}\n" for i, v in enumerate(losses)))
    with open(os.path.join(root, "previews", "report.json"), "wb") as fh:
        fh.write(report)
    return str(root)


def nudged(rel):
    """LATENT with one value moved by ``rel`` of itself."""
    out = LATENT.copy()
    out[1, 2, 3] *= np.float32(1.0 + rel)
    return out


def test_identical_trees_match(tmp_path):
    base = build_tree(tmp_path / "a")
    assert identity.compare_trees(base, build_tree(tmp_path / "b")) == []


def test_flipped_byte_names_the_file(tmp_path):
    base = build_tree(tmp_path / "a")
    head = build_tree(tmp_path / "b", report=b'{"steps": 3}')
    found = identity.compare_trees(base, head, (1.0, 1.0))
    assert found == [identity.Finding(os.path.join("previews", "report.json"),
                                      False, "bytes differ")]


def test_missing_file_is_named(tmp_path):
    base = build_tree(tmp_path / "a")
    head = build_tree(tmp_path / "b")
    os.remove(os.path.join(head, "loss.csv"))
    shutil.copy(os.path.join(head, "edited.melt"), os.path.join(head, "extra.melt"))
    found = identity.compare_trees(base, head)
    assert [(f.path, f.ok, f.message) for f in found] == [
        ("extra.melt", False, "only under head"),
        ("loss.csv", False, "only under base")]


def test_float_within_tolerance(tmp_path):
    base = build_tree(tmp_path / "a")
    head = build_tree(tmp_path / "b", latent=nudged(1e-6))
    [strict] = identity.compare_trees(base, head)
    assert strict.path == "edited.melt" and not strict.ok
    assert strict.message.startswith("1 of 24 values differ; max abs gap ")
    [loose] = identity.compare_trees(base, head, (1e-5, 0.0))
    assert loose.ok and loose.message.startswith("within tolerance: 1 of 24")


def test_float_beyond_tolerance(tmp_path):
    base = build_tree(tmp_path / "a")
    head = build_tree(tmp_path / "b", latent=nudged(1e-3))
    [found] = identity.compare_trees(base, head, (1e-5, 0.0))
    assert found.path == "edited.melt" and not found.ok
    gap = abs(float(nudged(1e-3)[1, 2, 3]) - float(LATENT[1, 2, 3]))
    assert f"max abs gap {gap:.3g}" in found.message
    assert f"max rel gap {gap / abs(float(LATENT[1, 2, 3])):.3g}" in found.message


def test_loss_csv_gaps(tmp_path):
    base = build_tree(tmp_path / "a")
    head = build_tree(tmp_path / "b", losses=(0.5, 0.2500001))
    [found] = identity.compare_trees(base, head, (1e-5, 0.0))
    assert found.path == "loss.csv" and found.ok
    assert "max abs gap 1e-07, max rel gap 4e-07" in found.message
    [found] = identity.compare_trees(base, head, (1e-7, 0.0))
    assert not found.ok


def test_shape_change_is_not_a_gap(tmp_path):
    base = build_tree(tmp_path / "a")
    head = build_tree(tmp_path / "b", latent=LATENT.reshape(3, 2, 4))
    [found] = identity.compare_trees(base, head, (1.0, 1.0))
    assert not found.ok and found.message == "shape, header or text differs"


def test_nan_on_one_side_is_beyond_any_tolerance(tmp_path):
    base = build_tree(tmp_path / "a")
    bad = LATENT.copy()
    bad[0, 0, 0] = np.nan
    [found] = identity.compare_trees(base, build_tree(tmp_path / "b", latent=bad),
                                     (1.0, 1.0))
    assert not found.ok and "max abs gap inf" in found.message


@pytest.mark.parametrize("text", ["1e-5", "a,b", "1,2,3", "-1,0", "nan,0"])
def test_bad_tolerance_rejected(text):
    with pytest.raises(argparse.ArgumentTypeError):
        identity.parse_tolerance(text)


def test_tolerance_parsed():
    assert identity.parse_tolerance("1e-5,0") == (1e-5, 0.0)


def test_one_word_target_rewrites_only_the_target(tmp_path):
    config = {"seed": 2, "prompts": {"source": "a figure walking right",
                                     "target": "a figure marching right"},
              "sampler": {"steps": 50, "guidance": 7.5}}
    src = tmp_path / "config.json"
    src.write_text(json.dumps(config))
    out = identity.one_word_target(str(src), str(tmp_path / "one.json"))
    assert out == str(tmp_path / "one.json")
    with open(out) as fh:
        got = json.load(fh)
    config["prompts"]["target"] = "marching"
    assert got == config
    assert json.loads(src.read_text())["prompts"]["target"] == "a figure marching right"
    assert set(identity.CONFIGS) <= set(identity.COMMANDS)


@pytest.mark.parametrize("label,section,key,value", [
    ("edit-no-recon-control", "alignment", "control_on_recon", False),
    ("edit-half-window", "injection", "window_fraction", 0.5),
])
def test_setting_labels_change_one_field(tmp_path, label, section, key, value):
    config = {"seed": 2, "prompts": {"source": "a figure walking right",
                                     "target": "a figure marching right"},
              "sampler": {"steps": 50, "guidance": 7.5}}
    src = tmp_path / "config.json"
    src.write_text(json.dumps(config))
    out = identity.CONFIGS[label](str(src), str(tmp_path / "set.json"))
    assert identity.COMMANDS[label] == ("edit",)
    with open(out) as fh:
        got = json.load(fh)
    assert got == {**config, section: {key: value}}
    assert json.loads(src.read_text()) == config
    loaded = load_config(out)
    assert (loaded.control_on_recon if section == "alignment"
            else loaded.injection.window_fraction) == value


def test_every_seed_runs_every_label():
    assert len(identity.SEEDS) * len(identity.COMMANDS) == 36


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_one_cpu_label_runs_edit_without_the_worker():
    assert identity.COMMANDS["edit-one-cpu"] == ("edit",)
    assert set(identity.PREEXEC) <= set(identity.COMMANDS)
    code = ("import os\n"
            "from vidmotion import cli, pipeline as P\n"
            "cli._one_blas_thread()\n"
            "print(len(os.sched_getaffinity(0)), P._fork_worker())\n")
    src = os.path.join(identity.ROOT, "src")
    proc = subprocess.run([sys.executable, "-c", code], timeout=60,
                          env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=identity.PREEXEC["edit-one-cpu"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]
