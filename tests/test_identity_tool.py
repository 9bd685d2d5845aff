"""The output-tree comparison of ``tools/identity.py``, on trees built here
(no git, no commands run)."""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from test_cli import make_job_dir
from vidmotion import cli
from vidmotion import pipeline as P
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
    assert getattr(getattr(loaded, section), key) == value


def test_one_word_train_label_rewrites_only_the_source(tmp_path):
    config = {"seed": 2, "prompts": {"source": "a figure walking right",
                                     "target": "a figure marching right"},
              "sampler": {"steps": 50, "guidance": 7.5}}
    src = tmp_path / "config.json"
    src.write_text(json.dumps(config))
    out = identity.CONFIGS["train-one-word"](str(src), str(tmp_path / "one.json"))
    assert identity.COMMANDS["train-one-word"] == ("train",)
    with open(out) as fh:
        got = json.load(fh)
    config["prompts"]["source"] = "walking"
    assert got == config
    assert load_config(out).prompts.source == "walking"


def test_no_checkpoint_label_drops_only_the_checkpoint(tmp_path):
    config = {"seed": 2, "prompts": {"source": "a figure walking right"},
              "paths": {"source_video": "video.melt", "checkpoint": "checkpoint"}}
    src = tmp_path / "config.json"
    src.write_text(json.dumps(config))
    out = identity.CONFIGS["train-no-checkpoint"](str(src), str(tmp_path / "no.json"))
    assert identity.COMMANDS["train-no-checkpoint"] == ("train",)
    with open(out) as fh:
        got = json.load(fh)
    assert got == {**config, "paths": {"source_video": "video.melt"}}
    assert json.loads(src.read_text()) == config
    assert load_config(out).paths == {"source_video": "video.melt"}


def test_numstat_totals_sum_every_text_file():
    numstat = ("29\t41\tsrc/vidmotion/pipeline.py\n"
               "3\t0\tsrc/vidmotion/diffusion.py\n"
               "-\t-\tsrc/vidmotion/blob.bin\n"
               "0\t7\tsrc/vidmotion/network.py\n")
    assert identity.numstat_totals(numstat) == (32, 48)
    assert identity.numstat_totals("") == (0, 0)


SELFTEST_RUN = ("PASS  gradient-primitives        0.01s  worst relative error 1.11e-04\n"
                "FAIL  gradient-adapter           0.24s  failing: ['adapter.conv1']\n"
                "FAILED: 1 failure(s), 0.4s total\n")


def test_timeless_drops_only_the_seconds():
    slower = (SELFTEST_RUN.replace(" 0.01s", "12.50s").replace("0.24s", "1.00s")
              .replace("0.4s total", "13.9s total"))
    assert identity.timeless(SELFTEST_RUN) == identity.timeless(slower) == [
        "PASS  gradient-primitives  worst relative error 1.11e-04",
        "FAIL  gradient-adapter  failing: ['adapter.conv1']",
        "FAILED: 1 failure(s)"]
    # what a row reports is kept
    assert (identity.timeless(SELFTEST_RUN.replace("1.11e-04", "1.12e-04"))
            != identity.timeless(SELFTEST_RUN))


def test_timeless_drops_every_time_of_a_real_selftest(capsys):
    assert cli.main(["selftest"]) == 0
    lines = identity.timeless(capsys.readouterr().out)
    assert len(lines) == 16 and lines[-1] == "OK: 0 failure(s)"
    assert not [line for line in lines if re.search(r"\d\.\d+s\b", line)]


def test_every_seed_runs_every_label():
    assert len(identity.SEEDS) * len(identity.COMMANDS) == 42


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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
@pytest.mark.parametrize("command", [("edit", "--drop-masked-tokens"), ("train",)],
                         ids=["edit", "train"])
def test_op_count_sees_every_op_of_the_in_process_job(tmp_path, monkeypatch, command):
    _, cfg = make_job_dir(tmp_path, config_extra={
        "training": {"steps": 2, "lr": 3e-5}, "sampler": {"steps": 2, "guidance": 7.5}})
    argv = [*command, "--config", str(cfg)]
    src = os.path.join(identity.ROOT, "src")
    got = identity.op_count(src, [*argv, "--out", str(tmp_path / "child")])
    # the same job in this process, with its step worker kept in-process
    ops, result = [0], T._result

    def counted(*args, **kwargs):
        ops[0] += 1
        return result(*args, **kwargs)
    monkeypatch.setattr(T, "_result", counted)
    monkeypatch.setattr(P, "_fork_worker", lambda: False)
    assert cli.main([*argv, "--out", str(tmp_path / "here")]) == 0
    assert got == ops[0] > 0
    assert identity.op_count(src, [*command, "--config", str(tmp_path / "none.json"),
                                   "--out", str(tmp_path / "failed")]) is None


def test_op_line_shows_both_sides_and_the_change():
    assert identity.op_line("edit", {"base": 66571, "head": 66570}) == (
        "tensor ops, one in-process seed-1 edit: 66,571 -> 66,570 (-1)")
    assert identity.op_line("train", {"base": 18577, "head": None}) == (
        "tensor ops, one in-process seed-1 train: 18,577 -> failed")
    assert set(identity.OP_COUNTED) <= set(identity.COMMANDS)
