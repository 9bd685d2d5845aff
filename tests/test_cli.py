import contextlib
import errno
import importlib
import io
import json
import math
import os
import pathlib
import pkgutil
import string
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import synth_masks, synth_skeletons, synth_video
from vidmotion import cli
from vidmotion import injection as I
from vidmotion import network as N
from vidmotion import pipeline as P
from vidmotion import skeleton as SK
from vidmotion import tensor as T
from vidmotion.cli import main
from vidmotion.pipeline import frame_metrics


def write_frames(directory, rasters, binary=False):
    os.makedirs(directory, exist_ok=True)
    for i, r in enumerate(rasters):
        path = os.path.join(directory, f"frame_{i:03d}.pgm")
        if binary:
            SK.write_mask_pgm(path, r)
        else:
            SK.write_pgm(path, r)


def make_job_dir(tmp_path, *, ref_shift=3.0, config_extra=None, checkpoint=None):
    root = tmp_path / "job"
    root.mkdir(exist_ok=True)
    T.save_tensor(root / "video.melt", synth_video())
    write_frames(root / "src_skeletons", synth_skeletons())
    write_frames(root / "src_masks", synth_masks(), binary=True)
    write_frames(root / "ref_skeletons", synth_skeletons(shift=ref_shift))
    write_frames(root / "ref_masks", synth_masks(shift=ref_shift), binary=True)
    blob = {
        "seed": 7,
        "training": {"steps": 20, "lr": 3e-5},
        "sampler": {"steps": 3, "guidance": 1.0},
        "prompts": {"source": "figure walking", "target": "figure marching"},
        "paths": {
            "source_video": str(root / "video.melt"),
            "source_masks": str(root / "src_masks"),
            "source_skeletons": str(root / "src_skeletons"),
            "ref_skeletons": str(root / "ref_skeletons"),
            "ref_masks": str(root / "ref_masks"),
        },
    }
    if config_extra:
        blob.update(config_extra)
    if checkpoint is not None:
        blob["paths"]["checkpoint"] = str(checkpoint)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(blob, indent=1))
    return root, cfg_path


def assert_one_line_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err, err


def listing(root):
    """Every entry under ``root``, links not followed: a file's bytes, a
    link's target, or "dir"."""
    out = {}
    for dirpath, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = (
                "link:" + os.readlink(path) if os.path.islink(path)
                else "dir" if os.path.isdir(path) else open(path, "rb").read())
    return out


def staged(directory):
    """The staging directories left in ``directory``."""
    return [n for n in os.listdir(directory) if ".partial-" in n]


def make_out_fixtures(where):
    """Beside each other: a file, an empty and a non-empty directory, links
    to each, a dangling link and a link to itself."""
    (where / "f").write_text("kept")
    (where / "d").mkdir()
    (where / "full").mkdir()
    (where / "full" / "kept").write_text("kept")
    for link, target in (("lf", "f"), ("ld", "full"), ("dl", "nowhere"),
                         ("loop", "loop")):
        (where / link).symlink_to(target)


def tree_bytes(directory):
    out = {}
    for dirpath, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, directory)] = open(path, "rb").read()
    return out


class TestAlignCommand:
    def test_identity_square_fixture_reports_ratio_one(self, tmp_path):
        mask = np.zeros((32, 32), dtype=np.float32)
        mask[8:24, 10:26] = 1.0  # square bbox
        skel = np.zeros((32, 32), dtype=np.float32)
        skel[12:20, 12:20] = 200.0
        root = tmp_path / "idjob"
        root.mkdir()
        for sub in ("sk", "m"):
            write_frames(root / f"src_{sub}", [skel if sub == "sk" else mask] * 2,
                         binary=(sub == "m"))
            write_frames(root / f"ref_{sub}", [skel if sub == "sk" else mask] * 2,
                         binary=(sub == "m"))
        cfg = root / "c.json"
        cfg.write_text(json.dumps({"paths": {
            "source_skeletons": str(root / "src_sk"),
            "source_masks": str(root / "src_m"),
            "ref_skeletons": str(root / "ref_sk"),
            "ref_masks": str(root / "ref_m")}}))
        out = tmp_path / "out"
        assert main(["align", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "align_report.json").read_text())
        assert len(report) == 2
        for entry in report:
            assert entry["ratio"] == 1.0
            assert entry["offset"] == [0, 0]
            assert entry["v_trans"] == [0.0, 0.0]
        aligned = SK.read_pgm(out / "aligned_000.pgm")
        np.testing.assert_array_equal(aligned, skel.astype(np.uint8))

    def test_translation_fixture_reports_offset(self, tmp_path):
        mask = np.zeros((32, 32), dtype=np.float32)
        mask[4:18, 5:19] = 1.0
        skel = np.zeros((32, 32), dtype=np.float32)
        skel[6:10, 7:15] = 150.0
        root = tmp_path / "trjob"
        root.mkdir()
        write_frames(root / "src_sk", [skel])
        write_frames(root / "src_m", [mask], binary=True)
        write_frames(root / "ref_sk", [np.roll(skel, (6, 6), (0, 1))])
        write_frames(root / "ref_m", [np.roll(mask, (6, 6), (0, 1))], binary=True)
        cfg = root / "c.json"
        cfg.write_text(json.dumps({"paths": {
            "source_skeletons": str(root / "src_sk"),
            "source_masks": str(root / "src_m"),
            "ref_skeletons": str(root / "ref_sk"),
            "ref_masks": str(root / "ref_m")}}))
        out = tmp_path / "out"
        assert main(["align", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "align_report.json").read_text())
        assert report[0]["offset"] == [-6, -6]

    def test_missing_mask_dir_exits_2_with_path(self, tmp_path, capsys):
        root, cfg = make_job_dir(tmp_path)
        blob = json.loads(cfg.read_text())
        blob["paths"]["source_masks"] = str(root / "nope")
        cfg.write_text(json.dumps(blob))
        assert main(["align", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("raw,needle", [
        (b"P5\n32 32\n255\n", "truncated at byte 13"),
        (b"P5\n32 x2\n255\n", "at byte 6"),
        (b"P5\n32 32", "truncated at byte 8"),
    ], ids=["header-only", "non-numeric-field", "short-header"])
    def test_malformed_pgm_exits_2_with_one_line(self, tmp_path, capsys,
                                                 raw, needle):
        root, cfg = make_job_dir(tmp_path)
        (root / "src_skeletons" / "frame_003.pgm").write_bytes(raw)
        assert main(["align", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys, "frame_003.pgm", needle)

    def test_first_frame_only_writes_what_edit_uses(self, tmp_path):
        _, cfg = make_job_dir(
            tmp_path, config_extra={"alignment": {"first_frame_only": True}})
        out_align = tmp_path / "align"
        out_edit = tmp_path / "edit"
        assert main(["align", "--config", str(cfg), "--out", str(out_align)]) == 0
        assert main(["edit", "--config", str(cfg), "--out", str(out_edit),
                     "--steps", "1"]) == 0
        for i in range(8):
            assert ((out_align / f"aligned_{i:03d}.pgm").read_bytes()
                    == (out_edit / "aligned" / f"frame_{i:03d}.pgm").read_bytes())


class TestTrainCommand:
    def test_writes_loss_csv_and_checkpoint(self, tmp_path):
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 21
        float(lines[1].split(",")[1])
        assert (out / "checkpoint" / "manifest.json").exists()

    def test_rerun_gives_byte_identical_checkpoints(self, tmp_path):
        _, cfg = make_job_dir(tmp_path)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["train", "--config", str(cfg), "--out",
                         str(out), "--steps", "6"]) == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    def test_summary_windows_do_not_overlap(self, tmp_path, capsys):
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--steps", "6"]) == 0
        losses = [float(line.split(",")[1]) for line in
                  (out / "loss.csv").read_text().strip().splitlines()[1:]]
        assert len(losses) == 6
        assert capsys.readouterr().out.strip().splitlines()[-1] == (
            f"trained 6 steps: first-3 mean {np.mean(losses[:3]):.4f}, "
            f"last-3 mean {np.mean(losses[3:]):.4f}")

    def test_diverging_run_exits_1_naming_the_step(self, tmp_path, capsys):
        # lr 1e30 leaves finite ~1e30 weights after step 1, whose forward
        # overflows in step 2
        _, cfg = make_job_dir(tmp_path, config_extra={
            "training": {"steps": 20, "lr": 1e30}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", str(cfg), "--out", str(out),
                         "--steps", "5"]) == 1
        assert_one_line_error(capsys, "error: non-finite value in train step 2/5 (t=")
        assert not out.exists()

    def test_starts_from_the_config_checkpoint(self, tmp_path):
        # a checkpoint of another seed than the config's, trained 0 steps
        ckpt = tmp_path / "ckpt"
        N.save_checkpoint(ckpt, N.init_model(N.NetConfig(), seed=11))
        _, cfg = make_job_dir(tmp_path, checkpoint=ckpt)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--steps", "0"]) == 0
        assert tree_bytes(out / "checkpoint") == tree_bytes(ckpt)

    def test_checkpoint_round_trips_through_loader(self, tmp_path):
        from vidmotion import network as N
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--steps", "2"]) == 0
        model = N.load_checkpoint(out / "checkpoint")
        assert model.cfg.frames == 8
        assert "unet.enc0.cs.w_q" in model.params


def misplaced_tensor(case, ckpt, raw):
    """Write a tensor's MELT bytes ``raw`` where ``case`` puts them, and
    return the manifest's file entry for them."""
    outside = ckpt.parent / "outside.melt"
    if case in ("parent-dir", "absolute"):
        outside.write_bytes(raw)
        return "../outside.melt" if case == "parent-dir" else str(outside)
    if case == "subdirectory":
        (ckpt / "sub").mkdir()
        (ckpt / "sub" / "t.melt").write_bytes(raw)
        return "sub/t.melt"
    (ckpt / "unet_out_b.melt").write_bytes(raw + bytes(4))
    return "unet_out_b.melt"


class TestEditCommand:
    def test_full_edit_writes_artifacts(self, tmp_path):
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "out"
        assert main(["edit", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "edited.melt").exists()
        assert (out / "reconstructed.melt").exists()
        assert (out / "aligned" / "frame_000.pgm").exists()
        assert (out / "edited_previews" / "frame_007.pgm").exists()
        report = json.loads((out / "edit_report.json").read_text())
        assert report["cache"]["reads_cs"] > 0
        assert report["cache"]["peak_bytes"] == 589_824
        assert len(report["align"]) == 8
        edited = T.load_tensor(out / "edited.melt")
        assert np.isfinite(edited.data).all()

    @pytest.mark.parametrize("guidance,where", [("1e38", "step 1/3 (t=999)"),
                                                ("1e30", "step 2/3 (t=665)")])
    def test_non_finite_value_exits_1_naming_the_step(self, tmp_path, capsys,
                                                      guidance, where):
        # 1e38 overflows in the guidance combination of the first step; 1e30
        # leaves a finite ~1e31 latent that overflows in a later forward
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["edit", "--config", str(cfg), "--out", str(out),
                         "--guidance", guidance]) == 1
        assert_one_line_error(capsys, f"non-finite value in edit {where}: overflow")
        assert not out.exists()

    def test_two_runs_byte_identical(self, tmp_path):
        _, cfg = make_job_dir(tmp_path)
        trees = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["edit", "--config", str(cfg), "--out", str(out)]) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    def test_no_injection_flag_changes_output(self, tmp_path):
        _, cfg = make_job_dir(tmp_path)
        out_on = tmp_path / "on"
        out_off = tmp_path / "off"
        assert main(["edit", "--config", str(cfg), "--out", str(out_on)]) == 0
        assert main(["edit", "--config", str(cfg), "--out", str(out_off),
                     "--no-injection"]) == 0
        on = T.load_tensor(out_on / "edited.melt").data
        off = T.load_tensor(out_off / "edited.melt").data
        assert not np.array_equal(on, off)
        report = json.loads((out_off / "edit_report.json").read_text())
        assert report["injection_enabled"] is False
        assert report["cache"]["reads_cs"] == 0

    def test_drop_masked_tokens_and_inject_mid_flags_flow(self, tmp_path):
        _, cfg = make_job_dir(tmp_path)
        out_base = tmp_path / "base"
        out_drop = tmp_path / "drop"
        out_mid = tmp_path / "mid"
        assert main(["edit", "--config", str(cfg), "--out", str(out_base)]) == 0
        assert main(["edit", "--config", str(cfg), "--out", str(out_drop),
                     "--drop-masked-tokens"]) == 0
        assert main(["edit", "--config", str(cfg), "--out", str(out_mid),
                     "--inject-mid"]) == 0
        base = T.load_tensor(out_base / "edited.melt").data
        drop = T.load_tensor(out_drop / "edited.melt").data
        mid = T.load_tensor(out_mid / "edited.melt").data
        assert not np.array_equal(base, drop)
        assert not np.array_equal(base, mid)
        base_report = json.loads((out_base / "edit_report.json").read_text())
        mid_report = json.loads((out_mid / "edit_report.json").read_text())
        assert mid_report["cache"]["reads_cs"] > base_report["cache"]["reads_cs"]

    @pytest.mark.parametrize("corrupt", [
        lambda raw: b"NOPE" + raw[4:],
        lambda raw: raw[:-7],
        lambda raw: raw[:9],
    ], ids=["bad-magic", "truncated-payload", "short-header"])
    def test_malformed_video_melt_exits_2_with_one_line(self, tmp_path, capsys,
                                                        corrupt):
        root, cfg = make_job_dir(tmp_path)
        video = root / "video.melt"
        video.write_bytes(corrupt(video.read_bytes()))
        assert main(["edit", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "video.melt" in err and "byte" in err
        assert "Traceback" not in err

    def test_empty_ref_mask_exits_2_with_frame(self, tmp_path, capsys):
        root, cfg = make_job_dir(tmp_path)
        blank = np.zeros((32, 32), dtype=np.float32)
        SK.write_mask_pgm(root / "ref_masks" / "frame_002.pgm", blank)
        assert main(["edit", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "frame 2" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda m: {},
        lambda m: {**m, "config": {**m["config"], "pool": "4"}},
        lambda m: {**m, "config": {**m["config"], "channels": 0}},
        lambda m: {**m, "tensors": []},
        lambda m: {**m, "tensors": {k: v for k, v in m["tensors"].items()
                                    if k != "unet.out_b"}},
        lambda m: {**m, "tensors": {**m["tensors"], "unet.out_b": {
            **m["tensors"]["unet.out_b"], "shape": [5]}}},
    ], ids=["empty", "config-ill-typed", "config-zero-size", "tensors-not-object",
            "tensor-missing", "tensor-shape"])
    def test_malformed_checkpoint_manifest_exits_2_with_one_line(
            self, tmp_path, capsys, corrupt):
        _, cfg = make_job_dir(tmp_path)
        ckpt = tmp_path / "ckpt"
        N.save_checkpoint(ckpt, N.init_model(N.NetConfig(), seed=7))
        manifest = ckpt / "manifest.json"
        manifest.write_text(json.dumps(corrupt(json.loads(manifest.read_text()))))
        assert main(["edit", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys, "manifest.json")


    @pytest.mark.parametrize("case", ["parent-dir", "absolute", "subdirectory",
                                      "wrong-size"])
    def test_checkpoint_tensor_outside_its_directory_or_size_exits_2(
            self, tmp_path, capsys, monkeypatch, case):
        _, cfg = make_job_dir(tmp_path)
        ckpt = tmp_path / "ckpt"
        N.save_checkpoint(ckpt, N.init_model(N.NetConfig(), seed=7))
        manifest = ckpt / "manifest.json"
        blob = json.loads(manifest.read_text())
        raw = (ckpt / "unet_out_b.melt").read_bytes()
        blob["tensors"]["unet.out_b"]["file"] = misplaced_tensor(case, ckpt, raw)
        manifest.write_text(json.dumps(blob))
        reads = []
        load = T.load_tensor
        monkeypatch.setattr(T, "load_tensor", lambda path: reads.append(path) or load(path))
        assert main(["edit", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys, "manifest.json", "unet.out_b")
        assert reads == []  # refused before any tensor file is read


class TestReconstructCommand:
    def test_writes_reconstruction_and_report(self, tmp_path):
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg),
                     "--out", str(out)]) == 0
        report = json.loads((out / "reconstruct_report.json").read_text())
        assert len(report["metrics_vs_source"]) == 8
        assert report["inversion_timesteps"][0] == -1

    def test_encodes_the_source_once(self, tmp_path, monkeypatch):
        _, cfg = make_job_dir(tmp_path)
        encode, encoded = N.encode_video, []

        def counted(*args):
            encoded.append(encode(*args))
            return encoded[-1]
        monkeypatch.setattr(N, "encode_video", counted)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg), "--out", str(out),
                     "--steps", "2"]) == 0
        assert len(encoded) == 1
        # the report scores the written latent against that one encode
        report = json.loads((out / "reconstruct_report.json").read_text())
        written = T.load_tensor(out / "reconstructed.melt")
        assert report["metrics_vs_source"] == frame_metrics(encoded[0], written)

    @pytest.mark.parametrize("flag", [["--guidance", "3"], ["--no-injection"],
                                      ["--inject-mid"], ["--drop-masked-tokens"]],
                             ids=["guidance", "no-injection", "inject-mid",
                                  "drop-masked-tokens"])
    def test_edit_only_flags_rejected(self, tmp_path, flag):
        _, cfg = make_job_dir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--config", str(cfg),
                  "--out", str(tmp_path / "o"), *flag])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["edit", "train", "reconstruct"])
def test_overflowing_video_exits_1_naming_the_encoder(tmp_path, capsys, command):
    # finite pixels whose pooled sum overflows float32
    root, cfg = make_job_dir(tmp_path)
    T.save_tensor(root / "video.melt",
                  T.Tensor(np.full((8, 4, 32, 32), 3e38, np.float32)))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert_one_line_error(capsys, "error: non-finite value in encode: overflow")
    assert not out.exists()


# case -> (corrupt the job directory, commands that read the input, needles)
_MALFORMED = {
    "mixed-frame-sizes": (
        lambda root: SK.write_pgm(root / "src_skeletons" / "frame_003.pgm",
                                  np.zeros((16, 16), dtype=np.float32)),
        ("align", "train", "reconstruct", "edit"),
        ("src_skeletons", "frame_003.pgm", "16x16", "32x32")),
    "video-rank-3": (
        lambda root: T.save_tensor(root / "video.melt", T.zeros((8, 4, 32))),
        ("train", "reconstruct", "edit"), ("(8, 4, 32)", "(8, 4, 32, 32)")),
    "video-6-frames": (
        lambda root: T.save_tensor(root / "video.melt", synth_video(frames=6)),
        ("train", "reconstruct", "edit"), ("(6, 4, 32, 32)", "(8, 4, 32, 32)")),
}


@pytest.mark.parametrize("case,command", [
    (case, command) for case, (_, commands, _) in _MALFORMED.items()
    for command in commands])
def test_malformed_input_exits_2_with_one_line_and_no_output(
        tmp_path, capsys, case, command):
    corrupt, _, needles = _MALFORMED[case]
    root, cfg = make_job_dir(tmp_path)
    corrupt(root)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert_one_line_error(capsys, *needles)
    assert not out.exists()


class TestConfigHandling:
    def test_malformed_json_exits_2_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1,\n "oops"')
        assert main(["align", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_malformed_json_error_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1,\n "oops"')
        assert main(["align", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: Expecting ':' delimiter: line 2 column 8 (char 19)\n")

    @pytest.mark.parametrize("where", ["config", "manifest"])
    def test_json_nested_too_deep_exits_2(self, tmp_path, capsys, where):
        _, cfg = make_job_dir(tmp_path)
        path, argv = cfg, ["align", "--config", str(cfg)]
        if where == "manifest":
            ckpt = tmp_path / "ckpt"
            N.save_checkpoint(ckpt, N.init_model(N.NetConfig(), seed=7))
            path = ckpt / "manifest.json"
            argv = ["reconstruct", "--steps", "1", "--config", str(cfg),
                    "--checkpoint", str(ckpt)]
        path.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert_one_line_error(capsys, str(path), "recursion")
        assert not out.exists()

    @pytest.mark.parametrize("flag,command", [
        ("--config", "align"), ("--checkpoint", "reconstruct"),
        ("--checkpoint", "edit")],
        ids=["config", "checkpoint-reconstruct", "checkpoint-edit"])
    @pytest.mark.parametrize("case,code", [
        ("overlong", errno.ENAMETOOLONG), ("loop", errno.ELOOP)],
        ids=["overlong", "loop"])
    def test_unopenable_input_path_exits_2_with_one_line(
            self, tmp_path, capsys, flag, command, case, code):
        _, cfg = make_job_dir(tmp_path)
        path = tmp_path / ("x" * 5000 if case == "overlong" else "loop")
        if case == "loop":
            path.symlink_to(path.name)
        argv = ([command, "--config", str(path)] if flag == "--config"
                else [command, "--config", str(cfg), "--checkpoint", str(path)])
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert_one_line_error(capsys, os.strerror(code), str(path))
        assert not out.exists()

    def test_unreadable_config_exits_2(self, tmp_path, capsys, monkeypatch):
        # root reads a mode-000 file, so the refusal is made by ``open``
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1}))
        real_open = open

        def refusing(file, *args, **kwargs):
            if str(file) == str(cfg):
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, *args, **kwargs)
        monkeypatch.setattr("builtins.open", refusing)
        assert main(["align", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys, "Permission denied")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1, "bogus": {}}))
        assert main(["align", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sampler": {"steps": 3, "giudance": 1}}))
        assert main(["align", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "giudance" in capsys.readouterr().err

    @pytest.mark.parametrize("blob,needle", [
        ({"model": {"pool": 0}}, "model.pool"),
        ({"model": {"frames": "eight"}}, "model.frames"),
        ({"training": {"steps": "2"}}, "training.steps"),
        ({"injection": {"window_fraction": "x"}}, "injection.window_fraction"),
        ({"model": {"widths": [32, "64"]}}, "model.widths"),
        ({"seed": 1.5}, "seed"),
        ({"model": {"image_size": 20}}, "latent size"),
        ({"model": {"time_width": 31}}, "time_width"),
        ({"training": {"lr": 0}}, "training.lr"),
        ({"training": {"steps": -1}}, "training.steps"),
        ({"sampler": {"steps": 0}}, "sampler.steps"),
        ({"sampler": {"guidance": -1}}, "sampler.guidance"),
        ({"injection": {"window_fraction": 1.5}}, "injection.window_fraction"),
    ], ids=["pool-zero", "frames-string", "steps-string", "window-string",
            "widths-string", "seed-float", "odd-latent", "odd-time-width",
            "lr-zero", "training-steps-negative", "sampler-steps-zero",
            "guidance-negative", "window-above-one"])
    def test_ill_typed_or_out_of_range_field_exits_2(self, tmp_path, capsys,
                                                     blob, needle):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(blob))
        assert main(["align", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys, needle)

    @pytest.mark.parametrize("timesteps", [-5, 0, 1])
    def test_schedule_of_fewer_than_two_timesteps_exits_2(self, tmp_path, capsys,
                                                          timesteps):
        # an align config that runs once its schedule is long enough
        _, cfg = make_job_dir(tmp_path,
                              config_extra={"schedule": {"timesteps": timesteps}})
        out = tmp_path / "o"
        assert main(["align", "--config", str(cfg), "--out", str(out)]) == 2
        assert_one_line_error(
            capsys, f"error: schedule.timesteps must be >= 2, got {timesteps}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["align", "train", "reconstruct", "edit"])
    @pytest.mark.parametrize("extra,line", [
        ({"schedule": {"beta_max": 1.5}},
         "error: schedule.beta_max must be in (0, 1), got 1.5"),
        ({"schedule": {"beta_min": 0.05, "beta_max": 0.02}},
         "error: schedule.beta_min 0.05 must be <= schedule.beta_max 0.02"),
        ({"sampler": {"steps": 2000}},
         "error: sampler.steps 2000 must be <= schedule.timesteps 1000"),
    ], ids=["beta-max-above-one", "betas-swapped", "more-steps-than-timesteps"])
    def test_one_config_gets_one_verdict_whatever_the_command(
            self, tmp_path, capsys, monkeypatch, command, extra, line):
        def reached(*args, **kwargs):
            raise AssertionError("work began on a config that cannot run")

        for job in ("align_skeletons", "one_shot_train", "reconstruct", "edit"):
            monkeypatch.setattr(P, job, reached)
        monkeypatch.setattr(N, "init_model", reached)
        _, cfg = make_job_dir(tmp_path, config_extra=extra)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["edit", "reconstruct"])
    @pytest.mark.parametrize("case", ["empty", "nul", "empty-flag"])
    def test_empty_or_nul_checkpoint_path_exits_2(self, tmp_path, capsys,
                                                 monkeypatch, command, case):
        # the working directory holds a checkpoint, which an empty path,
        # joined to "manifest.json", would name
        ckpt = tmp_path / "ckpt"
        N.save_checkpoint(ckpt, N.init_model(N.NetConfig(), seed=7))
        monkeypatch.chdir(ckpt)
        _, cfg = make_job_dir(tmp_path)
        blob = json.loads(cfg.read_text())
        argv = [command, "--steps", "2", "--config", str(cfg)]
        if case == "empty-flag":
            blob["paths"]["checkpoint"] = str(ckpt)
            argv += ["--checkpoint", ""]
        else:
            blob["paths"]["checkpoint"] = "" if case == "empty" else "a\u0000b"
        cfg.write_text(json.dumps(blob))
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert_one_line_error(capsys, "paths.checkpoint")
        assert not out.exists()

    def test_invalid_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"prompts": {"source": "\xff\xfe"}}')
        assert main(["align", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys, "UTF-8")

    @pytest.mark.parametrize("argv,needle", [
        (["edit", "--seed", "-1"], "seed"),
        (["edit", "--guidance", "nan"], "sampler.guidance"),
        (["train", "--steps", "-4"], "steps"),
        (["selftest", "--seed", "-1"], "seed"),
    ], ids=["edit-seed", "edit-guidance-nan", "train-steps", "selftest-seed"])
    def test_out_of_range_flag_exits_2_with_one_line(self, tmp_path, capsys,
                                                    argv, needle):
        if argv[0] != "selftest":
            _, cfg = make_job_dir(tmp_path)
            argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert_one_line_error(capsys, needle)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case,needle", [
        ("config-dir", "Is a directory"),
        ("manifest-file-empty", "Is a directory"),
        ("manifest-dir", "Is a directory"),
        ("out-file", "File exists"),
    ], ids=["config-dir", "manifest-file-empty", "manifest-dir", "out-file"])
    def test_directory_or_existing_file_path_exits_2_with_one_line(
            self, tmp_path, capsys, case, needle):
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "o"
        argv = ["align", "--config", str(cfg)]
        if case == "config-dir":
            argv = ["align", "--config", str(tmp_path)]
        elif case == "out-file":
            out.write_text("")
        else:
            ckpt = tmp_path / "ckpt"
            N.save_checkpoint(ckpt, N.init_model(N.NetConfig(), seed=7))
            manifest = ckpt / "manifest.json"
            if case == "manifest-dir":
                manifest.unlink()
                manifest.mkdir()
            else:
                blob = json.loads(manifest.read_text())
                blob["tensors"]["unet.out_b"]["file"] = ""
                manifest.write_text(json.dumps(blob))
            argv = ["reconstruct", "--steps", "1", "--config", str(cfg),
                    "--checkpoint", str(ckpt)]
        assert main(argv + ["--out", str(out)]) == 2
        assert_one_line_error(capsys, needle)

    @pytest.mark.parametrize("command,job", [
        ("align", "align_skeletons"), ("train", "one_shot_train"),
        ("reconstruct", "reconstruct"), ("edit", "edit")],
        ids=["align", "train", "reconstruct", "edit"])
    def test_existing_file_out_rejected_before_the_job_runs(
            self, tmp_path, capsys, monkeypatch, command, job):
        def reached(*args, **kwargs):
            raise AssertionError(f"{job} ran although --out is a file")

        monkeypatch.setattr(P, job, reached)
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "o"
        out.write_text("kept")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert_one_line_error(capsys, "File exists")
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("command,job", [
        ("align", "align_skeletons"), ("train", "one_shot_train"),
        ("reconstruct", "reconstruct"), ("edit", "edit")],
        ids=["align", "train", "reconstruct", "edit"])
    def test_out_under_a_file_rejected_before_the_job_runs(
            self, tmp_path, capsys, monkeypatch, command, job):
        def reached(*args, **kwargs):
            raise AssertionError(f"{job} ran although --out lies under a file")

        monkeypatch.setattr(P, job, reached)
        _, cfg = make_job_dir(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / "sub" / "deeper"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert_one_line_error(capsys, "Not a directory", "afile")
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize("command,job", [
        ("align", "align_skeletons"), ("train", "one_shot_train"),
        ("reconstruct", "reconstruct"), ("edit", "edit")],
        ids=["align", "train", "reconstruct", "edit"])
    @pytest.mark.parametrize("case,code", [
        ("empty", errno.ENOENT), ("overlong", errno.ENAMETOOLONG),
        ("under-overlong", errno.ENAMETOOLONG), ("loop", errno.ELOOP),
        ("under-loop", errno.ELOOP)],
        ids=["empty", "overlong", "under-overlong", "loop", "under-loop"])
    def test_unusable_out_rejected_before_the_job_runs(
            self, tmp_path, capsys, monkeypatch, command, job, case, code):
        def reached(*args, **kwargs):
            raise AssertionError(f"{job} ran although --out is unusable")

        monkeypatch.setattr(P, job, reached)
        _, cfg = make_job_dir(tmp_path)
        loop = tmp_path / "loop"
        loop.symlink_to(loop.name)
        overlong = tmp_path / ("x" * 5000)
        out = {"empty": "", "overlong": overlong, "under-overlong": overlong / "sub",
               "loop": loop, "under-loop": loop / "sub"}[case]
        monkeypatch.chdir(tmp_path)  # where an empty --out would be made
        before = sorted(os.listdir(tmp_path))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert_one_line_error(capsys, os.strerror(code), repr(str(out)))
        assert sorted(os.listdir(tmp_path)) == before

    def test_manifest_odd_time_width_rejected_before_any_tensor_is_read(
            self, tmp_path, capsys, monkeypatch):
        # the shapes agree with parameter_shapes, yet the time table's
        # 2 * (5 // 2) columns cannot meet the (5, d) time projections
        _, cfg = make_job_dir(tmp_path)
        ckpt = tmp_path / "ckpt"
        net = N.NetConfig(time_width=5)
        N.save_checkpoint(ckpt, N.init_model(net, seed=7))
        blob = json.loads((ckpt / "manifest.json").read_text())
        assert blob["config"]["time_width"] == 5
        assert {n: tuple(e["shape"]) for n, e in blob["tensors"].items()} == (
            N.parameter_shapes(net))

        def reached(path):
            raise AssertionError(f"read {path} of a config that cannot run")

        monkeypatch.setattr(T, "load_tensor", reached)
        assert main(["reconstruct", "--steps", "1", "--config", str(cfg),
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys, "manifest.json", "time_width")
        assert not (tmp_path / "o").exists()

    def test_manifest_config_checked_without_building_the_model(self, tmp_path,
                                                                capsys):
        # a level width of 512 would need ~70 MB of weights to build
        _, cfg = make_job_dir(tmp_path)
        ckpt = tmp_path / "ckpt"
        N.save_checkpoint(ckpt, N.init_model(N.NetConfig(), seed=7))
        manifest = ckpt / "manifest.json"
        blob = json.loads(manifest.read_text())
        blob["config"]["widths"] = [32, 512]
        manifest.write_text(json.dumps(blob))
        tracemalloc.start()
        try:
            code = main(["reconstruct", "--steps", "1", "--config", str(cfg),
                         "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert_one_line_error(capsys, "manifest.json")
        assert peak < 1 << 20
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["edit", "reconstruct"])
    @pytest.mark.parametrize("timesteps", [10, 1000, 2000],
                             ids=["fewer", "matched", "more"])
    def test_checkpoint_schedule_must_match_the_config(
            self, tmp_path, capsys, monkeypatch, command, timesteps):
        # the checkpoint's time embeddings cover 1,000 timesteps
        _, cfg = make_job_dir(tmp_path,
                              config_extra={"schedule": {"timesteps": timesteps}})
        ckpt = tmp_path / "ckpt"
        N.save_checkpoint(ckpt, N.init_model(N.NetConfig(), seed=7))
        real, ran = getattr(P, command), []
        monkeypatch.setattr(P, command, lambda *a, **k: ran.append(a) or real(*a, **k))
        out = tmp_path / "o"
        code = main([command, "--steps", "1", "--config", str(cfg),
                     "--checkpoint", str(ckpt), "--out", str(out)])
        if timesteps == 1000:
            assert code == 0 and len(ran) == 1
            return
        assert code == 2 and ran == [] and not out.exists()
        assert_one_line_error(capsys, "1000-step",
                              f"schedule.timesteps is {timesteps}")

    @pytest.mark.parametrize("command", ["train", "reconstruct", "edit"])
    @pytest.mark.parametrize("name,value", [
        ("frames", 4), ("image_size", 16), ("channels", 3), ("widths", [16, 32]),
        ("time_width", 16), ("pool", 2)],
        ids=["frames", "image_size", "channels", "widths", "time_width", "pool"])
    def test_checkpoint_must_describe_the_config_model(
            self, tmp_path, capsys, monkeypatch, command, name, value):
        # the checkpoint is of the default model, the config's differs in one field
        have = getattr(N.NetConfig(), name)
        want = tuple(value) if isinstance(value, list) else value

        def reached(*args, **kwargs):
            raise AssertionError("a job ran on a checkpoint of another model")

        for job in ("one_shot_train", "reconstruct", "edit"):
            monkeypatch.setattr(P, job, reached)
        ckpt = tmp_path / "ckpt"
        N.save_checkpoint(ckpt, N.init_model(N.NetConfig(), seed=7))
        _, cfg = make_job_dir(tmp_path, config_extra={"model": {name: value}},
                              checkpoint=ckpt)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: the checkpoint's model.{name} is {have!r}, "
            f"but the config's is {want!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "reconstruct", "edit"])
    def test_checkpoint_with_a_non_finite_weight_exits_2(self, tmp_path, capsys,
                                                         command):
        ckpt = tmp_path / "ckpt"
        model = N.init_model(N.NetConfig(), seed=7)
        name = "unet.dec0.cs.w_q"
        w = model.params[name].data.copy()
        w[0, 0] = np.nan
        N.save_checkpoint(ckpt, model.replace({name: T.Tensor(w)}))
        _, cfg = make_job_dir(tmp_path, checkpoint=ckpt)
        out = tmp_path / "o"
        assert main([command, "--steps", "2", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert_one_line_error(capsys, f"{ckpt / 'manifest.json'}: tensor {name} "
                                      "holds a non-finite value")
        assert not out.exists()

    def test_seed_override_applies(self, tmp_path):
        _, cfg = make_job_dir(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["edit", "--config", str(cfg), "--out", str(out_a),
                     "--seed", "11"]) == 0
        assert main(["edit", "--config", str(cfg), "--out", str(out_b),
                     "--seed", "12"]) == 0
        a = T.load_tensor(out_a / "edited.melt").data
        b = T.load_tensor(out_b / "edited.melt").data
        assert not np.array_equal(a, b)


class TestOutTree:
    @pytest.mark.parametrize("command,job", [
        ("align", "align_skeletons"), ("train", "one_shot_train"),
        ("reconstruct", "reconstruct"), ("edit", "edit")],
        ids=["align", "train", "reconstruct", "edit"])
    @pytest.mark.parametrize("case,needle", [
        ("empty-dir", "File exists"), ("full-dir", "File exists"),
        ("dangling-link", "File exists"), ("dir-link", "File exists"),
        ("missing-parent", "no such parent directory"),
        ("1500-levels", "no such parent directory")],
        ids=["empty-dir", "full-dir", "dangling-link", "dir-link",
             "missing-parent", "1500-levels"])
    def test_out_mkdir_would_refuse_rejected_before_the_job_runs(
            self, tmp_path, capsys, monkeypatch, command, job, case, needle):
        def reached(*args, **kwargs):
            raise AssertionError(f"{job} ran although --out is refused")

        monkeypatch.setattr(P, job, reached)
        _, cfg = make_job_dir(tmp_path)
        where = tmp_path / "where"
        where.mkdir()
        make_out_fixtures(where)
        out = {"empty-dir": where / "d", "full-dir": where / "full",
               "dangling-link": where / "dl", "dir-link": where / "ld",
               "missing-parent": where / "gone" / "o",
               "1500-levels": where.joinpath(*["a"] * 1500)}[case]
        before = listing(where)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert_one_line_error(capsys, needle, repr(str(out)))
        assert listing(where) == before

    def test_second_command_into_one_out_rejected(self, tmp_path, capsys,
                                                  monkeypatch):
        # reconstruct, then edit into the same --out, merged the two trees
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "merged"
        assert main(["reconstruct", "--steps", "1", "--config", str(cfg),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        before = listing(tmp_path)

        def reached(*args, **kwargs):
            raise AssertionError("edit ran although --out exists")

        monkeypatch.setattr(P, "edit", reached)
        assert main(["edit", "--steps", "1", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert_one_line_error(capsys, "File exists", repr(str(out)))
        assert listing(tmp_path) == before
        assert sorted(os.listdir(out)) == [
            "reconstruct_report.json", "reconstructed.melt", "reconstructed_previews"]

    @pytest.mark.parametrize("error,needle", [
        (MemoryError(), "error: MemoryError"),
        (MemoryError("Unable to allocate 3.35 GiB for an array with shape "
                     "(30000, 30000) and data type float32"),
         "Unable to allocate 3.35 GiB")], ids=["bare", "numpy-worded"])
    def test_memory_error_exits_1_with_one_line(self, tmp_path, capsys,
                                                monkeypatch, error, needle):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(P, "reconstruct", exhausted)
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "o"
        assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 1
        assert_one_line_error(capsys, needle)
        assert not out.exists() and staged(tmp_path) == []

    def test_full_disk_mid_write_leaves_no_tree(self, tmp_path, capsys,
                                                monkeypatch):
        # the third PGM is the edited latent's third preview frame, written
        # after edited.melt
        write, calls = SK.write_pgm, []

        def disk_full(path, raster):
            calls.append(path)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            write(path, raster)

        _, cfg = make_job_dir(tmp_path)
        monkeypatch.setattr(SK, "write_pgm", disk_full)
        out = tmp_path / "o"
        assert main(["edit", "--steps", "1", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert_one_line_error(capsys, os.strerror(errno.ENOSPC),
                              os.path.join(str(tmp_path), ".o.partial-"))
        assert len(calls) == 3 and "edited_previews" in calls[-1]
        assert not out.exists() and staged(tmp_path) == []

    def test_killed_run_leaves_its_staging_directory_as_the_marker(self, tmp_path):
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "o"
        pid = os.fork()
        if pid == 0:  # the child dies in its first write, past every handler
            try:
                SK.write_pgm = lambda *args: os._exit(7)
                with contextlib.redirect_stderr(io.StringIO()):
                    main(["align", "--config", str(cfg), "--out", str(out)])
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 7
        assert not out.exists()
        (marker,) = staged(tmp_path)
        assert marker.startswith(".o.partial-")

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o002],
                             ids=["022", "027", "002"])
    def test_published_root_has_the_mode_mkdir_gives(self, tmp_path, monkeypatch,
                                                     umask):
        monkeypatch.setattr(P, "align_skeletons", lambda *args: ([], []))
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "o"
        previous = os.umask(umask)
        try:
            assert main(["align", "--config", str(cfg), "--out", str(out)]) == 0
            (tmp_path / "by-mkdir").mkdir()
        finally:
            os.umask(previous)
        assert os.stat(out).st_mode & 0o7777 == 0o777 & ~umask
        assert os.stat(out).st_mode == os.stat(tmp_path / "by-mkdir").st_mode

    def test_summary_names_out_not_the_staging_directory(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(P, "align_skeletons", lambda *args: ([], []))
        _, cfg = make_job_dir(tmp_path)
        out = tmp_path / "o"
        assert main(["align", "--config", str(cfg), "--out", str(out) + "/"]) == 0
        assert capsys.readouterr().out == f"aligned 0 frames -> {out}/\n"
        assert sorted(os.listdir(tmp_path)) == ["job", "o"]


def json_values(ints):
    return st.recursive(
        st.none() | st.booleans() | ints | st.floats() | st.text(max_size=8),
        lambda kids: (st.lists(kids, max_size=3)
                      | st.dictionaries(st.text(max_size=8), kids, max_size=3)),
        max_leaves=8)


def fuzzed(data, blob, values):
    """``blob`` after one to three edits, each at a drawn depth: an entry
    replaced by one of ``values`` or deleted, or a leaf redrawn."""
    def mutate(value):
        keys = (sorted(value) if isinstance(value, dict)
                else list(range(len(value))) if isinstance(value, list) else [])
        if not keys:
            return data.draw(values)
        key = data.draw(st.sampled_from(keys))
        out = dict(value) if isinstance(value, dict) else list(value)
        action = data.draw(st.sampled_from(["replace", "delete", "descend"]))
        if action == "delete":
            del out[key]
        else:
            out[key] = data.draw(values) if action == "replace" else mutate(value[key])
        return out

    for _ in range(data.draw(st.integers(1, 3))):
        blob = mutate(blob)
    return blob


def run_cli(argv):
    """Exit code and stderr of ``main(argv)``; a RuntimeWarning raises
    instead of printing."""
    err = io.StringIO()
    with (contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()),
          warnings.catch_warnings()):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_job(tmp_path_factory):
    """A valid job directory, its config blob and its checkpoint's manifest."""
    root, cfg = make_job_dir(tmp_path_factory.mktemp("fuzz"))
    N.save_checkpoint(root / "ckpt", N.init_model(N.NetConfig(), seed=7))
    manifest = json.loads((root / "ckpt" / "manifest.json").read_text())
    return root, json.loads(cfg.read_text()), manifest


class TestFuzzedInputs:
    def assert_clean_exit(self, argv):
        code, err = run_cli(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err and err.count("\n") <= 1, err

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_config_blob_exits_cleanly(self, fuzz_job, data):
        root, blob, _ = fuzz_job
        cfg = root / "fuzzed.json"
        cfg.write_text(json.dumps(fuzzed(data, blob, json_values(st.integers()))))
        self.assert_clean_exit(["align", "--config", str(cfg),
                                "--out", str(root / "fuzzed_out")])

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_checkpoint_manifest_exits_cleanly(self, fuzz_job, data):
        root, _, manifest = fuzz_job
        # load_checkpoint builds the whole model of the manifest's config to
        # learn its shapes, so a large size would allocate gigabytes
        small = json_values(st.integers(-3, 300))
        (root / "ckpt" / "manifest.json").write_text(
            json.dumps(fuzzed(data, manifest, small)))
        self.assert_clean_exit(["reconstruct", "--steps", "1",
                                "--config", str(root / "config.json"),
                                "--checkpoint", str(root / "ckpt"),
                                "--out", str(root / "fuzzed_out")])

    @settings(max_examples=40, deadline=None)
    @given(out=st.integers(0, 5000).flatmap(
        lambda n: st.text(string.ascii_letters + "_/", min_size=n, max_size=n))
        .filter(lambda s: not s.startswith("/")))
    def test_out_path_exits_cleanly(self, fuzz_job, out):
        # relative to a directory of its own, so that every --out lies in it;
        # with no frames aligned, align writes only its report
        root, _, _ = fuzz_job
        cwd = root / "out_cwd"
        cwd.mkdir(exist_ok=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(cwd)
            mp.setattr(P, "align_skeletons", lambda *args: ([], []))
            code, err = run_cli(["align", "--config", str(root / "config.json"),
                                 "--out", out])
        assert code in (0, 2)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1
                             and "Traceback" not in err), err

    @settings(max_examples=60, deadline=None)
    @given(first=st.sampled_from(["f", "d", "full", "lf", "ld", "dl", "loop", "new"]),
           rest=st.lists(st.sampled_from(["f", "d", "full", "ld", "dl", "new",
                                          ".", ".."]), max_size=2),
           slash=st.booleans())
    def test_out_published_whole_or_not_at_all(self, fuzz_job, first, rest, slash):
        # two components past the first cannot climb out of ``where``
        root, _, _ = fuzz_job
        out = "/".join([first, *rest]) + "/" * slash
        with (tempfile.TemporaryDirectory(dir=root) as where,
              pytest.MonkeyPatch.context() as mp):
            make_out_fixtures(pathlib.Path(where))
            mp.chdir(where)
            mp.setattr(P, "align_skeletons",
                       lambda *args: ([np.zeros((4, 4), np.float32)], [{}]))
            before = listing(where)
            code, err = run_cli(["align", "--config", str(root / "config.json"),
                                 "--out", out])
            after = listing(where)
            published = os.path.relpath(os.path.realpath(out), where)
        event(f"exit {code}")
        assert not any(".partial-" in path for path in after), after
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert after == before
        else:
            assert code == 0 and err == "", err
            new = {p: v for p, v in after.items() if p not in before}
            assert new.pop(published) == "dir"
            assert sorted(new) == [os.path.join(published, name) for name in
                                   ("align_report.json", "aligned_000.pgm")]
            assert all(after[p] == v for p, v in before.items())


class TestSelftestCommand:
    def test_clean_build_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 15

    def test_corrupted_gradient_mode_fails_specific_check(self, capsys):
        assert main(["selftest", "--corrupt-gradient"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  gradient-adapter" in out
        assert sum(1 for line in out.splitlines()
                   if line.startswith("FAIL ")) == 1


def test_module_entry_runs_without_runtime_warning():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "vidmotion.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


class TestFrameMetrics:
    def test_identical_inputs_zero_rmse_inf_psnr(self):
        a = T.Tensor(np.random.default_rng(0).normal(0, 1, (3, 2, 4, 4))
                     .astype(np.float32))
        metrics = frame_metrics(a, a)
        for m in metrics:
            assert m["rmse"] == 0.0
            assert m["psnr"] == math.inf

    def test_unit_offset_gives_rmse_one(self):
        a = T.Tensor(np.random.default_rng(1).normal(0, 1, (2, 2, 3, 3))
                     .astype(np.float32))
        b = T.Tensor(a.data + 1.0)
        for m in frame_metrics(a, b):
            assert abs(m["rmse"] - 1.0) < 1e-6

    def test_random_pair_matches_brute_force(self):
        gen = np.random.default_rng(2)
        a = gen.normal(0, 1, (2, 3, 4, 4)).astype(np.float32)
        b = gen.normal(0, 1, (2, 3, 4, 4)).astype(np.float32)
        metrics = frame_metrics(T.Tensor(a), T.Tensor(b))
        for f in range(2):
            se = 0.0
            count = 0
            for c in range(3):
                for y in range(4):
                    for x in range(4):
                        se += (float(a[f, c, y, x]) - float(b[f, c, y, x])) ** 2
                        count += 1
            rmse = math.sqrt(se / count)
            assert abs(metrics[f]["rmse"] - rmse) < 1e-9
            ref64 = a[f].astype(np.float64)
            rng_ref = float(ref64.max() - ref64.min())
            want_psnr = 10 * math.log10(rng_ref ** 2 / (se / count))
            assert abs(metrics[f]["psnr"] - want_psnr) < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            frame_metrics(T.zeros((2, 1, 2, 2)), T.zeros((3, 1, 2, 2)))


def test_cli_runs_one_blas_thread(tmp_path):
    """Importing vidmotion leaves OpenBLAS's thread count as the environment
    set it; once ``cli.main`` runs, OpenBLAS runs one thread (where numpy
    links OpenBLAS)."""
    code = ("import sys\n"
            "from vidmotion import cli, pipeline as P\n"
            "get = P.openblas_function('get')\n"
            "if get is None:\n"
            "    sys.exit(3)\n"
            "imported = get()\n"
            "cli.main(['edit', '--config', 'missing.json', '--out', 'out'])\n"
            "print(imported, get())\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          cwd=tmp_path, capture_output=True, text=True)
    if proc.returncode == 3:
        pytest.skip("numpy links no OpenBLAS here")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(min(2, len(os.sched_getaffinity(0)))), "1"]


def test_freed_heap_is_reused_across_forwards():
    """Once the CLI's allocator settings apply, steady-state edit steps reuse
    freed memory instead of faulting fresh pages in (glibc only)."""
    resource = pytest.importorskip("resource")
    if not cli._keep_freed_heap():
        pytest.skip("mallopt is unavailable on this platform")
    model = N.init_model(N.NetConfig(), seed=3)
    cfg = model.cfg
    side = cfg.image_size // cfg.pool
    z = T.Tensor(np.random.default_rng(3).normal(
        0, 1, (cfg.frames, cfg.channels, side, side)).astype(np.float32))
    pose = N.pose_features(model, synth_skeletons())
    masks = I.LatentMask.from_rasters(synth_masks(), cfg.level_shapes())
    cache, inj = I.ReconCache(), I.InjectionSettings()

    def step(t):
        # one step's control sides, then the recon, edit-cond and edit-uncond
        # U-Net forwards of one lockstep sampler step
        sides = N.control_sides(model, z, t, pose)
        N.unet_forward(model, z, t, "a figure walking", role="recon", cache=cache,
                       inj=inj, step=N.StepContext(t, z, lambda: sides))
        for prompt in ("a figure marching", None):
            N.unet_forward(model, z, t, prompt, role="edit", cache=cache,
                           masks=masks, inj=inj, step=N.StepContext(t, z, lambda: sides))

    for t in range(999, 996, -1):  # warm-up
        step(t)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for t in range(996, 986, -1):
        step(t)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 500, f"{faults} minor page faults in 10 steady-state steps"


def test_every_error_class_reaches_a_handler_of_main():
    # an error class that is neither an input error (exit 2) nor a
    # RuntimeError (exit 1) would escape main as a traceback
    import vidmotion
    classes = set()
    for info in pkgutil.iter_modules(vidmotion.__path__):
        module = importlib.import_module(f"vidmotion.{info.name}")
        classes |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    assert len(classes) >= 13
    assert sorted(c.__qualname__ for c in classes if not issubclass(
        c, (*cli._INPUT_ERRORS, RuntimeError))) == []
