"""Tests of the benchmark's own arithmetic and bookkeeping.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import os

import numpy as np
import pytest

import jobs
import metrics
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_time_subtracts_children_once():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_recorded_self_times_add_up_to_the_root():
    rec = tracing.SpanRecorder()
    root = rec.open("cli.main")
    for _ in range(3):
        outer = rec.open("network.unet_forward.plain")
        rec.close(rec.open("tensor.add"))
        rec.close(outer)
    rec.close(root)
    table = rec.table()
    assert table.parent_name_id.tolist() == [-1, 0, 1, 0, 1, 0, 1]
    assert table.self_time.sum() == pytest.approx(table.end[0] - table.start[0])
    assert (table.self_time >= 0).all()


@pytest.mark.parametrize("samples, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_percentile_supported_by_sample_count(samples, expected):
    assert metrics.supported_percentile(samples) == expected


def test_timing_summary_reports_count_and_supported_percentile():
    summary = metrics.timing_summary([float(i) for i in range(1, 101)])
    assert summary["samples"] == 100
    assert summary["p50"] == 50.5
    assert summary["highest_supported_percentile"] == 90.0
    assert summary["at_highest_supported"] == 90.0


def test_speed_scale_uses_the_probes_on_either_side():
    # the host runs at the reference speed, then half of it, then recovers
    probes = [0.1, 0.1, 0.2, 0.1]
    assert metrics.speed_scale(probes, 0.1) == pytest.approx([1.0, 2 / 3, 2 / 3])


def test_failed_output_check_counts_in_fail_rate(tmp_path):
    good, bad = tmp_path / "good", tmp_path / "bad"
    for directory, last in ((good, "1.5"), (bad, "nan")):
        directory.mkdir()
        (directory / "loss.csv").write_text(f"step,loss\n0,2.0\n1,{last}\n")
    log = jobs.JobLog()
    for directory in (good, bad, good, good):
        log.record(1.0, jobs.check_train(str(directory), steps=2))
    assert (log.attempted, log.failed, log.fail_rate) == (4, 1, 0.25)
    assert log.seconds == [1.0, 1.0, 1.0]
    assert jobs.check_train(str(good), steps=3) == [
        "loss.csv has 2 rows, expected 3"]


def test_edit_check_rejects_non_finite_melt_and_missing_counters(tmp_path):
    payload = np.array([1.0, np.inf], dtype="<f4").tobytes()
    head = b"MELT" + bytes([1, 0]) + (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
    (tmp_path / "edited.melt").write_bytes(head + payload)
    (tmp_path / "reconstructed.melt").write_bytes(head + payload[:4] * 2)
    report = tmp_path / "edit_report.json"
    report.write_text(json.dumps(
        {"cache": {"writes": 900, "reads_cs": 1600, "reads_temporal": 200}}))
    assert jobs.check_edit(str(tmp_path)) == ["edited.melt has non-finite values"]
    report.write_text(json.dumps({"cache": {"writes": 900}}))
    assert jobs.check_edit(str(tmp_path))[1].startswith("edit_report.json unreadable")


def test_pose_encode_unique_ratio_on_known_rasters():
    rec = tracing.SpanRecorder()
    pose_encode = tracing._traced(rec, lambda model, raster: None,
                                  "network.pose_encode")
    a, b, c = (np.full((4, 4), v, dtype=np.float32) for v in (0.0, 1.0, 2.0))
    rec.begin_job(0)
    for raster in (a, b, a, c, b, a):
        pose_encode(None, raster=raster)
    rec.end_job()
    values = metrics.job_layer_metrics(rec.table(), rec.counts, rec.distinct, 0)
    assert values["network.pose_encode.calls_per_job"] == 6
    assert values["network.pose_encode.unique_ratio"] == 0.5


def test_install_wraps_and_restores_the_program():
    from vidmotion import attention as A
    from vidmotion import tensor as T

    original = A.attend
    rec = tracing.SpanRecorder()
    uninstall = tracing.install(rec)
    try:
        rec.begin_job(0)
        q = T.Tensor(np.eye(3, dtype=np.float32))
        A.attend(q, q, q)
        rec.end_job()
    finally:
        uninstall()
    assert A.attend is original
    names = [rec.names[i] for i in rec.name_id]
    assert names[0] == "attention.attend"
    assert {"tensor.matmul", "tensor.softmax", "tensor.transpose"} <= set(names)
    # transpose, matmul, scale, softmax, matmul
    assert rec.counts[(0, "tensor.ops")] == 5
    assert rec.parent.tolist().count(0) == len(names) - 1


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
            ] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
            ] == [row[:3] for row in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
