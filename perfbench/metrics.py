"""The benchmark's metrics: their table, and the arithmetic that derives them.

``END_TO_END`` come from an untraced run; ``PER_LAYER`` from a traced run,
per job unless the name says otherwise. Each row names the end-to-end metric
and workload it should move. BENCHMARK.json lists the same names, units and
directions (a test keeps the two in step).
"""
from __future__ import annotations

import math
import statistics

import numpy as np

from tracing import SpanTable

# name, unit, better, bound (share of the parent's median). Times are at the
# probe's reference speed (see run.py). Across ten seeds their spread (IQR
# over median) was 2-9% against 13-27% for raw wall times, and set-up, which
# follows the probe less well, 14-24%; so every timing gets the widest bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("job_s.p50", "s", "lower", 0.25),
    ("frames_per_s", "frames/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = [
    ("tensor.ops_per_job", "count", "lower", "job_s.p50 on all three; dispatch-bound, so op count is the lever"),
    ("tensor.ops_per_unet_forward", "count", "lower", "job_s.p50 on all three"),
    ("tensor.self_ms_per_job", "ms", "lower", "job_s.p50 on all three"),
    ("tensor.tape_nodes_per_step", "count", "lower", "job_s.p50 on train only"),
    ("tensor.backward_ms_per_step", "ms", "lower", "job_s.p50 on train only"),
    ("tensor.adam_ms_per_step", "ms", "lower", "job_s.p50 on train only"),
    ("tensor.gc_pause_ms_per_job", "ms", "lower", "peak_rss_mb and job_s.p50 on train"),
    ("tensor.gc_collected_per_job", "count", "lower", "peak_rss_mb and job_s.p50 on train"),
    ("tensor.melt_ms_per_job", "ms", "lower", "setup_s; job_s.p50 on train (save) and the edits (load)"),
    ("diffusion.self_ms_per_job", "ms", "lower", "predicted never to be the lever"),
    ("attention.attend.calls_per_job", "count", "lower", "job_s.p50: edit-drop-mid most, edit less, train least"),
    ("attention.attend_batched.calls_per_job", "count", "lower", "job_s.p50: edit-drop-mid most, edit less, train least"),
    ("attention.project_tokens.calls_per_job", "count", "lower", "job_s.p50: edit-drop-mid most, edit less, train least"),
    ("attention.self_ms_per_job", "ms", "lower", "job_s.p50: edit-drop-mid most, edit less, train least"),
    ("injection.self_ms_per_job", "ms", "lower", "job_s.p50 on edit-drop-mid (dominant) and edit; zero on train"),
    ("injection.build_injected_kv.calls_per_job", "count", "lower", "job_s.p50 on edit-drop-mid and edit; zero on train"),
    ("injection.cache_bytes", "bytes", "lower", "peak_rss_mb on both edits"),
    ("injection.cache_writes", "count", "lower", "peak_rss_mb on both edits"),
    ("injection.cache_reads", "count", "lower", "peak_rss_mb on both edits"),
    ("adapter.calls_per_job", "count", "lower", "job_s.p50 on all three"),
    ("adapter.self_ms_per_job", "ms", "lower", "job_s.p50 on all three; most per call on train"),
    ("network.unet_forward.calls_per_job", "count", "lower", "job_s.p50 and frames_per_s on both edits; no change on train"),
    ("network.unet_forward.ms.plain", "ms", "lower", "job_s.p50 on all three (per-call median)"),
    ("network.unet_forward.ms.recon", "ms", "lower", "job_s.p50 on both edits (per-call median)"),
    ("network.unet_forward.ms.edit", "ms", "lower", "job_s.p50 on both edits (per-call median)"),
    ("network.controlnet_forward.calls_per_job", "count", "lower", "job_s.p50 on all three"),
    ("network.controlnet_forward.ms", "ms", "lower", "job_s.p50 on all three (per-call median)"),
    ("network.self_ms_per_job", "ms", "lower", "job_s.p50 on all three"),
    ("network.pose_encode.calls_per_job", "count", "lower", "job_s.p50 on both edits"),
    ("network.pose_encode.unique_ratio", "ratio", "higher", "job_s.p50 on both edits"),
    ("pipeline.invert_s", "s", "lower", "job_s.p50 on both edits"),
    ("pipeline.recon_branch_s", "s", "lower", "job_s.p50 on both edits"),
    ("pipeline.edit_branch_s", "s", "lower", "job_s.p50 on both edits"),
    ("pipeline.train_step_ms", "ms", "lower", "job_s.p50 on train"),
    ("skeleton.align_ms_per_job", "ms", "lower", "job_s.p50 and setup_s; small"),
    ("skeleton.pgm_ms_per_job", "ms", "lower", "job_s.p50 and setup_s; small"),
    ("cli.self_ms_per_job", "ms", "lower", "job_s.p50 and setup_s; small"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced job_s.p50"),
]

# percentiles in tenths of a percent, so the rule below stays exact
_PERCENTILES_PERMILLE = (500, 900, 990, 999)


def supported_percentile(samples: int) -> float | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    best = None
    for permille in _PERCENTILES_PERMILLE:
        if samples * (1000 - permille) >= 10 * 1000:
            best = permille / 10
    return best


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def timing_summary(seconds: list[float]) -> dict:
    """Median, sample count, and the highest percentile the count supports."""
    pct = supported_percentile(len(seconds))
    return {"p50": statistics.median(seconds), "samples": len(seconds),
            "highest_supported_percentile": pct,
            "at_highest_supported": None if pct is None else percentile(seconds, pct)}


def speed_scale(probes: list[float], reference_s: float) -> list[float]:
    """Factor that brings each timed interval to the reference speed, from
    the probes taken just before (``probes[i]``) and after (``probes[i + 1]``)
    interval ``i``: one factor per interval."""
    return [2 * reference_s / (before + after)
            for before, after in zip(probes, probes[1:])]


def job_layer_metrics(table: SpanTable, counts, distinct, job: int) -> dict[str, float]:
    """Every per-layer metric of one traced job except the overhead ratio.

    ``counts`` maps (job, key) to a number and ``distinct`` maps (job, key)
    to a set, as the span recorder collects them.
    """
    in_job = table.job == job
    nid, pnid = table.name_id[in_job], table.parent_name_id[in_job]
    dur = table.end[in_job] - table.start[in_job]
    self_time = table.self_time[in_job]
    end = table.end[in_job]

    def select(names):
        return np.isin(nid, table.ids(names))

    def calls(*names):
        return int(select(names).sum())

    def call_median_ms(name):
        d = dur[select([name])]
        return float(np.median(d)) * 1e3 if d.size else 0.0

    def self_ms(layer):
        return float(self_time[np.isin(nid, table.layer_ids(layer))].sum()) * 1e3

    def outermost_ms(*names):
        """Time in the named spans, counting nested ones among them once."""
        ids = table.ids(names)
        return float(dur[np.isin(nid, ids) & ~np.isin(pnid, ids)].sum()) * 1e3

    def count(key):
        return counts.get((job, key), 0)

    def per(total, n):
        return total / n if n else 0.0

    unet_roles = [f"network.unet_forward.{r}" for r in ("plain", "recon", "edit")]
    unet_calls = calls(*unet_roles)
    steps = calls("tensor.backward")
    pose_calls = calls("network.pose_encode")
    out = {
        "tensor.ops_per_job": count("tensor.ops"),
        "tensor.ops_per_unet_forward": per(count("tensor.ops_in_unet"), unet_calls),
        "tensor.self_ms_per_job": self_ms("tensor"),
        "tensor.tape_nodes_per_step": per(count("tensor.tape_nodes"), steps),
        "tensor.backward_ms_per_step": per(outermost_ms("tensor.backward"), steps),
        "tensor.adam_ms_per_step": per(outermost_ms("tensor.adam_step"), steps),
        "tensor.gc_pause_ms_per_job": count("tensor.gc_pause_s") * 1e3,
        "tensor.gc_collected_per_job": count("tensor.gc_collected"),
        "tensor.melt_ms_per_job": outermost_ms(
            "tensor.save_tensor", "tensor.load_tensor", "tensor.tensor_bytes",
            "tensor.tensor_from_bytes"),
        "diffusion.self_ms_per_job": self_ms("diffusion"),
        "attention.attend.calls_per_job": calls("attention.attend"),
        "attention.attend_batched.calls_per_job": calls("attention.attend_batched"),
        "attention.project_tokens.calls_per_job": calls("attention.project_tokens"),
        "attention.self_ms_per_job": self_ms("attention"),
        "injection.self_ms_per_job": self_ms("injection"),
        "injection.build_injected_kv.calls_per_job": calls("injection.build_injected_kv"),
        "injection.cache_bytes": count("injection.cache_bytes"),
        "injection.cache_writes": calls("injection.ReconCache.put_cs",
                                        "injection.ReconCache.put_temporal"),
        "injection.cache_reads": calls("injection.ReconCache.get_cs",
                                       "injection.ReconCache.get_temporal"),
        "adapter.calls_per_job": calls("adapter.adapter_forward"),
        "adapter.self_ms_per_job": self_ms("adapter"),
        "network.unet_forward.calls_per_job": unet_calls,
        "network.controlnet_forward.calls_per_job": calls("network.controlnet_forward"),
        "network.controlnet_forward.ms": call_median_ms("network.controlnet_forward"),
        "network.self_ms_per_job": self_ms("network"),
        "network.pose_encode.calls_per_job": pose_calls,
        "network.pose_encode.unique_ratio": per(
            len(distinct.get((job, "network.pose_encode.rasters"), ())), pose_calls),
        "pipeline.train_step_ms": per(outermost_ms("pipeline.one_shot_train"), steps),
        "skeleton.align_ms_per_job": outermost_ms("skeleton.align"),
        "skeleton.pgm_ms_per_job": outermost_ms(
            "skeleton.read_pgm", "skeleton.write_pgm", "skeleton.read_mask_pgm",
            "skeleton.write_mask_pgm"),
        "cli.self_ms_per_job": self_ms("cli"),
    }
    for role, name in zip(("plain", "recon", "edit"), unet_roles):
        out[f"network.unet_forward.ms.{role}"] = call_median_ms(name)
    # edit phases, delimited by the roles of the U-Net calls: inversion is
    # pipeline.invert, the recon branch ends with the last recon forward and
    # the edit branch with pipeline.edit
    invert = select(["pipeline.invert"])
    recon_ends = end[select(["network.unet_forward.recon"])]
    edit_ends = end[select(["pipeline.edit"])]
    if invert.any() and recon_ends.size and edit_ends.size:
        out["pipeline.invert_s"] = float(dur[invert].sum())
        out["pipeline.recon_branch_s"] = float(recon_ends.max() - end[invert].max())
        out["pipeline.edit_branch_s"] = float(edit_ends.max() - recon_ends.max())
    else:
        out.update({"pipeline.invert_s": 0.0, "pipeline.recon_branch_s": 0.0,
                    "pipeline.edit_branch_s": 0.0})
    return out
