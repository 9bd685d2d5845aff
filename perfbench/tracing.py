"""Span recorder for the traced run, and the wrappers that attach it to
vidmotion's modules from outside.

Every public function of the traced modules, and every public method of
their classes, is replaced by a wrapper that opens a span on entry and closes
it on exit. A span records name, start, end, parent span and job id in flat
arrays that stay in memory until ``save`` writes them. Counts are taken at
the same wrappers. ``uninstall`` puts the original functions back.
"""
from __future__ import annotations

import functools
import gc
import hashlib
import importlib
import inspect
import time
from array import array
from dataclasses import dataclass

import numpy as np

LAYERS = ("tensor", "diffusion", "attention", "injection", "adapter",
          "skeleton", "network", "pipeline", "cli")


class SpanRecorder:
    """Spans and per-job counts of one traced run (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.job_id = -1
        self.ops = 0  # tensor ops so far, counted at tensor._result
        self.counts: dict[tuple[int, str], float] = {}
        self.distinct: dict[tuple[int, str], set] = {}
        self._gc_started = 0.0
        self._job_ops = 0

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job: int) -> None:
        self.job_id = job
        self._job_ops = self.ops

    def end_job(self) -> None:
        self.add("tensor.ops", self.ops - self._job_ops)
        self.job_id = -1

    def add(self, key: str, amount: float = 1) -> None:
        k = (self.job_id, key)
        self.counts[k] = self.counts.get(k, 0) + amount

    def note_distinct(self, key: str, value) -> None:
        self.distinct.setdefault((self.job_id, key), set()).add(value)

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.add("tensor.gc_pause_s", time.perf_counter() - self._gc_started)
            self.add("tensor.gc_collected", info["collected"])

    def table(self) -> "SpanTable":
        return SpanTable.build(
            self.names, np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.job, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64))

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 parent=self.parent, job=self.job, start=self.start, end=self.end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans are strictly nested (one thread), so children never overlap and
    the covered time is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


@dataclass
class SpanTable:
    names: list[str]
    name_id: np.ndarray
    parent_name_id: np.ndarray  # -1 for root spans
    job: np.ndarray
    start: np.ndarray
    end: np.ndarray
    self_time: np.ndarray

    @classmethod
    def build(cls, names, name_id, parent, job, start, end) -> "SpanTable":
        parent_name_id = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)
        return cls(list(names), name_id, parent_name_id, job, start, end,
                   self_times(parent, start, end))

    def ids(self, names) -> np.ndarray:
        wanted = set(names)
        return np.array([i for i, n in enumerate(self.names) if n in wanted],
                        dtype=np.int32)

    def layer_ids(self, layer: str) -> np.ndarray:
        return self.ids(n for n in self.names if n.split(".", 1)[0] == layer)


def raster_digest(raster) -> str:
    arr = np.ascontiguousarray(np.asarray(raster))
    return hashlib.blake2b(arr.tobytes() + str(arr.shape).encode(),
                           digest_size=16).hexdigest()


def _note_pose_raster(rec: SpanRecorder, args: dict) -> None:
    rec.note_distinct("network.pose_encode.rasters", raster_digest(args["raster"]))


def _note_tape_nodes(rec: SpanRecorder, args: dict) -> None:
    rec.add("tensor.tape_nodes", len(args["tape"].nodes))


def _note_cache_bytes(rec: SpanRecorder, args: dict) -> None:
    cache = args["self"]
    entries = list(cache.cs.values()) + list(cache.temporal.values())
    rec.add("injection.cache_bytes", sum(k.nbytes + v.nbytes for k, v in entries))


# wrappers that read an argument before the call, by span name
_NOTES = {
    "network.pose_encode": _note_pose_raster,
    "tensor.backward": _note_tape_nodes,
    "injection.ReconCache.freeze": _note_cache_bytes,
}


def _traced(rec: SpanRecorder, fn, name: str):
    note = _NOTES.get(name)
    sig = inspect.signature(fn) if note is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if note is not None:
            note(rec, sig.bind(*args, **kwargs).arguments)
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    return traced


def _traced_unet(rec: SpanRecorder, fn, name: str):
    """U-Net forward spans are named by their role; they also count the
    tensor ops run inside them."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        role = sig.bind(*args, **kwargs).arguments.get("role", "plain")
        ops = rec.ops
        idx = rec.open(f"{name}.{role}")
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
            rec.add("tensor.ops_in_unet", rec.ops - ops)
    return traced


def install(rec: SpanRecorder):
    """Wrap vidmotion's traced modules; return a function that undoes it."""
    patches = []

    def patch(owner, attr, wrapper):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    for layer in LAYERS:
        mod = importlib.import_module(f"vidmotion.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj):
                make = _traced_unet if name == "network.unet_forward" else _traced
                patch(mod, attr, make(rec, obj, name))
            elif inspect.isclass(obj):
                for mattr, method in list(vars(obj).items()):
                    if not mattr.startswith("_") and inspect.isfunction(method):
                        patch(obj, mattr, _traced(rec, method, f"{name}.{mattr}"))

    tensor = importlib.import_module("vidmotion.tensor")
    result = tensor._result

    def counted_result(*args, **kwargs):
        rec.ops += 1
        return result(*args, **kwargs)
    patch(tensor, "_result", counted_result)
    gc.callbacks.append(rec.on_gc)

    def uninstall():
        gc.callbacks.remove(rec.on_gc)
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    return uninstall
