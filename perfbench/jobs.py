"""The benchmark's workloads, one job of each, and the checks on a job's outputs.

A job is one in-process call of ``vidmotion.cli.main`` on the generated
inputs. A job fails on a non-zero exit, an exception or a failed output check.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from inputs import TRAIN_STEPS


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple[str, ...] = ()

    def argv(self, config: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config, "--out", out_dir, *self.flags]

    def check(self, out_dir: str) -> list[str]:
        """Problems found in one job's outputs; empty when they are correct."""
        if self.command == "train":
            return check_train(out_dir, TRAIN_STEPS)
        return check_edit(out_dir)


# why each was chosen is in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("edit", "edit"),
    Workload("edit-drop-mid", "edit", ("--drop-masked-tokens", "--inject-mid")),
    Workload("train", "train"),
)}


def _melt_is_finite(path: str) -> bool:
    """Parse a MELT file (magic, version, dtype, rank, dims, f32 payload)
    without the program, so the check is neither traced nor trusting it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"MELT":
        return False
    try:
        (rank,) = struct.unpack_from("<I", raw, 6)
        count = math.prod(struct.unpack_from(f"<{rank}I", raw, 10))
        data = np.frombuffer(raw, dtype="<f4", count=count, offset=10 + 4 * rank)
    except (struct.error, ValueError):
        return False
    return bool(np.isfinite(data).all())


def check_edit(out_dir: str) -> list[str]:
    """Both latents finite and the report's cache counters present; that they
    match across jobs is checked with the rest of the output bytes."""
    problems = []
    for name in ("edited.melt", "reconstructed.melt"):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name} missing")
        elif not _melt_is_finite(path):
            problems.append(f"{name} has non-finite values")
    try:
        with open(os.path.join(out_dir, "edit_report.json")) as fh:
            cache = json.load(fh)["cache"]
        if not all(isinstance(cache[k], int) and cache[k] >= 0
                   for k in ("writes", "reads_cs", "reads_temporal")):
            problems.append(f"cache counters malformed: {cache}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"edit_report.json unreadable: {exc!r}")
    return problems


def check_train(out_dir: str, steps: int) -> list[str]:
    try:
        with open(os.path.join(out_dir, "loss.csv")) as fh:
            rows = fh.read().splitlines()[1:]
    except OSError as exc:
        return [f"loss.csv unreadable: {exc!r}"]
    if len(rows) != steps:
        return [f"loss.csv has {len(rows)} rows, expected {steps}"]
    for row in rows:
        try:
            value = float(row.split(",")[1])
        except (IndexError, ValueError):
            return [f"loss.csv row {row!r} is malformed"]
        if not math.isfinite(value):
            return [f"loss.csv row {row!r} is not finite"]
    return []


def tree_digest(root: str) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


@dataclass
class JobLog:
    """Jobs attempted and failed, and the wall seconds of each passing job."""

    attempted: int = 0
    failed: int = 0
    seconds: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def record(self, seconds: float, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        else:
            self.seconds.append(seconds)

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _call(main, argv: list[str]) -> tuple[float, list[str]]:
    """Call the program in-process; return wall seconds and problems.

    The program's own stdout is captured so the benchmark's last line stays
    its result.
    """
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except (Exception, SystemExit):  # a crashed job is a failed job
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - started, ["job raised"]
    return time.perf_counter() - started, [] if code == 0 else [f"exit code {code}"]


def warm_up(main, workload: Workload, config: str, out_dir: str) -> list[str]:
    """A two-step run of the workload's command, so lazy set-up in the
    program and in numpy is done before timing; only its exit is checked."""
    shutil.rmtree(out_dir, ignore_errors=True)
    return _call(main, workload.argv(config, out_dir) + ["--steps", "2"])[1]


def run_job(main, workload: Workload, config: str, out_dir: str,
            reference_digest: str | None) -> tuple[float, list[str], str | None]:
    """Run one job; return its wall seconds, its problems and its digest."""
    shutil.rmtree(out_dir, ignore_errors=True)
    seconds, problems = _call(main, workload.argv(config, out_dir))
    if problems:
        return seconds, problems, None
    problems = workload.check(out_dir)
    digest = tree_digest(out_dir)
    if reference_digest is not None and digest != reference_digest:
        problems.append("output bytes differ from the first job's")
    return seconds, problems, digest
