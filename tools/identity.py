"""Check that this checkout's commands write the same output bytes as REV's.

    python3 tools/identity.py --against HEAD~ [--tolerance REL,ABS]

It compares the checkout it lives in ("head", uncommitted edits included)
with REV ("base"), which is checked out with ``git worktree`` into a
temporary directory (local, no network). Each bench seed's
inputs (seeds 1-3, written by ``perfbench/inputs.py`` of this checkout) are
written once, so both sides read the same bytes. Then ``edit``, ``edit
--drop-masked-tokens --inject-mid``, ``edit --inject-mid`` (the default
5N stacks at the mid layer too), ``edit --no-injection``, ``edit
--guidance 1`` (one forward per step, so no guided pair shares its work),
``edit`` with a one-word target prompt (so the cond forward, too, reads a
one-token text output), ``edit`` pinned to one CPU (so its step worker runs
in the same process, not in a forked child), ``edit`` without the source
pose (so the inversion asks the worker for no control sides) and ``edit``
injecting over the last half of the steps only (so the reconstruction walk
sends no cache writes before it), ``train``, ``reconstruct`` and ``align``
run on both sides, and their output trees are compared file by file.

Without ``--tolerance`` every file must be byte-identical. With it, each
value of a MELT tensor or of ``loss.csv`` may differ from REV's by at most
ABS + REL * |REV's value|; every other file must still be byte-identical. A
mismatching file is named, and for MELT and ``loss.csv`` files the largest
absolute and relative gaps are printed. Exit 0 when every tree matches, 1
when one does not or a command fails, 2 on a usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
COMMANDS = {
    "edit": ("edit",),
    "edit-drop-mid": ("edit", "--drop-masked-tokens", "--inject-mid"),
    "edit-mid": ("edit", "--inject-mid"),
    "edit-no-injection": ("edit", "--no-injection"),
    "edit-guidance-1": ("edit", "--guidance", "1"),
    "edit-one-word": ("edit",),
    "edit-one-cpu": ("edit",),
    "edit-no-recon-control": ("edit",),
    "edit-half-window": ("edit",),
    "train": ("train",),
    "reconstruct": ("reconstruct",),
    "align": ("align",),
}


def rewrite(config: str, out: str, change: Callable[[dict], None]) -> str:
    """Write to ``out`` a copy of the JSON config ``config`` with ``change``
    applied to its values; return ``out``."""
    with open(config) as fh:
        values = json.load(fh)
    change(values)
    with open(out, "w") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
    return out


def one_word_target(config: str, out: str) -> str:
    """``rewrite`` with the target prompt cut to its third word (the verb
    of the bench's "a figure <verb> right")."""
    def change(values: dict) -> None:
        values["prompts"]["target"] = values["prompts"]["target"].split()[2]
    return rewrite(config, out, change)


def setting(section: str, key: str, value) -> Callable[[str, str], str]:
    """A config rewrite that sets ``key`` of ``section`` to ``value``."""
    def change(values: dict) -> None:
        values.setdefault(section, {})[key] = value
    return functools.partial(rewrite, change=change)


CONFIGS = {  # label -> config rewrite
    "edit-one-word": one_word_target,
    "edit-no-recon-control": setting("alignment", "control_on_recon", False),
    "edit-half-window": setting("injection", "window_fraction", 0.5),
}


def one_cpu() -> None:
    """Pin the calling process to one of the CPUs it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


PREEXEC = {"edit-one-cpu": one_cpu}  # label -> run in the command's process first


@dataclass(frozen=True)
class Finding:
    """One file that is not byte-identical; ``ok`` if within the tolerance."""

    path: str
    ok: bool
    message: str


def parse_tolerance(text: str) -> tuple[float, float]:
    """``REL,ABS`` as two finite non-negative floats."""
    try:
        rel, abs_ = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"tolerance must be REL,ABS (two numbers), got {text!r}") from None
    if not all(math.isfinite(v) and v >= 0 for v in (rel, abs_)):
        raise argparse.ArgumentTypeError(
            f"tolerance values must be finite and >= 0, got {text!r}")
    return rel, abs_


def _melt_values(raw: bytes) -> tuple[bytes, np.ndarray] | None:
    """A MELT container's header (and any trailing bytes) and its values
    (magic, version, dtype, u32 rank and dims, f32 payload), parsed here so
    the check does not trust the program."""
    if len(raw) < 10 or raw[:4] != b"MELT":
        return None
    try:
        (rank,) = struct.unpack_from("<I", raw, 6)
        dims = struct.unpack_from(f"<{rank}I", raw, 10)
        offset = 10 + 4 * rank
        data = np.frombuffer(raw, dtype="<f4", count=math.prod(dims), offset=offset)
    except (struct.error, ValueError):
        return None
    return raw[:offset] + raw[offset + data.nbytes:], data


def _csv_values(raw: bytes) -> tuple[list[str], np.ndarray] | None:
    """A CSV's cells, with every number replaced by ``#``, and the numbers."""
    try:
        cells = [c for line in raw.decode().splitlines() for c in line.split(",")]
    except UnicodeDecodeError:
        return None
    texts, numbers = [], []
    for cell in cells:
        try:
            numbers.append(float(cell))
            texts.append("#")
        except ValueError:
            texts.append(cell)
    return texts, np.array(numbers)


def _numbers(name: str, raw: bytes):
    """What must match exactly and the values that may differ by the
    tolerance, for a MELT tensor or ``loss.csv``; None for any other file."""
    if name.endswith(".melt"):
        return _melt_values(raw)
    if os.path.basename(name) == "loss.csv":
        return _csv_values(raw)
    return None


def compare_file(name: str, base: bytes, head: bytes,
                 tolerance: tuple[float, float] | None) -> Finding | None:
    """None when the bytes are identical; otherwise what differs."""
    if base == head:
        return None
    nb, nh = _numbers(name, base), _numbers(name, head)
    if nb is None or nh is None:
        return Finding(name, False, "bytes differ")
    (frame_b, vb), (frame_h, vh) = nb, nh
    if frame_b != frame_h:
        return Finding(name, False, "shape, header or text differs")
    vb, vh = vb.astype(np.float64), vh.astype(np.float64)
    same = (vb == vh) | (np.isnan(vb) & np.isnan(vh))
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.where(same, 0.0, np.abs(vh - vb))
        gap[np.isnan(gap)] = np.inf  # a NaN or an infinity on one side only
        rel = np.where(same, 0.0, gap / np.abs(vb))
    gaps = (f"{int((~same).sum())} of {gap.size} values differ; "
            f"max abs gap {gap.max(initial=0.0):.3g}, "
            f"max rel gap {rel.max(initial=0.0):.3g}")
    if tolerance is not None:
        rel_tol, abs_tol = tolerance
        if (np.isfinite(gap) & (gap <= abs_tol + rel_tol * np.abs(vb))).all():
            return Finding(name, True, f"within tolerance: {gaps}")
    return Finding(name, False, gaps)


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def compare_trees(base: str, head: str,
                  tolerance: tuple[float, float] | None = None) -> list[Finding]:
    """Every file of the two trees that is missing on one side or differs."""
    fb, fh = _files(base), _files(head)
    found = [Finding(p, False, f"only under {'base' if p in fb else 'head'}")
             for p in sorted(fb ^ fh)]
    for p in sorted(fb & fh):
        with open(os.path.join(base, p), "rb") as a, open(os.path.join(head, p), "rb") as b:
            finding = compare_file(p, a.read(), b.read(), tolerance)
        if finding is not None:
            found.append(finding)
    return found


def _run(src: str, argv: list[str], preexec=None) -> str | None:
    """Run one vidmotion command with ``src`` on the path, calling
    ``preexec`` in its process first; None on success, else the exit code
    and the last line it printed."""
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # as the benchmark runs
    proc = subprocess.run([sys.executable, "-m", "vidmotion.cli", *argv],
                          env=env, capture_output=True, text=True,
                          preexec_fn=preexec)
    if proc.returncode == 0:
        return None
    lines = (proc.stderr or proc.stdout).strip().splitlines()
    return f"exit {proc.returncode}: {lines[-1] if lines else ''}"


def _git(*args: str) -> None:
    subprocess.run(["git", "-C", ROOT, *args], check=True,
                   stdout=subprocess.DEVNULL)


def _check_tree(name: str, argv: list[str], sides: dict[str, str], work: str,
                tolerance: tuple[float, float] | None, preexec=None) -> bool:
    """Run one command on both sides, print how their output trees compare,
    and return whether they match."""
    outs = {side: os.path.join(work, f"{side}-out", name.replace(" ", "-"))
            for side in sides}
    failed = [f"{side} {error}" for side, src in sides.items()
              if (error := _run(src, [*argv, "--out", outs[side]], preexec))]
    found = [] if failed else compare_trees(outs["base"], outs["head"], tolerance)
    matched = not failed and all(f.ok for f in found)
    verdict = ("FAILED" if failed else "MISMATCH" if not matched
               else "within tolerance" if found else "byte-identical")
    files = 0 if failed else len(_files(outs["head"]))
    print(f"{name}: {verdict} ({files} files)")
    for line in failed + [f"{f.path}: {f.message}" for f in found]:
        print(f"  {line}")
    return matched


def check(rev: str, tolerance: tuple[float, float] | None, work: str) -> int:
    """Run every command on both sides under ``work``; return the number of
    output trees that do not match."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import inputs

    base_root = os.path.join(work, "base")
    _git("worktree", "add", "--detach", "--quiet", base_root, rev)
    try:
        sides = {"base": os.path.join(base_root, "src"), "head": os.path.join(ROOT, "src")}
        bad = 0
        for seed in SEEDS:
            inputs_dir = os.path.join(work, f"inputs-{seed}")
            config = inputs.write_inputs(seed, inputs_dir)
            for label, (command, *flags) in COMMANDS.items():
                rewrite = CONFIGS.get(label)
                path = (config if rewrite is None
                        else rewrite(config, os.path.join(inputs_dir, f"{label}.json")))
                bad += not _check_tree(f"seed {seed} {label}",
                                       [command, "--config", path, *flags],
                                       sides, work, tolerance, PREEXEC.get(label))
        return bad
    finally:
        _git("worktree", "remove", "--force", base_root)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare with, e.g. HEAD~")
    parser.add_argument("--tolerance", type=parse_tolerance, default=None,
                        metavar="REL,ABS",
                        help="accept MELT and loss.csv values this close")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="identity-") as work:
        try:
            bad = check(args.against, args.tolerance, work)
        except subprocess.CalledProcessError as exc:
            print(f"git failed: {exc}", file=sys.stderr)
            return 2
    trees = len(SEEDS) * len(COMMANDS)
    print(f"{trees - bad}/{trees} output trees match {args.against}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
