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
sends no cache writes before it), ``train``, ``train`` on a one-word source
prompt (so every forward of the run reads one-token text outputs),
``train`` without ``paths.checkpoint`` (so it draws its model from the seed
instead of loading the bench checkpoint), ``reconstruct`` and ``align`` run
on both sides, and their output trees are compared file by file.
``selftest`` and ``selftest --corrupt-gradient`` run on both sides too, and
their exit codes and printed lines, each row's seconds and the total time
dropped, must agree.

Without ``--tolerance`` every file must be byte-identical. With it, each
value of a MELT tensor or of ``loss.csv`` may differ from REV's by at most
ABS + REL * |REV's value|; every other file must still be byte-identical. A
mismatching file is named, and for MELT and ``loss.csv`` files the largest
absolute and relative gaps are printed, and so are the lines in which
the two ``selftest`` outputs differ. After the verdicts it prints each
side's tensor-op count for one ``edit``, ``edit --drop-masked-tokens
--inject-mid`` and ``train`` job on seed 1 (calls of
``vidmotion.tensor._result`` in a child interpreter pinned to one CPU, so the
step worker runs in-process and every op is counted), and the lines ``src/``
gained and lost against REV (``git diff --numstat``, working tree included).
The op counts are informational. Exit 0 when every tree and ``selftest``
output matches, 1 when one does not or a command fails, 2 on a usage error.
"""
from __future__ import annotations

import argparse
import difflib
import functools
import json
import math
import os
import re
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
    "train-one-word": ("train",),
    "train-no-checkpoint": ("train",),
    "reconstruct": ("reconstruct",),
    "align": ("align",),
}
SELFTESTS = (("selftest",), ("selftest", "--corrupt-gradient"))
OP_COUNTED = ("edit", "edit-drop-mid", "train")  # labels whose seed-1 ops are counted
_COUNT_OPS = """\
import sys
from vidmotion import cli, tensor
ops, result = [0], tensor._result
def counted(*args, **kwargs):
    ops[0] += 1
    return result(*args, **kwargs)
tensor._result = counted
code = cli.main(sys.argv[1:])
print(ops[0])
sys.exit(code)
"""


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


def no_checkpoint(config: str, out: str) -> str:
    """``rewrite`` with ``paths.checkpoint`` dropped."""
    def change(values: dict) -> None:
        del values["paths"]["checkpoint"]
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
    "train-one-word": setting("prompts", "source", "walking"),
    "train-no-checkpoint": no_checkpoint,
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


_ROW_SECONDS = re.compile(r"^((?:PASS|FAIL)  \S+) +\d+\.\d+s  ")
_TOTAL_SECONDS = re.compile(r", \d+\.\d+s total$")


def timeless(stdout: str) -> list[str]:
    """``selftest``'s lines with each row's seconds and the total time
    dropped."""
    return [_TOTAL_SECONDS.sub("", _ROW_SECONDS.sub(r"\1  ", line))
            for line in stdout.splitlines()]


def _cli(src: str, argv: list[str], preexec=None,
         program: tuple[str, ...] = ("-m", "vidmotion.cli")) -> subprocess.CompletedProcess:
    """Run one vidmotion command with ``src`` on the path, calling
    ``preexec`` in its process first; ``program`` is what the interpreter
    runs it with."""
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # as the benchmark runs
    return subprocess.run([sys.executable, *program, *argv],
                          env=env, capture_output=True, text=True,
                          preexec_fn=preexec)


def op_count(src: str, argv: list[str]) -> int | None:
    """The tensor ops of one vidmotion command run with ``src`` on the path,
    pinned to one CPU so that its step worker runs in-process; None if the
    command fails."""
    proc = _cli(src, argv, one_cpu, ("-c", _COUNT_OPS))
    return int(proc.stdout.split()[-1]) if proc.returncode == 0 else None


def op_line(label: str, counts: dict[str, int | None]) -> str:
    """How the two sides' op counts of one ``label`` job compare."""
    base, head = counts["base"], counts["head"]
    shown = ["failed" if n is None else f"{n:,}" for n in (base, head)]
    delta = "" if base is None or head is None else f" ({head - base:+,d})"
    return f"tensor ops, one in-process seed-1 {label}: {shown[0]} -> {shown[1]}{delta}"


def _run(src: str, argv: list[str], preexec=None) -> str | None:
    """``_cli``; None on success, else the exit code and the last line it
    printed."""
    proc = _cli(src, argv, preexec)
    if proc.returncode == 0:
        return None
    lines = (proc.stderr or proc.stdout).strip().splitlines()
    return f"exit {proc.returncode}: {lines[-1] if lines else ''}"


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def numstat_totals(numstat: str) -> tuple[int, int]:
    """The lines added and deleted over every file of ``git diff --numstat``
    output; a binary file, counted as ``-``, adds none."""
    added = deleted = 0
    for line in numstat.splitlines():
        plus, minus, _ = line.split("\t", 2)
        if plus != "-":
            added, deleted = added + int(plus), deleted + int(minus)
    return added, deleted


def _check_tree(name: str, argv: list[str], sides: dict[str, str], work: str,
                tolerance: tuple[float, float] | None, preexec=None) -> bool:
    """Run one command on both sides, print how their output trees compare,
    and return whether they match."""
    outs = {side: os.path.join(work, f"{side}-out", name.replace(" ", "-"))
            for side in sides}
    for out in outs.values():  # a command makes its --out, not the parents
        os.makedirs(os.path.dirname(out), exist_ok=True)
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


def _check_selftest(argv: tuple[str, ...], sides: dict[str, str]) -> bool:
    """Run ``selftest`` on both sides, print whether their exit codes and
    ``timeless`` lines agree (and the lines that differ), and return
    whether they do."""
    runs = [_cli(sides[side], list(argv)) for side in ("base", "head")]
    codes = [proc.returncode for proc in runs]
    base, head = (timeless(proc.stdout) for proc in runs)
    matched = codes[0] == codes[1] and base == head
    verdict = (f"identical apart from timings (exit {codes[1]})" if matched
               else f"MISMATCH (exit {codes[0]} -> {codes[1]})")
    print(f"{' '.join(argv)}: {verdict}")
    for line in difflib.ndiff(base, head):
        if line.startswith(("- ", "+ ")):
            print(f"  {line}")
    return matched


def check(rev: str, tolerance: tuple[float, float] | None,
          work: str) -> tuple[int, int, list[str]]:
    """Run every command and ``selftest`` on both sides under ``work``;
    return the number of output trees and of ``selftest`` runs that do not
    match, and the ``op_line`` of each ``OP_COUNTED`` label."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import inputs

    base_root = os.path.join(work, "base")
    _git("worktree", "add", "--detach", "--quiet", base_root, rev)
    try:
        sides = {"base": os.path.join(base_root, "src"), "head": os.path.join(ROOT, "src")}
        bad, counted = 0, []
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
                if seed == 1 and label in OP_COUNTED:
                    out = os.path.join(work, "ops-out", label)
                    os.makedirs(out, exist_ok=True)
                    counted.append(op_line(label, {
                        side: op_count(src, [command, "--config", path, *flags,
                                             "--out", os.path.join(out, side)])
                        for side, src in sides.items()}))
        bad_selftests = sum(not _check_selftest(argv, sides) for argv in SELFTESTS)
        return bad, bad_selftests, counted
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
            bad, bad_selftests, counted = check(args.against, args.tolerance, work)
            numstat = _git("diff", "--numstat", args.against, "--", "src")
        except subprocess.CalledProcessError as exc:
            print(f"git failed: {exc}", file=sys.stderr)
            return 2
    trees = len(SEEDS) * len(COMMANDS)
    print(f"{trees - bad}/{trees} output trees match {args.against}")
    print(f"{len(SELFTESTS) - bad_selftests}/{len(SELFTESTS)} selftest runs "
          f"match {args.against} apart from timings")
    print("\n".join(counted))
    added, deleted = numstat_totals(numstat)
    print(f"src/: +{added} -{deleted} lines (net {added - deleted:+d}) "
          f"against {args.against}")
    return 1 if bad or bad_selftests else 0


if __name__ == "__main__":
    sys.exit(main())
