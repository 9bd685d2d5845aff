"""vidmotion benchmark: single-process and closed-loop, with one client.

    python3 perfbench/run.py --workload edit --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It generates one seed's inputs (timed as
set-up, in fresh interpreters), imports vidmotion from the checkout's
``src``, runs a two-step warm-up of the workload's command, then runs one job
at a time, each an in-process call of ``vidmotion.cli.main``, until
``--seconds`` have passed. Every job's outputs are checked.

``--trace 0`` prints the end-to-end metrics of the untraced loop. ``--trace
1`` spends half the time untraced and half with spans recorded around every
public function of the traced modules, and prints the per-layer metrics.
The last line of stdout is the result as JSON; the line before it is the
detail record (environment, seed, raw wall times, sample counts, failures).

The host's speed drifts by up to 2x over minutes, which moves every timing
of a run together. So ``--trace 0`` runs a fixed speed probe before each
set-up and job and after the last, and reports each set-up and job time
scaled to a reference speed by the mean of the probes on either side of it.
"""
from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads. The matrices are tiny, so a second
# OpenBLAS thread only spins: on 2 cores it doubled CPU time, gave no speed-up
# and made job times noisier.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import jobs  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
from inputs import FRAMES  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
SETUP_REPEATS = 5
PROBE_ITERATIONS = 6000
PROBE_REFERENCE_S = 0.15  # the probe's time on a 2-core Xeon host at its fastest


def timed_setups(seed: int, inputs_dir: str, repeats: int,
                 probes: list[float] | None = None) -> tuple[list[float], set[str]]:
    """Generate the inputs ``repeats`` times, each in a fresh interpreter that
    imports vidmotion, writes the inputs and the checkpoint. Returns the wall
    seconds of each and the digests of what they wrote. With a ``probes``
    list, a speed probe runs before each set-up and after the last."""
    seconds, digests = [], set()
    for _ in range(repeats):
        if probes is not None:
            probes.append(speed_probe())
        shutil.rmtree(inputs_dir, ignore_errors=True)
        started = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time to 50 ms
        subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"),
                        "--seed", str(seed), "--out", inputs_dir],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        seconds.append(time.perf_counter() - started)
        digests.add(jobs.tree_digest(inputs_dir))
    if probes is not None:
        probes.append(speed_probe())
    return seconds, digests


def import_program():
    """Import vidmotion.cli from the checkout's src, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import vidmotion.cli

    if not os.path.abspath(vidmotion.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"vidmotion imported from {vidmotion.cli.__file__}, not {src}")
    return vidmotion.cli


def git_commit() -> str | None:
    """The checkout's commit from .git, read directly; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int, load_start) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": NPROC,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def speed_probe() -> float:
    """Wall seconds of a fixed piece of work that touches neither vidmotion
    nor the inputs: small numpy operations dispatched from Python, the same
    kind of work a job does."""
    a = np.linspace(-1.0, 1.0, 64 * 32, dtype=np.float32).reshape(64, 32)
    w = np.full((32, 32), 0.01, dtype=np.float32)
    started = time.perf_counter()
    for _ in range(PROBE_ITERATIONS):
        b = a @ w
        c = np.concatenate([b[:8], b[8:]])
        e = np.exp(c - c.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
    return time.perf_counter() - started


def timed_loop(cli, workload, config, out_dir, reference, seconds, log,
               recorder=None, probes=None):
    """Run jobs one at a time until ``seconds`` have passed (at least one).

    Every job's output bytes must equal ``reference``, or, when that is None,
    the first job's. With a ``probes`` list, a speed probe runs before each
    job and after the last. Returns, per job, its wall seconds, the seconds
    of its whole cycle (job and checks) and whether it passed; and the
    reference digest.
    """
    started = time.perf_counter()
    cycles = []
    while not cycles or time.perf_counter() - started < seconds:
        if probes is not None:
            probes.append(speed_probe())
        cycle_started = time.perf_counter()
        if recorder is not None:
            recorder.begin_job(len(cycles))
        elapsed, problems, digest = jobs.run_job(cli.main, workload, config,
                                                 out_dir, reference)
        if recorder is not None:
            recorder.end_job()
        log.record(elapsed, problems)
        cycles.append((elapsed, time.perf_counter() - cycle_started, not problems))
        reference = reference or digest
    if probes is not None:
        probes.append(speed_probe())
    return cycles, reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vidmotion benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_start = os.getloadavg()
    workload = jobs.WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    inputs_dir = os.path.join(run_dir, "inputs")
    out_dir = os.path.join(run_dir, "out")

    setup_probes = [] if args.trace == 0 else None
    try:
        setup_s, setup_digests = timed_setups(
            args.seed, inputs_dir, SETUP_REPEATS if args.trace == 0 else 1,
            setup_probes)
        cli = import_program()
    except (subprocess.SubprocessError, OSError, ImportError) as exc:
        shutil.rmtree(run_dir, ignore_errors=True)
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    config = os.path.join(inputs_dir, "config.json")

    warm = jobs.JobLog()
    if len(setup_digests) != 1:
        warm.problems.append("set-up wrote different bytes on different runs")
    warm.record(0.0, jobs.warm_up(cli.main, workload, config, out_dir))

    detail = {"workload": args.workload, "trace": args.trace}
    if args.trace == 0:
        loop, probes = jobs.JobLog(), []
        cycles, _ = timed_loop(cli, workload, config, out_dir, None,
                               args.seconds, loop, probes=probes)
        logs = [warm, loop]
        scale = metrics.speed_scale(probes, PROBE_REFERENCE_S)
        job_s = [s * f for (s, _, ok), f in zip(cycles, scale) if ok]
        loop_s = sum(c * f for (_, c, _), f in zip(cycles, scale))
        setup_scaled = [s * f for s, f in zip(
            setup_s, metrics.speed_scale(setup_probes, PROBE_REFERENCE_S))]
        detail["job_s"] = metrics.timing_summary(job_s) if job_s else None
        detail["wall"] = {"setup_s": setup_s, "setup_probe_s": setup_probes,
                          "job_s": [c[0] for c in cycles], "probe_s": probes}
        values = {
            "setup_s": statistics.median(setup_scaled),
            "job_s.p50": detail["job_s"]["p50"] if job_s else None,
            "frames_per_s": FRAMES * len(job_s) / loop_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        table = metrics.END_TO_END
    else:
        plain, traced = jobs.JobLog(), jobs.JobLog()
        _, reference = timed_loop(cli, workload, config, out_dir, None,
                                  args.seconds / 2, plain)
        recorder = tracing.SpanRecorder()
        uninstall = tracing.install(recorder)
        try:
            timed_loop(cli, workload, config, out_dir, reference, args.seconds / 2,
                       traced, recorder)
        finally:
            uninstall()
        logs = [warm, plain, traced]
        values = layer_values(recorder, traced.attempted)
        values["trace.overhead_ratio"] = (
            statistics.median(traced.seconds) / statistics.median(plain.seconds)
            if plain.seconds and traced.seconds else None)
        detail["job_s_untraced"] = plain.seconds
        detail["job_s_traced"] = traced.seconds
        detail["spans"] = len(recorder.end)
        recorder.save(os.path.join(WORK, f"spans-{args.workload}.npz"))
        table = metrics.PER_LAYER

    shutil.rmtree(run_dir, ignore_errors=True)
    detail.update(environment(args.seed, load_start))
    total = jobs.JobLog(attempted=sum(log.attempted for log in logs),
                        failed=sum(log.failed for log in logs),
                        problems=[p for log in logs for p in log.problems])
    detail.update({"attempted": total.attempted, "failed": total.failed,
                   "fail_rate": total.fail_rate, "problems": total.problems[:20]})
    correct = total.failed == 0 and not total.problems
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed,
                      "metrics": {row[0]: {"value": values[row[0]], "unit": row[1]}
                                  for row in table}}))
    return 0 if correct else 1


def layer_values(recorder: tracing.SpanRecorder, jobs_run: int) -> dict[str, float]:
    """Median over the traced jobs of each per-job layer metric."""
    table = recorder.table()
    per_job = [metrics.job_layer_metrics(table, recorder.counts, recorder.distinct, j)
               for j in range(jobs_run)]
    return {name: statistics.median(job[name] for job in per_job)
            for name in per_job[0]}


if __name__ == "__main__":
    sys.exit(main())
