"""Shared helpers: inputs, percentiles with a sample-count rule, RSS, output."""

from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for generated inputs, oracles, logs and span dumps.
WORK = ROOT / ".perfbench_work"

#: End-to-end metric -> (unit, better); BENCHMARK.json lists the same.
E2E_UNITS = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "rate": ("1/s", "higher"),
    "typical_ms": ("ms", "lower"),
}


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile, refusing thin samples.

    A percentile is only reported when at least ten samples lie beyond
    it: p50 needs 20 samples, p90 100, p95 200, p99 1000.
    """
    need = math.ceil(1000 / (100 - q) - 1e-9)
    if len(samples) < need:
        raise TooFewSamples(f"p{q} needs >= {need} samples, got {len(samples)}")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    if pos == lo or a == b:
        return a
    if math.isinf(b):  # failed requests sort last as infinite latency
        return b
    return a + (b - a) * (pos - lo)


def pct_ms(samples_s, q: float) -> float:
    """Percentile in ms of samples in seconds, or 0 when unsupported."""
    try:
        return 1e3 * percentile(samples_s, q)
    except TooFewSamples:
        return 0.0


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_cpu_s(pid: int) -> float:
    """CPU seconds (user + system, all threads) a live process and its
    descendants have used: live ones are read from ``/proc``, ended ones
    through their parent's reaped-children times, so work handed to
    worker processes still counts."""
    ticks = 0
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
        ticks = sum(int(f) for f in fields[11:15])  # utime stime cutime cstime
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                ticks += sum(round(pid_cpu_s(int(c)) * os.sysconf("SC_CLK_TCK"))
                             for c in fh.read().split())
    except (FileNotFoundError, ProcessLookupError):
        pass  # the process ended between listing and reading
    return ticks / os.sysconf("SC_CLK_TCK")


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``, MB)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    A helper that outlives its own parent (the resource tracker a
    server or a process pool starts, say) is then re-parented here
    instead of to init, so :func:`reap_children` can wait for it.
    """
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1)


def _live_children() -> list[int]:
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                pids += [int(c) for c in fh.read().split()]
        except FileNotFoundError:
            pass
    return pids


def reap_children(grace_s: float = 2.0, term_s: float = 10.0) -> None:
    """Stop every process this one started or adopted, and wait for each.

    The multiprocessing resource tracker is shut down the way it expects
    (its pipe closed, then waited for). Any other child gets ``grace_s``
    to end by itself, then SIGTERM, and SIGKILL ``term_s`` later.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    signals = iter((signal.SIGTERM, signal.SIGKILL))
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left, live or zombie
        if pid:
            continue
        if time.monotonic() >= deadline:
            sig = next(signals, signal.SIGKILL)
            for child in _live_children():
                try:
                    os.kill(child, sig)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + term_s
        time.sleep(0.02)


def src_env() -> dict:
    """Environment for child processes that import the program from ``src``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _prepare(what: str, seed: int, out: Path, *extra: Path) -> Path:
    if not out.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "prepare.py"), what, str(seed), str(out),
             *map(str, extra)],
            check=True, env=src_env(), cwd=ROOT,
        )
    return out


def ensure_inputs(workload: str, seed: int) -> Path:
    """Generate (or reuse) the input files of ``workload``.

    The diameter workload relabels the pinned analogs from the seed; the
    serve workloads' tenant graphs are pinned and the seed drives their
    traffic instead.
    """
    folder = WORK / "inputs" / workload
    if workload != "diameter-paper17":
        return _prepare(workload, seed, folder / "pinned")
    reference = _prepare("diameter-paper17-reference", 0, folder / "pinned")
    return _prepare(workload, seed, folder / f"seed-{seed}", reference)


def overhead_shares(untraced: dict, traced: dict) -> dict:
    """``trace.overhead_share.<metric>``: how much worse tracing made each."""
    out = {}
    for name, (_unit, better) in E2E_UNITS.items():
        a, b = untraced[name], traced[name]
        delta = (b - a) if better == "lower" else (a - b)
        out[f"trace.overhead_share.{name}"] = delta / a if a and b else 0.0
    return out


def report(title: str, result: dict) -> None:
    """The human-readable part of the output (before the result line)."""
    print(f"== {title}")
    for section in ("e2e", "detail"):
        for key, value in result.get(section, {}).items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"  {section}.{key} = {shown}")
    for line in result.get("wrong", [])[:20]:
        print(f"  WRONG {line}")
    sys.stdout.flush()


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k][0]} for k, v in metrics.items()},
    }), flush=True)
