"""Shared plumbing for the repository benchmark.

- :func:`now` is the benchmark's only host-clock read;
- :func:`probe_s` times a fixed probe loop, so host times can be scaled
  to a reference host speed;
- :class:`PassResult` is what one timed pass of a workload returns;
- :func:`execute` runs one workload: repeated set-up, the untimed
  per-pass preparation, the timed steady-state passes, the oracles,
  the determinism check and, with ``trace``, the separate traced run.

A workload class provides ``name``, ``work_unit`` and ``PER_LAYER``
(metric name -> ``(unit, better)``), a constructor that makes every
input from the seed, and ``setup``, ``prepare``, ``run`` (one timed
pass, returning a :class:`PassResult`), ``oracle`` (named checks),
``figures`` (its own end-to-end figures), ``hooks`` (the calls the
traced run wraps) and ``layer_counts`` (the counts it reports per
layer; self times and declared figures are picked up by name).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy

#: Set-up runs at least this many times per command, and until
#: ``SETUP_MIN_S`` of set-up time is measured; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
#: At least this many timed passes, however long each one takes.
MIN_PASSES = 3
#: Traced passes; their counts must agree and their times are averaged.
TRACE_PASSES = 2
#: Probe runs after each set-up and each timed pass.
PROBES = 4
#: Duration of one :func:`probe_s` at the reference host speed (an idle
#: two-vCPU Intel Xeon KVM guest). The host speed of a phase is
#: ``PROBE_REF_S`` over the mean probe time in it; host times are
#: multiplied by it and host rates divided by it.
PROBE_REF_S = 0.010
#: Largest tolerated gap between layer self times + ``other_s`` and the
#: traced total (float rounding over a few hundred thousand spans).
BALANCE_TOL_S = 1e-6

Metric = Tuple[float, str]
#: Per-layer metrics every workload's traced run reports: the unscaled
#: host figures beside the end-to-end ones, and the trace accounting.
ACCOUNTING = {
    "host_throughput_per_s": ("1/s", "higher"),
    "host_setup_s": ("s", "lower"),
    "host_speed": ("ratio", "higher"),
    "other_s": ("s", "lower"),
    "traced_total_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


def now() -> float:
    """Monotonic host seconds; every benchmark timing reads it here."""
    return time.perf_counter()  # repro-lint: ignore[TIM001] — benchmark host time, never simulated time


def _probe_loop(small: numpy.ndarray) -> float:
    table: Dict[Tuple[int, int], int] = {}
    acc = 0.0
    for i in range(20000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        acc += i * 1.0000001
    acc += len(sorted(str(i) for i in range(5000)))
    for i in range(1500):
        acc += float(numpy.sort(small * i).sum())
    return acc


def probe_s() -> float:
    """Host seconds of one run of a fixed probe loop (~10 ms when idle).

    On a shared VM a neighbour slows a vCPU by up to 2x, in bursts of
    tens of milliseconds whose share of the time moves from second to
    second and minute to minute. The mean of many probe runs tracks that
    share, and the workloads slow in proportion to it. The probe mixes
    interpreter work (dicts, tuples, sorting) with small-array NumPy
    calls, as the workloads do; it calls nothing in ``repro``, so a
    change to the program never moves it.
    """
    small = numpy.linspace(0.0, 1.0, 64)
    t0 = now()
    _probe_loop(small)
    return now() - t0


def host_speed(probes: List[float]) -> float:
    """Host speed over a phase: 1.0 at the reference, 0.5 at half of it."""
    return PROBE_REF_S / statistics.mean(probes)


def settle_disk() -> None:
    """Write dirty pages out before a timed phase.

    Set-up, preparation and earlier passes write and delete thousands of
    small files; left to the kernel, their writeback lands in whichever
    pass comes next and slows it by an amount that depends on the disk's
    other users. Flushed first, each pass pays for its own writes only.
    """
    os.sync()


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: numpy.ndarray, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = numpy.sort(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


@dataclass
class PassResult:
    """One timed pass of a workload.

    ``work`` feeds ``norm_throughput_per_s``; ``attempted``/``failed`` feed
    the error rate. ``sim`` (simulated outcomes) and ``counts`` (work
    counts the program reports) must repeat exactly from pass to pass
    and run to run for a seed. ``timings`` holds host-time figures the
    workload reports beside the throughput.
    """

    work: int
    attempted: int
    failed: int = 0
    sim: Dict[str, Any] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, Any] = field(default_factory=dict)


def _commit(root: pathlib.Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = root / ".git" / name
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        return platform.processor() or "unknown"
    return platform.processor() or "unknown"


def provenance(root: pathlib.Path, seed: int) -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(root),
        "seed": seed,
    }


def _canonical(result: PassResult) -> str:
    return json.dumps({"sim": result.sim, "counts": result.counts}, sort_keys=True)


def _timed_passes(workload, seconds: float):
    """Timed passes, each followed by ``PROBES`` probe runs.

    Returns the results, the host wall time of each pass and every probe
    time.
    """
    results: List[PassResult] = []
    walls: List[float] = []
    probes: List[float] = []
    while sum(walls) < seconds or len(walls) < MIN_PASSES:
        prepared = workload.prepare()
        settle_disk()
        t0 = now()
        result = workload.run(prepared)
        walls.append(now() - t0)
        results.append(result)
        probes += [probe_s() for _ in range(PROBES)]
    return results, walls, probes


def _timed_setups(workload) -> Tuple[List[float], List[float]]:
    """Host seconds of each set-up, and every probe time after them."""
    host: List[float] = []
    probes: List[float] = []
    while len(host) < SETUP_REPEATS or sum(host) < SETUP_MIN_S:
        settle_disk()
        t0 = now()
        workload.setup()
        host.append(now() - t0)
        probes += [probe_s() for _ in range(PROBES)]
    return host, probes


def _traced_passes(workload, root: pathlib.Path, meta: Dict[str, Any]):
    from tracing import Tracer, account, chrome_trace

    runs = []
    for _ in range(TRACE_PASSES):
        tracer = Tracer()
        prepared = workload.prepare()
        settle_disk()
        tracer.install(workload.hooks())
        try:
            t0 = now()
            span = tracer.open("bench.pass")
            tracer.adopt = span.id
            result = workload.run(prepared)
            tracer.close(span)
            wall = now() - t0
        finally:
            tracer.uninstall()
        runs.append((tracer, result, wall))
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}-seed{meta['seed']}.json"
    spans = [s for tracer, _, _ in runs for s in tracer.spans]
    trace_path.write_text(json.dumps(chrome_trace(spans, meta)))
    layers = sorted({hook.layer for hook in workload.hooks()})
    accounts = [account(t.spans, layers) for t, _, _ in runs]
    return runs, accounts, trace_path


def execute(workload_cls, root: pathlib.Path, seed: int, seconds: float, trace: bool):
    """Run one workload end to end; returns ``(result_line, human_lines)``."""
    meta = {"workload": workload_cls.name, **provenance(root, seed)}
    workdir = root / "perfbench" / "out" / f"work-{workload_cls.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workload_cls(seed, workdir)
        host_setups, setup_probes = _timed_setups(workload)
        results, walls, probes = _timed_passes(workload, seconds)
        checks = list(workload.oracle(results))
        first = _canonical(results[0])
        checks.append(
            ("determinism: sim values and counts repeat in every pass",
             all(_canonical(r) == first for r in results))
        )
        traced = None
        if trace:
            traced = _traced_passes(workload, root, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in results) + len(checks)
    failed = sum(r.failed for r in results) + sum(1 for _, ok in checks if not ok)
    # Every pass does identical work, so pass-to-pass variation is the
    # host's. Scaled to the reference host speed, the figures repeat.
    speed = host_speed(probes)
    host_rate = sum(r.work for r in results) / sum(walls)
    end_to_end: Dict[str, Metric] = {
        "setup_s": (statistics.median(host_setups) * host_speed(setup_probes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "norm_throughput_per_s": (host_rate / speed, "1/s"),
    }
    figures = workload.figures(results, walls)
    figures["host_setup_s"] = (statistics.median(host_setups), "s")
    figures["host_throughput_per_s"] = (host_rate, "1/s")
    figures["host_speed"] = (speed, "ratio")
    figures["error_rate"] = (failed / attempted, "ratio")
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append(
        f"# {len(host_setups)} set-ups, {len(results)} timed passes, {sum(walls):.3f} s measured, "
        f"{workload.work_unit} per pass {results[0].work}"
    )
    lines += [f"{name} = {v!r} {unit}" for name, (v, unit) in {**end_to_end, **figures}.items()]
    lines += [f"check {'ok  ' if ok else 'FAIL'} {label}" for label, ok in checks]

    metrics: Dict[str, Metric] = end_to_end
    if traced is not None:
        runs, accounts, trace_path = traced
        varying = getattr(workload, "TIMING_DEPENDENT", set())
        counts = [
            {k: v for k, v in (t.counts | t.calls).items() if k not in varying}
            for t, _, _ in runs
        ]
        counts_repeat = all(c == counts[0] for c in counts) and all(
            _canonical(r) == first for _, r, _ in runs
        )
        balanced = all(
            abs(a["balance_s"]) <= BALANCE_TOL_S and a["min_self_s"] >= -BALANCE_TOL_S
            for a in accounts
        )
        trace_checks = [
            ("determinism: traced counts repeat in every traced pass", counts_repeat),
            ("accounting: layer self times + other_s == traced total", balanced),
        ]
        lines += [f"check {'ok  ' if ok else 'FAIL'} {label}" for label, ok in trace_checks]
        attempted += len(trace_checks)
        failed += sum(1 for _, ok in trace_checks if not ok)
        layer = {key: sum(a[key] for a in accounts) / len(accounts) for key in accounts[0]}
        declared = workload.PER_LAYER
        metrics = {name: (v, "s") for name, v in layer.items() if name in declared}
        metrics.update(
            (name, v) for name, v in figures.items() if name in declared or name in ACCOUNTING
        )
        metrics.update(workload.layer_counts(runs[0][0], runs[0][1]))
        metrics["other_s"] = (layer["other_s"], "s")
        metrics["traced_total_s"] = (layer["total_s"], "s")
        metrics["trace_overhead_s"] = (min(w for _, _, w in runs) - min(walls), "s")
        lines.append(f"# traced spans written to {trace_path.relative_to(root)}")
        lines += [f"{name} = {v!r} {unit}" for name, (v, unit) in metrics.items()]

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return line, lines


def print_result(line: Dict[str, Any], lines: List[str]) -> None:
    for text in lines:
        print(text)
    sys.stdout.flush()
    print(json.dumps(line))
