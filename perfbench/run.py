"""Repository benchmark: one command for the campaign, serve, fleet and
lifecycle workloads.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--seed`` is read only by the workloads' input generators. With
``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` a separate traced run adds the per-layer metrics and
writes its spans as Chrome trace-event JSON under ``perfbench/out/``.
The command exits non-zero when an oracle, determinism or accounting
check fails. ``--workload all`` runs each workload in its own fresh
process. See ``perfbench/README.md`` for what each workload measures
and why.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "serve", "fleet", "lifecycle")


def workload_classes():
    from workloads.campaign import Campaign
    from workloads.fleet import Fleet
    from workloads.lifecycle import Lifecycle
    from workloads.serve import Serve

    return {cls.name: cls for cls in (Campaign, Serve, Fleet, Lifecycle)}


def per_layer_metrics(classes):
    """Every per-layer metric name -> ``(unit, better)``, in print order."""
    from harness import ACCOUNTING

    out = {}
    for cls in classes.values():
        out.update(cls.PER_LAYER)
    out.update(ACCOUNTING)
    return out


def _run_all(args) -> int:
    """Each workload in a fresh interpreter, so nothing leaks between them."""
    status, lines = 0, {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"## workload {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        out = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(out[:-1]), flush=True)
        status = status or proc.returncode
        lines[name] = json.loads(out[-1]) if out else None
    print(json.dumps(lines))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    from harness import execute, print_result

    classes = workload_classes()
    line, lines = execute(classes[args.workload], ROOT, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        # Every per-layer metric is printed on every workload; layers a
        # workload never calls read zero there.
        metrics = {
            name: {"value": 0, "unit": unit}
            for name, (unit, _) in per_layer_metrics(classes).items()
        }
        undeclared = set(line["metrics"]) - set(metrics)
        if undeclared:
            raise SystemExit(f"undeclared per-layer metrics: {sorted(undeclared)}")
        metrics.update(line["metrics"])
        line["metrics"] = metrics
    print_result(line, lines)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
