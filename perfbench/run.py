"""fransonsim benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` beside this
directory, never from an installed copy.  Set-up is sampled in fresh
child processes; operations run closed-loop, one at a time, in one
more child.  With ``--trace 0`` the result holds the end-to-end
metrics, with ``--trace 1`` the per-layer split from a traced run (see
README.md).  The last stdout line is the result object; the line
before it records the run's environment, inputs and per-operation
details.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("b2b-scan", "km100-deadtime-scan", "clicks-roundtrip",
                  "closed-form-map")
# fresh processes that import fransonsim and build the workload; the
# measuring child adds one more sample
SETUP_ONLY_CHILDREN = 4
TIME_LIMIT_S = 170.0

LAYER_TIMES = (
    "montecarlo.busy_s", "montecarlo.write_s", "montecarlo.read_s",
    "tia.add_bucket_s", "tia.finalize_s", "tia.window_count_s",
    "tia.build_histogram_s", "tia.fit_s",
    "budget.busy_s", "physics.busy_s",
    "scenarios.self_s", "scenarios.emit_s",
)
LAYER_COUNTS = (
    "montecarlo.buckets", "montecarlo.clicks", "montecarlo.pairs_generated",
    "montecarlo.file_bytes", "tia.pairs_binned", "tia.starts",
    "budget.calls", "physics.calls", "scenarios.report_bytes",
)
UNITS = {"montecarlo.file_bytes": "bytes", "scenarios.report_bytes": "bytes"}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child(args, deadline: float):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child {args[:4]} timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child {args[:4]} exited with "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _metric(value, unit: str):
    return {"value": value, "unit": unit}


def _end_to_end(records, setup_samples, measured):
    """Operation times as scaled by the worker; set-up times in
    nominal-host seconds (hostspeed.py)."""
    walls = [r["scaled_wall_s"] for r in records]
    configs = [r["work"]["configs"] / r["scaled_wall_s"]
               for r in records if "work" in r]
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "configs_per_s": _metric(
            statistics.median(configs) if configs else 0.0, "1/s"),
        "peak_rss_mb": _metric(measured["peak_rss_mb"], "MB"),
        "setup_s": _metric(statistics.median(
            s["setup_scaled_s"] for s in setup_samples), "s"),
    }


def _per_layer(records, measured):
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    metrics = {}
    for name in LAYER_TIMES:
        metrics[name] = _metric(statistics.median(
            r["seconds"].get(name, 0.0) for r in traced), "s")
    last = traced[-1]["counts"]
    for name in LAYER_COUNTS:
        metrics[name] = _metric(last.get(name, 0), UNITS.get(name, "count"))

    def ratio(count, seconds):
        s = metrics[seconds]["value"]
        return _metric(metrics[count]["value"] / s if s > 0 else 0.0, "1/s")

    metrics["montecarlo.clicks_per_busy_s"] = ratio("montecarlo.clicks",
                                                    "montecarlo.busy_s")
    metrics["budget.calls_per_busy_s"] = ratio("budget.calls",
                                               "budget.busy_s")
    metrics["scenarios.preset_s"] = _metric(measured["preset_s"], "s")
    refs = [r["reference_s"] for r in records if r["reference_s"]]
    metrics["host.reference_s"] = _metric(
        statistics.median(refs) if refs else measured["setup_reference_s"],
        "s")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(
        traced_wall - statistics.median(r["wall_s"] for r in plain), "s")
    # what the layer self times leave of each traced operation: harness
    # glue plus the wrappers' own cost outside their spans
    metrics["trace.unattributed_s"] = _metric(statistics.median(
        r["wall_s"] - sum(r["seconds"].get(n, 0.0) for n in LAYER_TIMES)
        for r in traced), "s")
    return metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False):
    """Return (result, info) for one run; raise BenchmarkError when the
    package source is missing or a child fails."""
    if not os.path.isfile(os.path.join(SRC, "fransonsim", "__init__.py")):
        raise BenchmarkError(f"no fransonsim source under {SRC}")
    deadline = time.monotonic() + TIME_LIMIT_S
    out_root = os.path.join(ROOT, ".perfbench_out")
    out_dir = os.path.join(out_root, f"{workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed)] \
        + (["--tiny"] if tiny else [])
    try:
        setup_samples = [] if trace else [
            _child(["--role", "setup"] + common, deadline)
            for _ in range(SETUP_ONLY_CHILDREN)]
        measured = _child(["--role", "measure"] + common
                          + ["--seconds", repr(seconds),
                             "--trace", str(int(trace)),
                             "--out-dir", out_dir], deadline)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(out_root)
        except OSError:
            pass   # another run still uses it
    records = measured["records"]
    timed = [r for r in records if not r["warmup"]]
    setup_samples.append({k: measured[k] for k in
                          ("setup_s", "setup_reference_s", "setup_scaled_s")})
    failed = sum(1 for r in records if r["failures"])
    if trace:
        metrics = _per_layer(timed, measured)
    else:
        metrics = _end_to_end(timed, setup_samples, measured)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    info = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "tiny": tiny, "params": measured["params"],
        "nproc": os.cpu_count(), "versions": measured["versions"],
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "setup_samples": setup_samples,
        "operations": [{k: r.get(k) for k in
                        ("warmup", "traced", "wall_s", "reference_s",
                         "scaled_wall_s", "work", "digest", "info",
                         "failures")} for r in records],
    }
    plain = [r for r in timed if not r["traced"]]
    info["raw_wall_s"] = statistics.median(r["wall_s"] for r in plain)
    clicks = [r["work"]["clicks"] / r["scaled_wall_s"] for r in plain
              if r.get("work")]
    if clicks and clicks[0] > 0:
        info["clicks_per_s"] = statistics.median(clicks)
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result, info = run_benchmark(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
