"""Fast self-test of the benchmark harness, at tiny workload sizes.

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json
names, each with its unit, in both modes; that a deliberately corrupted
output of each workload is counted as a failed operation; that an
output which changes between operations of one run is caught by the
digest check; that operation times are scaled by the host-speed
reference exactly on the workloads marked for it; and that the
benchmark refuses to run, with exit code 2 and no result, when the
package source is missing.  Takes about a minute on a 2-core machine.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run      # noqa: E402  (after the path set-up above)
import worker   # noqa: E402
import workloads  # noqa: E402

SEED = 3
PROBLEMS = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        PROBLEMS.append(message)


def check_metrics(spec) -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in run.WORKLOAD_NAMES:
            result, _ = run.run_benchmark(name, SEED, 0.0, trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted,
                   f"{name} trace={int(trace)}: {section} metrics and units")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{name} trace={int(trace)}: numeric values")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{name} trace={int(trace)}: clean run passes its checks")


def _shift_visibility(output):
    report, _ = output
    est = report.estimate
    report.estimate = dataclasses.replace(
        est, visibility=est.visibility + 20.0 * est.sigma_visibility)


def _flip_read_back_click(output):
    output["read"][1].times_ps[len(output["read"][1].times_ps) // 2] += 1


def _break_bell(output):
    rates, vis, vis_raw, verdict = output["rows"][0]
    output["rows"][0] = (rates, vis, vis_raw, dataclasses.replace(
        verdict, s_value=verdict.s_value + 1e-9))


CORRUPTIONS = {
    "b2b-scan": _shift_visibility,
    "km100-deadtime-scan": _shift_visibility,
    "clicks-roundtrip": _flip_read_back_click,
    "closed-form-map": _break_bell,
}


def check_corruption(out_dir: str) -> None:
    for name, corrupt in CORRUPTIONS.items():
        wl = workloads.WORKLOADS[name]
        state = wl.build(SEED, True)
        records = worker.measure(wl, state, 0.0, out_dir, False,
                                 corrupt=corrupt)
        expect(len(records) == 2 and all(r["failures"] for r in records),
               f"{name}: corrupted output counted as failed "
               f"({records[0]['failures'][:1]})")

    calls = []

    def second_report_changed(output):
        calls.append(1)
        if len(calls) == 2:
            with open(output["written"][0], "a", encoding="utf-8") as fh:
                fh.write(" ")

    wl = workloads.WORKLOADS["closed-form-map"]
    records = worker.measure(wl, wl.build(SEED, True), 0.0, out_dir, False,
                             corrupt=second_report_changed)
    expect([bool(r["failures"]) for r in records] == [False, True],
           "closed-form-map: output that changes between operations "
           "is counted as failed")


def check_scaling(out_dir: str) -> None:
    import hostspeed
    for name in ("closed-form-map", "km100-deadtime-scan"):
        wl = workloads.WORKLOADS[name]
        timed = worker.measure(wl, wl.build(SEED, True), 0.0, out_dir,
                               False)[1]
        if wl.host_scaled:
            want = timed["wall_s"] * hostspeed.NOMINAL_S \
                / timed["reference_s"]
        else:
            want = timed["wall_s"]
        expect(math.isclose(timed["scaled_wall_s"], want, rel_tol=1e-12)
               and (timed["reference_s"] is None) != wl.host_scaled,
               f"{name}: operation time scaled "
               f"{'by the reference' if wl.host_scaled else 'not at all'}")


def check_refuses_without_source(bare: str) -> None:
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "b2b-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode == 2 and not proc.stdout.strip(),
           "without src/: exit code 2 and no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
           == list(workloads.WORKLOADS), "workload names agree")
    scratch = os.path.join(ROOT, ".perfbench_out", f"selftest-{os.getpid()}")
    os.makedirs(scratch)
    try:
        check_metrics(spec)
        check_corruption(scratch)
        check_scaling(scratch)
        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        check_refuses_without_source(bare)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
