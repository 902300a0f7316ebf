"""One benchmark child process; run.py starts it, never a user.

Every child is a fresh interpreter, so each set-up sample pays the full
import of fransonsim (numpy and scipy included) and each measurement's
peak RSS belongs to one workload alone.

    --role setup    import fransonsim, build the workload, report the time
                    and the host-speed reference timed right after it
    --role measure  the same, then one warm-up operation, then timed
                    operations until --seconds have passed; with
                    --trace 1 every second operation runs under the
                    tracer

The child prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


#: Untraced operations shorter than this share one pair of reference
#: timings, so short operations do not pay a reference each.
BLOCK_S = 1.0


def _operation(workload, state, out_dir: str, tracer, corrupt,
               first_digest):
    """Run, time and check one operation; return its record.  Its output
    digest must equal ``first_digest`` unless that is None."""
    record = {"traced": tracer is not None, "failures": []}
    if tracer is not None:
        import workloads
        tracer.install(workloads)
    t0 = time.perf_counter()
    try:
        output = workload.run(state, out_dir)
    except Exception:
        record["failures"].append(traceback.format_exc(limit=4))
        output = None
    finally:
        record["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        record["seconds"], record["counts"] = tracer.take()
    if output is not None:
        try:
            if corrupt is not None:
                corrupt(output)
            failures, info, digest = workload.check(state, output)
            record["work"] = workload.work(output)
        except Exception:
            failures, info, digest = \
                [traceback.format_exc(limit=4)], {}, None
        if first_digest is not None and digest != first_digest:
            failures.append("output digest differs from the first "
                            "operation of this run")
        record.update(info=info, digest=digest)
        record["failures"] += failures
    return record


def measure(workload, state, seconds: float, out_dir: str, trace: bool,
            corrupt=None):
    """Run one warm-up operation, then closed-loop operations for
    ``seconds`` (at least one, and one of each kind when tracing, the
    traced ones first).  Every output is checked after its timer stops.

    Each operation's ``scaled_wall_s`` is its wall time, scaled to the
    nominal host when the workload is ``host_scaled`` (hostspeed.py).
    Then the reference is timed before the first timed operation and
    after each block of operations, a block being one operation, or
    untraced operations until BLOCK_S have passed, and each operation
    is scaled by the mean of the two reference timings around its
    block.  ``corrupt`` mutates each output before its check; the
    self-test uses it to prove that bad outputs are counted."""
    import hostspeed
    import tracing

    tracer = tracing.Tracer() if trace else None
    scaled = workload.host_scaled
    warmup = _operation(workload, state, out_dir, None, corrupt, None)
    warmup["warmup"] = True
    records = [warmup]
    if scaled:
        hostspeed.reference_s()     # first-call costs stay out of timings
        ref_before = hostspeed.reference_s()
    start = time.perf_counter()
    while (len(records) < (3 if trace else 2)
           or time.perf_counter() - start < seconds):
        block = []
        block_start = time.perf_counter()
        while True:
            traced = trace and len(records) % 2 == 1
            first_digest = next((r["digest"] for r in records
                                 if r.get("digest") is not None), None)
            record = _operation(workload, state, out_dir,
                                tracer if traced else None, corrupt,
                                first_digest)
            record["warmup"] = False
            records.append(record)
            block.append(record)
            if (not scaled or trace
                    or time.perf_counter() - block_start >= BLOCK_S
                    or time.perf_counter() - start >= seconds):
                break
        ref, factor = None, 1.0
        if scaled:
            ref_after = hostspeed.reference_s()
            ref = (ref_before + ref_after) / 2
            factor = hostspeed.scale(ref)
            ref_before = ref_after
        for record in block:
            record["reference_s"] = ref
            record["scaled_wall_s"] = record["wall_s"] * factor
    return records


def _peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out-dir", default="")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import workloads   # imports fransonsim, numpy and scipy
    import fransonsim
    if not os.path.realpath(fransonsim.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        print(f"fransonsim imported from {fransonsim.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    doc = {}
    if args.role == "measure" and args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install_setup()
        try:
            state = workload.build(args.seed, args.tiny)
        finally:
            tracer.uninstall()
        doc["preset_s"] = sum(tracer.take()[0].values())
    else:
        state = workload.build(args.seed, args.tiny)
    doc["setup_s"] = time.perf_counter() - t0
    import hostspeed
    hostspeed.reference_s()     # first-call costs stay out of the timing
    doc["setup_reference_s"] = hostspeed.reference_s(3)
    doc["setup_scaled_s"] = doc["setup_s"] * hostspeed.scale(
        doc["setup_reference_s"])

    if args.role == "measure":
        import numpy
        import scipy
        doc["records"] = measure(workload, state, args.seconds,
                                 args.out_dir, bool(args.trace))
        doc["peak_rss_mb"] = _peak_rss_mb()
        doc["versions"] = {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__,
                           "fransonsim": fransonsim.__version__}
        doc["params"] = workload.params(args.tiny)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
