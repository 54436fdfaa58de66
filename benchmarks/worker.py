"""One workload process of the benchmark; ``run.py`` starts it.

Modes:
  setup    import rmrec, prepare the inputs, make the warm-up call, then
           sample the host's speed (calibrate.py) and exit;
  measure  the same, then timed repetitions with tracing off;
  trace    the same, then repetitions that alternate untraced and traced.

The last line of standard output is one JSON object with the figures;
``run.py`` turns them into metrics.  ``--t0-ns`` is the parent's
``time.monotonic_ns()`` just before it started this process, so setup time
counts interpreter start and imports.  Times and rates are scaled to the
calibrator's reference speed; the ``raw_`` figures are as measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from calibrate import Calibrator

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
SPANS_DIR = BENCH_DIR / "out"
# Timed work between two samples of the calibrator, or one repetition if
# that is longer: short, so a sample is taken close in time to the work it
# scales, since the host's speed also changes within a second.
SEGMENT_NS = 50_000_000


def fingerprint_key(tiny: bool) -> str:
    return "tiny" if tiny else "full"


def import_rmrec():
    """Import rmrec from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import rmrec
    if Path(rmrec.__file__).resolve().parent != (SRC / "rmrec").resolve():
        raise ImportError(f"rmrec was imported from {rmrec.__file__}, not from {SRC}")
    return rmrec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0-ns", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--fingerprints", type=Path, default=FINGERPRINTS)
    args = ap.parse_args(argv)

    rmrec = import_rmrec()
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.prepare(args.seed, args.tiny)
    workload.warm_up(state)
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    result = {"raw_setup_s": setup_s}
    if args.mode != "setup":
        result.update(measure(workload, state, args))
        result["provenance"] = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "rmrec": rmrec.__version__,
            "effective_batch": {name: w.effective_batch(args.tiny)
                                for name, w in WORKLOADS.items()},
            "calibration_passes": workload.calibration,
        }
    else:
        result["speed"] = Calibrator(*workload.calibration).speed()
    result["setup_s"] = setup_s * result["speed"]
    print(json.dumps(result))
    return 0


def measure(workload, state, args) -> dict:
    """Timed repetitions, each checked against the reference outputs.

    The repetitions run in segments of about ``SEGMENT_NS``, with a sample
    of the calibrator between each two; a segment's rate is scaled by the
    host speed the samples on either side of it give.  In trace mode the
    segments alternate untraced and traced.
    """
    reference = workload.reference(state)
    # Peak memory of set-up and one full repetition, before the calibrator's
    # buffers exist; the timed repetitions redo the same work.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    recorded = (json.loads(args.fingerprints.read_text())
                .get(fingerprint_key(args.tiny), {})
                .get(workload.name, {})
                .get(str(args.seed)))
    reference_ok = recorded is None or recorded == reference
    if not reference_ok:
        print(f"{workload.name}: outputs at seed {args.seed} differ from the recorded "
              "fingerprint", file=sys.stderr)

    calibrator = Calibrator(*workload.calibration)
    speed = calibrator.speed()  # host speed just after set-up, to scale setup_s
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
    min_segments = 4 if tracer else 3
    segments = {False: [], True: []}  # traced -> [(trials, reps, ns, normalised rate)]
    latency_ns = []  # untraced repetitions
    failed = 0
    gc.collect()
    deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
    before = calibrator.sample()
    i = 0
    while len(segments[False]) + len(segments[True]) < min_segments \
            or time.perf_counter_ns() < deadline:
        traced = tracer is not None and len(segments[False]) > len(segments[True])
        if traced:
            tracer.install(i)
        trials = ns = 0
        first = i
        segment_end = time.perf_counter_ns() + SEGMENT_NS
        while True:
            if traced:
                tracer.rep = i
            start = time.perf_counter_ns()
            count, output = workload.repetition(state, i)
            end = time.perf_counter_ns()
            trials += count
            ns += end - start
            if not traced:
                latency_ns.append(end - start)
            if not (reference_ok and workload.check(state, i, output)):
                failed += 1
            i += 1
            if end >= segment_end:
                break
        if traced:
            tracer.uninstall()
        after = calibrator.sample()
        rate = trials * 1e9 / ns * (before + after) / 2 / calibrator.reference_ns
        segments[traced].append((trials, i - first, ns, rate))
        before = after
    attempted = i
    cross = workload.cross_check(state)
    if cross is not None:
        attempted += 1
        failed += not (reference_ok and cross)
    if failed:
        print(f"{workload.name}: {failed} of {attempted} repetitions failed the "
              "correctness gate", file=sys.stderr)

    untraced = segments[False]
    result = {
        "attempted": attempted, "failed": failed, "peak_rss_mib": peak_rss_mib,
        "speed": speed, "segments": len(untraced), "reps": len(latency_ns),
        "trials_per_s": median(rate for *_, rate in untraced),
        "raw_trials_per_s": (sum(t for t, *_ in untraced) * 1e9
                             / sum(ns for _, _, ns, _ in untraced)),
    }
    if tracer is not None:
        traced = segments[True]
        layers = tracer.layer_metrics(sum(t for t, *_ in traced), sum(r for _, r, *_ in traced))
        layers["trace.overhead_frac"] = (
            1.0 - median(rate for *_, rate in traced) / result["trials_per_s"], "fraction")
        latency_us = [ns / 1e3 for ns in latency_ns]
        layers["decode_us_p50"] = (median(latency_us), "us")
        layers["decode_us_p99"] = (
            quantiles(latency_us, n=100, method="inclusive")[98], "us")
        layers["failed_fraction"] = (failed / attempted, "fraction")
        result["per_layer"] = layers
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{workload.name}.json")
    return result


if __name__ == "__main__":
    sys.exit(main())
