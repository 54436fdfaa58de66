"""rmrec benchmark: Monte Carlo trials/s, single-block decoding, and a
per-layer time split taken from outside the package.

Run from the repository root:

    python3 benchmarks/run.py --workload wer-phi-10-2 --seed 0 --seconds 10 --trace 0

Workloads (closed loop, one caller; each runs in fresh processes started
here, one at a time, with BLAS/OpenMP threads capped at ``nproc``):

  wer-phi-10-2        run_wer, {10,2}, phi, BSC p=0.27, all-ones codeword,
                      4096 trials (one automatic batch) per repetition.
                      The phi path: FHT, winner rebuild, info extraction.
  wer-psi-8-2         run_wer, {8,2}, psi, BSC p=0.15, random codewords,
                      16384 trials per repetition.  Recursion, encode_batch
                      and the channel draw; no FHT or winner decode.
  genie-12-1          path_statistics, {12,1}, BSC p=0.375 (eps=0.25),
                      1024 trials per repetition.  No decoder decisions:
                      channel draw, genie_batch, moment accumulation.
  decode-single-12-2  decode_phi on one {12,2} block at BSC p=0.30 per
                      repetition, trial=block index, over 512 blocks
                      encoded and sent through the channel before timing.
                      Per-call overhead and the widest first-order nodes.

The seed sets the channel noise, the info words and the tie coins.

Host-speed normalisation: on a shared host the same code runs up to 1.5x
slower for seconds to minutes at a time.  The worker times a fixed
reference kernel (calibrate.py, no rmrec code) between every two segments
of timed work (50 ms, or one repetition if longer), and scales each
segment's rate to the host speed at which the kernel takes its reference
time; set-up time is scaled the same way by samples taken right after
set-up.  A change to rmrec moves the work and not the kernel, so it shows
in full; a slow phase of the host moves both and cancels.  The unscaled
figures are printed in the notes.

End-to-end metrics (``--trace 0``), tracing off:
  trials_per_s    trials per second at the reference host speed, the
                  median over the run's segments; a trial is one block on
                  decode-single-12-2.
  setup_s         from process start through ``import rmrec`` and input
                  generation to the end of the warm-up call (the same call
                  at the --tiny size), at the reference host speed, median
                  of 5 processes.
  peak_rss_mib    peak resident memory of the measuring process through
                  set-up and one full repetition (the timed ones redo the
                  same work), before the calibrator's buffers exist.

Per-layer metrics (``--trace 1``) come from a run whose segments
alternate untraced and traced; see tracer.py for how spans are taken.
Times are ns per trial over the traced repetitions, unscaled, unless the
unit says otherwise; ``.calls`` is calls per repetition, so a rerouted
name reads calls=0 rather than zero cost.  ``trace.overhead_frac`` is
1 - traced/untraced trials_per_s within the run.  ``decode_us_p50`` and
``decode_us_p99`` are unscaled percentiles of the untraced calls' latency:
one decode_phi block on decode-single-12-2, one whole repetition elsewhere.
They are per-layer, without a bound, because on a shared host the median
of a bimodal latency and its tail move with the neighbours, not the code.
The spans are written to ``benchmarks/out/``.

Correctness gate: every repetition must reproduce the reference outputs
(the report of a first, untimed repetition, or the decode_batch row of the
same block and trial on decode-single-12-2); the wer-* integer counters,
and the genie sign counts, must not change under a second batch size; at a
seed recorded in fingerprints.json the reference itself must match the
recording.  ``failed`` counts repetitions that fail the gate;
``failed_fraction`` is failed / attempted and is a per-layer metric,
since at a correct commit it is 0.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the provenance block and a table of the metrics with their notes.
``--tiny`` runs every workload at a toy size (used by test_smoke.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("wer-phi-10-2", "wer-psi-8-2", "genie-12-1", "decode-single-12-2")
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # every process of one run must end within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

NOTES = {
    "decoder.ns_per_counted_op":
        "base: decode_batch (decode_phi on decode-single) inclusive ns / counted ops",
    "decoder.hadamard_transform.ns_per_counted_op":
        "base: FHT inclusive ns / sum of rows*w*log2(w) over calls",
    "decoder.hadamard_transform.computed_bytes_per_trial":
        "computed, not measured: 16*w*log2(w) bytes per row per call",
    "decoder.counted_ops_per_trial": "from decode_batch's (decode_phi's) returned count",
    "trace.overhead_frac": "1 - traced/untraced trials_per_s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def child_env() -> dict:
    """The environment of the workload processes: threads capped at nproc."""
    env = dict(os.environ)
    cap = nproc()
    for var in THREAD_VARS:
        try:
            threads = min(int(env.get(var, cap)), cap)
        except ValueError:
            threads = cap
        env[var] = str(max(threads, 1))
    return env


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    if args.fingerprints:
        cmd += ["--fingerprints", str(args.fingerprints)]
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                          cwd=ROOT, timeout=max(deadline - time.monotonic(), 1.0))
    if done.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[dict], measured: dict) -> tuple[dict, dict]:
    metrics = {
        "trials_per_s": (measured["trials_per_s"], "1/s"),
        "setup_s": (median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mib": (measured["peak_rss_mib"], "MiB"),
    }
    notes = {
        "trials_per_s": (f"median of {measured['segments']} segments, "
                         f"{measured['reps']} repetitions; unscaled "
                         f"{measured['raw_trials_per_s']:.6g} at host speed "
                         f"{measured['speed']:.3f}"),
        "setup_s": (f"median of {len(setups)} processes; unscaled "
                    f"{median(s['raw_setup_s'] for s in setups):.6g}"),
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="toy sizes, for the benchmark's own smoke test")
    ap.add_argument("--fingerprints", type=Path, default=None,
                    help="fingerprint file to check against (default: fingerprints.json)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rmrec" / "__init__.py").is_file():
        print(f"no rmrec sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            measured = run_worker(args, "trace", deadline)
            metrics = measured["per_layer"]
            samples = measured["reps"]
            notes = dict(NOTES, decode_us_p50=f"n={samples} untraced calls",
                         decode_us_p99=f"n={samples} untraced calls")
        else:
            setups = [run_worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
            measured = run_worker(args, "measure", deadline)
            metrics, notes = end_to_end(setups + [measured], measured)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    provenance = dict(measured["provenance"])
    provenance.update(thread_env={var: child_env()[var] for var in THREAD_VARS},
                      workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, tiny=args.tiny, nproc=nproc(),
                      cpu_model=cpu_model(), git_commit=git_commit())
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name:56s} {value:>16.6g} {unit:10s} {notes.get(name, '')}")
    failed = measured["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": measured["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
