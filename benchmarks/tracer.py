"""Spans around public rmrec names, recorded from outside the package.

Each name is replaced at the module binding its caller looks it up
through (``rmrec.simulate.decode_batch``, not ``rmrec.decoder.decode_batch``,
because ``run_wer`` calls the name it imported).  A span is
(label, repetition, start ns, end ns, parent span index, note); spans stay
in memory and are written out once, when the run ends.  A layer's self time
is its spans' duration minus that of their direct children.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from time import perf_counter_ns

import rmrec.analysis
import rmrec.decoder
import rmrec.simulate


def _fht_note(args, out):
    shape = args[0].shape
    return math.prod(shape[:-1]), shape[-1]  # rows, width


def _decode_batch_note(args, out):
    return args[0].shape[0], out[2]  # rows, counted ops per block


def _decode_phi_note(args, out):
    return out.op_count


def _stream_note(args, out):
    return args[1]  # purpose


# (module, attribute the caller looks up, label, note taken from the call)
WRAPPED = (
    (rmrec.simulate, "run_wer", "simulate.run_wer", None),
    (rmrec.simulate, "path_statistics", "simulate.path_statistics", None),
    (rmrec.simulate, "stream_uniforms", "simulate.stream_uniforms", _stream_note),
    (rmrec.simulate, "encode_batch", "core.encode_batch", None),
    (rmrec.simulate, "decode_batch", "decoder.decode_batch", _decode_batch_note),
    (rmrec.simulate, "genie_batch", "decoder.genie_batch", None),
    (rmrec.decoder, "hadamard_transform", "decoder.hadamard_transform", _fht_note),
    (rmrec.decoder, "biorthogonal_codeword", "decoder.biorthogonal_codeword", None),
    (rmrec.decoder, "extract_info_batch", "core.extract_info_batch", None),
    (rmrec.analysis, "moments_for_path", "analysis.moments_for_path", None),
    (rmrec.decoder, "decode_phi", "decoder.decode_phi", _decode_phi_note),
)

# First-order node widths of the benchmark codes: 4 .. n/2 of {12,2}.
FHT_WIDTHS = tuple(1 << g for g in range(2, 12))


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.labels = [label for _, _, label, _ in WRAPPED]
        self.spans: list[list] = []
        self.rep = -1
        self._stack: list[int] = []
        self._wrappers = [(module, attr, self._wrap(getattr(module, attr), index, note))
                          for index, (module, attr, _, note) in enumerate(WRAPPED)]
        self._originals = [(module, attr, getattr(module, attr))
                           for module, attr, _, _ in WRAPPED]

    def _wrap(self, func, label: int, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [label, self.rep, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter_ns()
            try:
                out = func(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if note is not None:
                span[5] = note(args, out)
            return out

        return wrapper

    def install(self, rep: int) -> None:
        self.rep = rep
        for module, attr, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump({"labels": self.labels,
                       "columns": ["label", "rep", "start_ns", "end_ns", "parent", "note"],
                       "spans": self.spans}, out, separators=(",", ":"))

    def layer_metrics(self, trials: int, reps: int) -> dict:
        """Per-layer metrics over the traced repetitions, as {name: (value, unit)}."""
        total, child, calls = Counter(), Counter(), Counter()
        fht_width_ns, fht_ops, fht_bytes = Counter(), 0, 0
        batches = decode_ops = 0
        ops_per_trial = 0
        channel = rmrec.simulate.PURPOSE_CHANNEL
        for label_index, _, start, end, parent, note in self.spans:
            label = self.labels[label_index]
            span_ns = end - start
            total[label] += span_ns
            calls[label] += 1
            if parent >= 0:
                child[self.labels[self.spans[parent][0]]] += span_ns
            if label == "decoder.hadamard_transform":
                rows, width = note
                fht_width_ns[width] += span_ns
                stage_ops = rows * width * int(math.log2(width))
                fht_ops += stage_ops
                fht_bytes += 16 * stage_ops  # one float64 read and write per element per stage
            elif label == "decoder.decode_batch":
                rows, ops_per_trial = note
                decode_ops += rows * ops_per_trial
            elif label == "decoder.decode_phi":
                ops_per_trial = note
                decode_ops += note
            elif label == "simulate.stream_uniforms" and note == channel:
                batches += 1

        def self_ns(label):
            return total[label] - child[label]

        decode_label = ("decoder.decode_phi" if calls["decoder.decode_phi"]
                        else "decoder.decode_batch")
        runs = calls["simulate.path_statistics"]
        out = {}
        for label in self.labels:
            out[f"{label}.calls"] = (calls[label] / reps, "calls/rep")
        for label in ("simulate.stream_uniforms", "core.encode_batch",
                      "core.extract_info_batch", "decoder.decode_batch",
                      "decoder.hadamard_transform", "decoder.biorthogonal_codeword",
                      "decoder.genie_batch"):
            out[f"{label}.ns_per_trial"] = (total[label] / trials, "ns/trial")
        for label in ("simulate.run_wer", "simulate.path_statistics", "decoder.decode_batch"):
            out[f"{label}.self_ns_per_trial"] = (self_ns(label) / trials, "ns/trial")
        for width in FHT_WIDTHS:
            out[f"decoder.hadamard_transform.w{width}.ns_per_trial"] = (
                fht_width_ns[width] / trials, "ns/trial")
        out["simulate.batches"] = (batches / reps, "batches/rep")
        phi_calls = calls["decoder.decode_phi"]
        out["decoder.decode_phi.self_us_per_call"] = (
            self_ns("decoder.decode_phi") / phi_calls / 1e3 if phi_calls else 0.0, "us/call")
        out["decoder.counted_ops_per_trial"] = (ops_per_trial, "ops/trial")
        out["decoder.ns_per_counted_op"] = (
            total[decode_label] / decode_ops if decode_ops else 0.0, "ns/op")
        out["decoder.hadamard_transform.ns_per_counted_op"] = (
            total["decoder.hadamard_transform"] / fht_ops if fht_ops else 0.0, "ns/op")
        out["decoder.hadamard_transform.computed_bytes_per_trial"] = (
            fht_bytes / trials, "B/trial")
        out["analysis.moments_for_path.ns_per_run"] = (
            total["analysis.moments_for_path"] / runs if runs else 0.0, "ns/run")
        return out
