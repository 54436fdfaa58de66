"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same code runs up to 1.5x slower for seconds to
minutes at a time, as neighbours come and go.  The benchmark times this
kernel next to every stretch of timed work and scales the work's figures to
the host speed at which the kernel takes its reference time, so a slow
phase of the host slows both and cancels out.

The kernel uses no rmrec code, only the kinds of work rmrec does, in two
kinds of pass: compute passes (numpy butterflies, sign and argmax
reductions, bit operations, and a Python loop of small numpy calls) and
stream passes over batch-sized arrays.  Each workload sets how many of each
a sample makes, after its working set: work on large batches also slows
down as neighbours share the memory system and the last-level cache, which
only the stream passes feel; work on one block stays in the core's own
caches, and stream passes would add noise to it.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter_ns

import numpy as np

# Typical times of one pass on a 2-vCPU Intel Xeon host (105 MiB L3); any
# fixed values work, they only set the scale of the normalised figures.
COMPUTE_PASS_NS = 7_500_000
STREAM_PASS_NS = 22_000_000


class Calibrator:
    """Times the reference kernel; ``sample()`` returns one time in ns."""

    def __init__(self, compute_passes: int, stream_passes: int) -> None:
        self.compute_passes = compute_passes
        self.stream_passes = stream_passes
        self.reference_ns = compute_passes * COMPUTE_PASS_NS + stream_passes * STREAM_PASS_NS
        rng = np.random.default_rng(12345)
        self.block = rng.standard_normal((256, 256))
        self.bits = rng.integers(0, 2, (512, 1024), dtype=np.uint8)
        self.rows = [rng.standard_normal(64) for _ in range(64)]
        if stream_passes:
            self.stream = rng.standard_normal((4096, 1024))  # 32 MiB, a phi batch
            self.scratch = np.empty_like(self.stream)
        self.sample()  # first touch of the buffers and of numpy's code paths

    def _compute(self) -> float:
        x = self.block.copy()
        rows, width = x.shape
        h = 1
        while h < width:  # Walsh-Hadamard butterflies
            y = x.reshape(rows, width // (2 * h), 2, h)
            a, b = y[:, :, 0, :].copy(), y[:, :, 1, :]
            y[:, :, 0, :] += b
            y[:, :, 1, :] = a - b
            h *= 2
        score = float(np.abs(x).argmax(axis=1).sum())
        flips = np.bitwise_xor(self.bits, self.bits[::-1])
        score += float(np.count_nonzero(flips.sum(axis=1, dtype=np.int32) > 512))
        for row in self.rows:  # per-call overhead, as in small recursion nodes
            for _ in range(8):
                score += float(np.sign(row).sum()) + int(np.argmax(row))
        return score

    def _stream(self) -> float:
        np.add(self.stream, 1.0, out=self.scratch)
        np.multiply(self.scratch, self.stream, out=self.scratch)
        return float(self.scratch.sum(axis=1).max())

    def sample(self) -> int:
        start = perf_counter_ns()
        for _ in range(self.compute_passes):
            self._compute()
        for _ in range(self.stream_passes):
            self._stream()
        return perf_counter_ns() - start

    def speed(self) -> float:
        """The host's speed now, relative to the reference: >1 is faster."""
        return self.reference_ns / median(self.sample() for _ in range(5))
