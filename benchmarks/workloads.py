"""The four benchmark workloads: inputs from a seed, one timed repetition,
and the correctness fingerprint of its outputs.

Every call into rmrec goes through a module attribute (``simulate.run_wer``,
``decoder.decode_phi``, ...) so that the tracer in ``tracer.py`` sees the
calls once it has replaced those attributes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from rmrec import core, decoder, simulate
from rmrec.core import CodeParams
from rmrec.decoder import ALG_PHI, ALG_PSI, DecoderOptions
from rmrec.simulate import ALL_ONES, RANDOM_CODEWORDS, Channel, SimConfig


def _split_batch(batch: int) -> int:
    """A second batch size that does not divide the first one."""
    return batch // 3 + 1


def _stats_hex(stats) -> list:
    return [stats.mean.hex(), stats.variance.hex(), stats.variance_half_width.hex(),
            stats.error_rate.hex(), stats.error_half_width.hex(),
            stats.negatives, stats.zeros]


def _bits(bits) -> str:
    return "".join(str(b) for b in bits)


@dataclass
class RunState:
    config: SimConfig
    reference: dict | None = None


@dataclass(frozen=True)
class RunWorkload:
    """A repetition is one ``run_wer`` (or ``path_statistics``) call on a
    fixed config; every repetition must reproduce the first one's report."""

    # Calibrator passes (compute, stream): batch-sized arrays share the
    # memory system with the neighbours.
    calibration = (6, 2)

    name: str
    params: CodeParams
    crossover: float
    algorithm: str | None  # None: genie-aided path_statistics
    transmitted: str
    trials: int
    tiny_trials: int

    def prepare(self, seed: int, tiny: bool) -> RunState:
        return RunState(SimConfig(
            params=self.params, channel=Channel.bsc(self.crossover),
            algorithm=self.algorithm or ALG_PSI, options=DecoderOptions(tie_seed=seed),
            trials=self.tiny_trials if tiny else self.trials,
            master_seed=seed, transmitted=self.transmitted))

    def effective_batch(self, tiny: bool = False) -> int:
        return self.prepare(0, tiny).config.effective_batch()

    def _run(self, config: SimConfig):
        if self.algorithm is None:
            return simulate.path_statistics(config)
        return simulate.run_wer(config, per_path=True)

    def repetition(self, state: RunState, i: int):
        return state.config.trials, self._run(state.config)

    def fingerprint(self, report) -> dict:
        if self.algorithm is None:
            return {"paths": {_bits(p.bits): _stats_hex(s) for p, s in report.path_stats.items()},
                    "nodes": {_bits(pre): _stats_hex(s) for pre, s in report.node_stats.items()}}
        return {"word_errors": report.word_errors, "bit_errors": report.bit_errors,
                "ops_max": report.ops_max,
                "path_errors": [round(rate * report.trials)
                                for rate, _ in report.path_error_rates.values()]}

    def _counters(self, fingerprint: dict) -> dict:
        """The integer part of a fingerprint, which must not depend on batching."""
        if self.algorithm is None:  # negatives and zeros, the last two of _stats_hex
            return {key: {k: v[-2:] for k, v in table.items()}
                    for key, table in fingerprint.items()}
        return fingerprint

    def warm_up(self, state: RunState) -> None:
        """A short run of the same config: imports and lazy set-up, not the
        full batch."""
        self._run(replace(state.config, trials=min(self.tiny_trials, state.config.trials)))

    def reference(self, state: RunState) -> dict:
        """One untimed repetition; its fingerprint is the reference for the rest."""
        state.reference = self.fingerprint(self._run(state.config))
        return state.reference

    def check(self, state: RunState, i: int, output) -> bool:
        return self.fingerprint(output) == state.reference

    def cross_check(self, state: RunState) -> bool:
        """Re-run with a second batch size: the integer counters must not move."""
        config = state.config
        split = replace(config, batch_size=_split_batch(config.effective_batch()))
        return self._counters(self.fingerprint(self._run(split))) == self._counters(state.reference)


@dataclass
class SingleState:
    received: np.ndarray
    info: np.ndarray
    options: DecoderOptions
    ref_info: np.ndarray | None = None
    ref_cw: np.ndarray | None = None
    ref_ops: int = 0


@dataclass(frozen=True)
class SingleWorkload:
    """A repetition is one ``decode_phi`` call on block ``i mod blocks`` with
    ``trial`` equal to the block index; each result must equal the matching
    row of ``decode_batch`` on the whole block set."""

    # Calibrator passes (compute, stream): one block stays in the core's caches.
    calibration = (2, 0)

    name: str
    params: CodeParams
    crossover: float
    blocks: int
    tiny_blocks: int

    def prepare(self, seed: int, tiny: bool) -> SingleState:
        count = self.tiny_blocks if tiny else self.blocks
        info = np.random.default_rng(seed).integers(0, 2, (count, self.params.k), dtype=np.uint8)
        sent = core.encode_batch(info, self.params)
        channel = Channel.bsc(self.crossover)
        received = np.stack([simulate.apply_channel(sent[j], channel, seed, j)
                             for j in range(count)])
        return SingleState(received, info, DecoderOptions(tie_seed=seed))

    def effective_batch(self, tiny: bool = False) -> int:
        return 1

    def repetition(self, state: SingleState, i: int):
        j = i % len(state.received)
        return 1, decoder.decode_phi(state.received[j], self.params, state.options, trial=j)

    def warm_up(self, state: SingleState) -> None:
        self.repetition(state, 0)

    def reference(self, state: SingleState) -> dict:
        """decode_batch on the whole block set, the row-by-row reference."""
        info, cw, ops = decoder.decode_batch(state.received, self.params, ALG_PHI,
                                             state.options,
                                             np.arange(len(state.received), dtype=np.uint64))
        state.ref_info, state.ref_cw, state.ref_ops = info, cw.astype(np.int8), ops
        digest = hashlib.sha256(info.tobytes() + state.ref_cw.tobytes()).hexdigest()
        wrong = info != state.info
        return {"sha256": digest, "ops": ops,
                "block_errors": int(np.count_nonzero(wrong.any(axis=1))),
                "bit_errors": int(np.count_nonzero(wrong))}

    def check(self, state: SingleState, i: int, output) -> bool:
        j = i % len(state.received)
        return (np.array_equal(output.info, state.ref_info[j])
                and np.array_equal(output.codeword, state.ref_cw[j])
                and output.op_count == state.ref_ops)

    def cross_check(self, state: SingleState) -> None:
        """Every call is already checked against decode_batch."""
        return None


WORKLOADS = {w.name: w for w in (
    RunWorkload("wer-phi-10-2", CodeParams(10, 2), 0.27, ALG_PHI, ALL_ONES,
                trials=4096, tiny_trials=64),
    RunWorkload("wer-psi-8-2", CodeParams(8, 2), 0.15, ALG_PSI, RANDOM_CODEWORDS,
                trials=16384, tiny_trials=256),
    RunWorkload("genie-12-1", CodeParams(12, 1), 0.375, None, ALL_ONES,
                trials=1024, tiny_trials=64),
    SingleWorkload("decode-single-12-2", CodeParams(12, 2), 0.30,
                   blocks=512, tiny_blocks=4),
)}
