"""Golden determinism fixture.

The JSON files in ``tests/golden/`` hold outputs recorded by
``python3 tests/golden/record.py``.  This test recomputes every entry and
requires it to match exactly: integer counters as integers, floats as
hex strings.  The grid covers the decoder rules the benchmark fingerprints
do not: both u rules, both v rules, both tie rules, all-ones and random
codewords, and several batch sizes, plus the single-block trace, the
genie statistics and the analysis's weakest paths and error predictions.

Re-record only at a commit whose outputs are known good; a refactor or
speed-up must leave every entry unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from rmrec import (
    Channel,
    CodeParams,
    DecoderOptions,
    SimConfig,
    decode_phi,
    decode_psi,
    path_statistics,
    run_wer,
)
from rmrec.analysis import (
    phi_node_prefix,
    phi_weakest_prefix,
    predict_errors,
    residual_phi,
    residual_psi,
    threshold_report,
    weakest_path,
    weakest_path_at_node,
)
from rmrec.decoder import (
    MIN_SUM,
    PRODUCT,
    SCALED,
    TIE_POSITIVE,
    TIE_RANDOM,
    UNSCALED,
)
from rmrec.simulate import ALL_ONES, RANDOM_CODEWORDS

GOLDEN = Path(__file__).with_name("golden")

SEED = 11
RULES = list(itertools.product((SCALED, UNSCALED), (PRODUCT, MIN_SUM),
                               (TIE_RANDOM, TIE_POSITIVE)))

WER_CODES = ((6, 2), (7, 3))
WER_CROSSOVER = 0.2
WER_TRIALS = 60
BATCHES = (1, 7, 0)  # 0: the automatic batch size

TRACE_CODES = ((1, 1), (3, 3), (4, 1), (5, 0), (5, 2), (6, 3))

STATS_CODE = (8, 2)
STATS_CROSSOVER = 0.2
STATS_TRIALS = 1000

ANALYSIS_CODES = tuple((m, r) for m in range(2, 13) for r in range(1, m))
ANALYSIS_EPSILONS = (0.3, 0.7, None)  # None: the algorithm's own threshold


def _options(u_rule: str, v_rule: str, tie_rule: str) -> DecoderOptions:
    return DecoderOptions(u_rule=u_rule, v_rule=v_rule, tie_rule=tie_rule,
                          tie_seed=SEED)


# --- run_wer counters --------------------------------------------------------

def wer_cases() -> list[dict]:
    return [dict(m=m, r=r, algorithm=algorithm, u_rule=u, v_rule=v, tie_rule=t,
                 transmitted=transmitted, batch_size=batch)
            for (m, r), algorithm, (u, v, t), transmitted, batch in itertools.product(
                WER_CODES, ("psi", "phi"), RULES, (ALL_ONES, RANDOM_CODEWORDS), BATCHES)]


def wer_entry(case: dict) -> dict:
    config = SimConfig(
        params=CodeParams(case["m"], case["r"]), channel=Channel.bsc(WER_CROSSOVER),
        algorithm=case["algorithm"],
        options=_options(case["u_rule"], case["v_rule"], case["tie_rule"]),
        trials=WER_TRIALS, master_seed=SEED, transmitted=case["transmitted"],
        batch_size=case["batch_size"])
    report = run_wer(config, per_path=True)
    return {"case": case, "word_errors": report.word_errors,
            "bit_errors": report.bit_errors, "ops_max": report.ops_max,
            "path_errors": [round(rate * report.trials)
                            for rate, _ in report.path_error_rates.values()]}


# --- single-block traces -----------------------------------------------------

def trace_blocks(n: int) -> list[list[float]]:
    """Two real blocks with exact zeros: uniform reals with a zeroed
    fraction, and values on a coarse grid so that sums cancel exactly."""
    rng = np.random.default_rng(n)
    uniform = rng.uniform(-1.0, 1.0, n)
    uniform[rng.uniform(size=n) < 0.2] = 0.0
    grid = rng.integers(-2, 3, n) * 0.5
    return [uniform.tolist(), grid.tolist()]


def trace_cases() -> list[dict]:
    cases = []
    for m, r in TRACE_CODES:
        blocks = trace_blocks(1 << m)
        algorithms = ("psi", "phi") if r >= 1 else ("psi",)
        for algorithm, (u, v, t), (b, block) in itertools.product(
                algorithms, RULES, enumerate(blocks)):
            cases.append(dict(m=m, r=r, algorithm=algorithm, u_rule=u, v_rule=v,
                              tie_rule=t, trial=5 * b,
                              y=[x.hex() for x in block]))
    return cases


def trace_entry(case: dict) -> dict:
    params = CodeParams(case["m"], case["r"])
    y = np.array([float.fromhex(x) for x in case["y"]])
    options = DecoderOptions(u_rule=case["u_rule"], v_rule=case["v_rule"],
                             tie_rule=case["tie_rule"], tie_seed=SEED, trace=True)
    decode = decode_phi if case["algorithm"] == "phi" else decode_psi
    result = decode(y, params, options, trial=case["trial"])
    return {"case": case,
            "info": "".join(str(int(b)) for b in result.info),
            "codeword": "".join("+" if s > 0 else "-" for s in result.codeword),
            "op_count": result.op_count,
            "trace": [[str(path), value.hex(), 1 - 2 * int(result.info[j]), j]
                      for j, (path, value) in enumerate(result.trace.items())]}


# --- genie path statistics ---------------------------------------------------

def stats_cases() -> list[dict]:
    return [dict(m=STATS_CODE[0], r=STATS_CODE[1], batch_size=batch) for batch in BATCHES]


def _stats(stats) -> list:
    return [stats.trials, stats.mean.hex(), stats.variance.hex(),
            stats.variance_half_width.hex(), stats.error_rate.hex(),
            stats.error_half_width.hex(), stats.negatives, stats.zeros]


def stats_entry(case: dict) -> dict:
    config = SimConfig(params=CodeParams(case["m"], case["r"]),
                       channel=Channel.bsc(STATS_CROSSOVER), trials=STATS_TRIALS,
                       master_seed=SEED, batch_size=case["batch_size"])
    report = path_statistics(config)
    bits = lambda key: "".join(str(b) for b in key)  # noqa: E731
    return {"case": case,
            "paths": {bits(p.bits): _stats(s) for p, s in report.path_stats.items()},
            "nodes": {bits(pre): _stats(s) for pre, s in report.node_stats.items()}}


# --- analysis predictions and weakest paths ---------------------------------

def analysis_cases() -> list[dict]:
    return [dict(m=m, r=r, algorithm=algorithm, epsilon=epsilon)
            for (m, r), algorithm, epsilon in itertools.product(
                ANALYSIS_CODES, ("psi", "phi"), ANALYSIS_EPSILONS)]


def _outcome(call, record):
    """record(call()), or what the call raised."""
    try:
        value = call()
    except (ValueError, ArithmeticError) as error:
        return {"raised": type(error).__name__}
    return record(value)


def _bits(bits) -> str:
    return "".join(str(b) for b in bits)


def analysis_entry(case: dict) -> dict:
    params = CodeParams(case["m"], case["r"])
    algorithm, epsilon = case["algorithm"], case["epsilon"]
    if epsilon is None:
        epsilon = residual_psi(params) if algorithm == "psi" else residual_phi(params)

    def report(rep) -> dict:
        return {"epsilon": rep.epsilon.hex(),
                "weakest_variance": rep.weakest_variance.hex(),
                "node_variances": {str(g): mu.hex()
                                   for g, mu in rep.node_variances.items()},
                "block_lower": rep.block_lower.hex(), "block_upper": rep.block_upper.hex()}

    def predictions(result) -> dict:
        per_path, lower, upper = result
        rows = [(_bits(path.bits), p.variance.hex(), p.p_low.hex(), p.p_high.hex(),
                 p.gaussian) for path, p in sorted(per_path.items())]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        return {"paths": digest, "block_lower": lower.hex(), "block_upper": upper.hex()}

    if algorithm == "psi":
        weakest, at_node = (lambda: weakest_path(params).bits,
                            lambda g: weakest_path_at_node(params, g).bits)
    else:
        weakest, at_node = (lambda: phi_weakest_prefix(params),
                            lambda g: phi_node_prefix(params, g))
    return {"case": case,
            "report": _outcome(lambda: threshold_report(params, epsilon, algorithm=algorithm),
                               report),
            "predictions": _outcome(lambda: predict_errors(params, epsilon, algorithm),
                                    predictions),
            "weakest": _outcome(weakest, _bits),
            "at_node": {str(g): _outcome(lambda: at_node(g), _bits)
                        for g in range(1, params.m - params.r + 1)}}


FIXTURES = {
    "analysis": (analysis_cases, analysis_entry),
    "run_wer": (wer_cases, wer_entry),
    "trace": (trace_cases, trace_entry),
    "path_statistics": (stats_cases, stats_entry),
}


def record(name: str) -> list[dict]:
    cases, entry = FIXTURES[name]
    return [entry(case) for case in cases()]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_golden(name):
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    _, entry = FIXTURES[name]
    assert len(expected) == len(FIXTURES[name][0]())
    for want in expected:
        assert entry(want["case"]) == want, want["case"]
