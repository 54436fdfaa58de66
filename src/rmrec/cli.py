"""Command-line front end: info, encode, decode, simulate, analyze, opcount.

Exit codes: 0 on success, 2 on usage errors, 3 when a measured operation
count violates its bound.  The default seed comes from the RM_SEED
environment variable and is overridden by --seed.

Text formats at this boundary: info blocks are hex strings (lexicographic
path order, first path in the most significant bit, left-padded to
ceil(k/4) digits); codewords are strings over {+,-} or hex of the binary
image (+1 -> 0, -1 -> 1, first symbol most significant).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import analysis
from .core import CodeParams, encode, encode_op_count, enumerate_paths
from .decoder import (
    ALG_PHI,
    ALG_PSI,
    MIN_SUM,
    PRODUCT,
    SCALED,
    TIE_POSITIVE,
    TIE_RANDOM,
    UNSCALED,
    DecoderOptions,
    decode_batch,
    decode_op_bound,
    decode_phi,
    decode_psi,
)
from .simulate import Channel, SimConfig, sweep

USAGE_ERROR = 2
BOUND_ERROR = 3

OUTPUT_KEYS = ["m", "r", "n", "k", "d", "algorithm", "p", "snr_db", "wer",
               "wer_ci", "ber", "ber_ci", "ops_max", "seed", "trials"]


# --- text formats -------------------------------------------------------------

def info_to_hex(bits: np.ndarray) -> str:
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return format(value, f"0{-(-len(bits) // 4)}x")


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def hex_to_info(text: str, k: int, what: str = "info block", size: str = "k") -> np.ndarray:
    """The k bits of a hex string, first bit most significant.  Surrounding
    whitespace is stripped; a text of anything but hex digits, or whose
    value needs more than k bits, raises ValueError naming the text `what`
    and k `size`."""
    text = text.strip()
    # int(text, 16) also takes a sign, a 0x prefix, underscores and non-ASCII digits
    if not text or not set(text) <= _HEX_DIGITS:
        raise ValueError(f"{what} {text!r} is not hex: use only the digits 0-9 and a-f")
    value = int(text, 16)
    if value >> k:
        raise ValueError(f"{what} {text!r} does not fit in {size}={k} bits")
    return np.array([(value >> (k - 1 - i)) & 1 for i in range(k)], dtype=np.uint8)


def codeword_to_text(symbols: np.ndarray) -> str:
    return "".join("+" if s > 0 else "-" for s in symbols)


def codeword_to_hex(symbols: np.ndarray) -> str:
    return info_to_hex((np.asarray(symbols) < 0).astype(np.uint8))


def parse_word(text: str, n: int) -> np.ndarray:
    """A received block: '+-' symbols, hex of the binary image, or
    whitespace-separated reals."""
    text = text.strip()
    if set(text) <= {"+", "-"} and text:
        if len(text) != n:
            raise ValueError(f"word must have n={n} symbols, got {len(text)}")
        return np.array([1.0 if ch == "+" else -1.0 for ch in text])
    if any(ch.isspace() for ch in text) or "." in text:
        values = np.array([float(tok) for tok in text.split()])
        if values.shape != (n,):
            raise ValueError(f"word must have n={n} values, got {values.shape[0]}")
        if not np.all(np.isfinite(values)):
            raise ValueError("word values must be finite reals")
        return values
    return 1.0 - 2.0 * hex_to_info(text, n, "received word", "n")


def _read_argument(value: str) -> str:
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as handle:
            return handle.read()
    return value


# --- argument plumbing ---------------------------------------------------------

def _add_code_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, required=True, help="number of variables")
    parser.add_argument("--r", type=int, required=True, help="code order")


def _add_decoder_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algo", choices=[ALG_PSI, ALG_PHI], default=ALG_PSI)
    parser.add_argument("--u-rule", choices=[SCALED, UNSCALED], default=SCALED)
    parser.add_argument("--v-rule", choices=[PRODUCT, MIN_SUM], default=PRODUCT)
    parser.add_argument("--tie-rule", choices=[TIE_RANDOM, TIE_POSITIVE],
                        default=TIE_RANDOM)


def _default_seed() -> int:
    return int(os.environ.get("RM_SEED", "0"))


def _options(args: argparse.Namespace, seed: int) -> DecoderOptions:
    return DecoderOptions(u_rule=args.u_rule, v_rule=args.v_rule,
                          tie_rule=args.tie_rule, tie_seed=seed)


def _parse_channel(spec: str) -> Channel:
    kind, _, value = spec.partition(":")
    if not value:
        raise ValueError(f"channel must look like bsc:0.05 or awgn:1.0, got {spec!r}")
    if kind == "bsc":
        return Channel.bsc(float(value))
    if kind == "awgn":
        return Channel.awgn_hard(float(value))
    raise ValueError(f"unknown channel kind {kind!r}")


def _parse_grid(spec: str) -> list[float]:
    """Either a comma list '0.03,0.04' or a range 'start:stop:count'."""
    if ":" in spec:
        start_s, stop_s, count_s = spec.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
        if count < 1:
            raise ValueError("grid count must be >= 1")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    return [float(tok) for tok in spec.split(",") if tok]


# --- subcommands ---------------------------------------------------------------

def cmd_info(args: argparse.Namespace) -> int:
    params = CodeParams(args.m, args.r)
    print(f"code {{{params.m},{params.r}}}: n={params.n} k={params.k} d={params.d}")
    print("idx path kind node")
    for j, path in enumerate(enumerate_paths(params)):
        print(f"{j:3d} {path} {path.kind:5s} {path.node_label()}")
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    params = CodeParams(args.m, args.r)
    info = hex_to_info(_read_argument(args.info), params.k)
    cw = encode(info, params)
    print(f"codeword {codeword_to_text(cw)}")
    print(f"codeword_hex {codeword_to_hex(cw)}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    params = CodeParams(args.m, args.r)
    word = parse_word(_read_argument(args.word), params.n)
    options = _options(args, args.seed if args.seed is not None else _default_seed())
    decode = decode_phi if args.algo == ALG_PHI else decode_psi
    result = decode(word, params, options)
    print(f"info {info_to_hex(result.info)}")
    print(f"codeword {codeword_to_text(result.codeword)}")
    print(f"ops {result.op_count}")
    return 0


def _simulate_rows(args: argparse.Namespace) -> list[dict]:
    params = CodeParams(args.m, args.r)
    base = _parse_channel(args.channel)
    values = _parse_grid(args.grid) if args.grid else [base.param]
    channels = [Channel(base.kind, v) for v in values]
    seed = args.seed if args.seed is not None else _default_seed()
    config = SimConfig(params=params, channel=base, algorithm=args.algo,
                       options=_options(args, seed), trials=args.trials,
                       master_seed=seed, transmitted=args.transmitted)
    rows = []
    for report in sweep(config, channels):
        channel = report.config.channel
        sigma = channel.sigma
        snr_db = analysis.snr_db_from_sigma(params, sigma) if sigma > 0 else math.inf
        rows.append({
            "m": params.m, "r": params.r, "n": params.n, "k": params.k,
            "d": params.d, "algorithm": args.algo, "p": channel.crossover,
            "snr_db": snr_db, "wer": report.wer, "wer_ci": report.wer_half_width,
            "ber": report.ber, "ber_ci": report.ber_half_width,
            "ops_max": report.ops_max, "seed": seed, "trials": report.trials,
        })
    return rows


def _emit_rows(rows: list[dict], keys: list[str], fmt: str) -> None:
    if fmt == "json":
        clean = [{k: (None if isinstance(v, float) and not math.isfinite(v) else v)
                  for k, v in row.items()} for row in rows]
        print(json.dumps(clean, indent=2))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_cell(row[k]) for k in keys])


def _cell(value) -> str:
    if isinstance(value, float):
        return "" if not math.isfinite(value) else repr(value)
    return str(value)


def cmd_simulate(args: argparse.Namespace) -> int:
    _emit_rows(_simulate_rows(args), OUTPUT_KEYS, args.format)
    return 0


ANALYZE_KEYS = ["m", "r", "algorithm", "epsilon", "epsilon_psi", "epsilon_phi",
                "epsilon_opt", "mu_star", "block_lower", "block_upper", "path",
                "kind", "node", "variance", "p_low", "p_high", "gaussian"]


def cmd_analyze(args: argparse.Namespace) -> int:
    params = CodeParams(args.m, args.r)
    epsilon = None if args.at_threshold else args.epsilon
    report = analysis.threshold_report(params, epsilon, args.c, args.algo)
    if args.format == "text":
        print(f"code {{{params.m},{params.r}}} algorithm={report.algorithm} "
              f"epsilon={report.epsilon:.6g}")
        print(f"epsilon_psi={report.epsilon_psi:.6g} "
              f"epsilon_phi={report.epsilon_phi:.6g} "
              f"epsilon_opt={report.epsilon_opt:.6g} (c={report.c:g})")
        print(f"weakest variance={report.weakest_variance:.6g}")
        for g in sorted(report.node_variances):
            print(f"  node g={g}: variance={report.node_variances[g]:.6g}")
        print(f"block error bounds [{report.block_lower:.6g}, {report.block_upper:.6g}]")
        print("path kind node variance p_low p_high gaussian")
        for path, pred in sorted(report.predictions.items()):
            print(f"{path} {path.kind:5s} {path.node_label():7s} "
                  f"{pred.variance:.6g} {pred.p_low:.6g} {pred.p_high:.6g} "
                  f"{int(pred.gaussian)}")
        return 0
    rows = [{
        "m": params.m, "r": params.r, "algorithm": report.algorithm,
        "epsilon": report.epsilon, "epsilon_psi": report.epsilon_psi,
        "epsilon_phi": report.epsilon_phi, "epsilon_opt": report.epsilon_opt,
        "mu_star": report.weakest_variance, "block_lower": report.block_lower,
        "block_upper": report.block_upper, "path": str(path),
        "kind": path.kind, "node": path.node_label(),
        "variance": pred.variance, "p_low": pred.p_low, "p_high": pred.p_high,
        "gaussian": int(pred.gaussian),
    } for path, pred in sorted(report.predictions.items())]
    _emit_rows(rows, ANALYZE_KEYS, args.format)
    return 0


def cmd_opcount(args: argparse.Namespace) -> int:
    params = CodeParams(args.m, args.r)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.algo == "encode":
        measured = encode_op_count(params)
        bound = params.n * min(params.r, params.m - params.r)
        label = "encoder"
    else:
        if args.trials < 1:
            raise ValueError("trials must be >= 1")
        options = DecoderOptions(u_rule=args.u_rule, tie_seed=seed)
        y = np.random.default_rng(seed).uniform(-1.0, 1.0, (args.trials, params.n))
        _, _, measured = decode_batch(y, params, args.algo, options)
        bound = decode_op_bound(params, args.algo, args.u_rule)
        label = f"{args.algo} ({args.u_rule})"
    print(f"{label} measured={measured} bound={bound}")
    if measured > bound:
        print("operation bound violated", file=sys.stderr)
        return BOUND_ERROR
    return 0


# --- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmrec",
        description="Recursive Reed-Muller coding: inspect, encode, decode, "
                    "simulate, analyze, audit operation counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print code parameters and the path table")
    _add_code_args(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("encode", help="encode a hex info block")
    _add_code_args(p)
    p.add_argument("info", help="k info bits as hex (or @file)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a received word")
    _add_code_args(p)
    p.add_argument("word", help="'+-' word, hex word, reals, or @file")
    _add_decoder_args(p)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="Monte Carlo WER/BER over a channel grid")
    _add_code_args(p)
    _add_decoder_args(p)
    p.add_argument("--channel", required=True, help="bsc:P or awgn:SIGMA")
    p.add_argument("--grid", default=None,
                   help="parameter grid: 'a,b,c' or 'start:stop:count'")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--transmitted", choices=["all-ones", "random"],
                   default="all-ones")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="threshold residuals and error predictions")
    _add_code_args(p)
    p.add_argument("--algo", choices=[ALG_PSI, ALG_PHI], default=ALG_PSI)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--epsilon", type=float, default=None,
                       help="channel residual 1-2p to analyze")
    group.add_argument("--at-threshold", action="store_true",
                       help="analyze at the algorithm's threshold residual")
    p.add_argument("--c", type=float, default=1.4,
                   help="constant of the quasi-linear threshold (> ln 4)")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("opcount", help="measured operation counts vs bounds")
    _add_code_args(p)
    p.add_argument("--algo", choices=[ALG_PSI, ALG_PHI, "encode"], default=ALG_PSI)
    p.add_argument("--u-rule", choices=[SCALED, UNSCALED], default=SCALED)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_opcount)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
