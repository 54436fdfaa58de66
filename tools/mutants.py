"""Run hand-written one-line mutants of src/rmrec against tier-1, and print
which of them the tests kill.

Each mutant replaces one piece of one line in a copy of the repository's
src, tests and tools, made in a temporary directory.  Tier-1 runs there
with `-x` and `-W error::RuntimeWarning`: a mutant is killed when the run
fails, and survives when it passes.  A mutant whose text is no longer in
its module is reported as stale.  This is a report, not a gate: each
survivor costs a full tier-1 run.

    python3 tools/mutants.py              # every mutant, in order
    python3 tools/mutants.py NAME ...     # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "README.md", "pyproject.toml")
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "-W", "error::RuntimeWarning")


class Mutant(NamedTuple):
    name: str
    module: str  # under src/rmrec
    old: str  # text that occurs exactly once in the module
    new: str


MUTANTS = (
    # closed forms
    Mutant("op-bound-psi", "decoder.py",
           "return (4 if u_rule == SCALED else 3) * n * lo + n",
           "return (4 if u_rule == SCALED else 3) * n * lo + 2 * n"),
    Mutant("op-bound-phi-scaled", "decoder.py",
           "return (3 if u_rule == SCALED else 2) * n * lo",
           "return (4 if u_rule == SCALED else 2) * n * lo"),
    Mutant("residual-psi", "analysis.py",
           "math.log(m) / params.d) ** (1.0 / 2 ** (r + 1))",
           "math.log(m) / params.d) ** (1.0 / 2 ** (r + 2))"),
    Mutant("residual-phi", "analysis.py",
           "params.d) ** (1.0 / 2 ** params.r)", "params.d) ** (1.0 / 2 ** (params.r + 1))"),
    Mutant("residual-optimal", "analysis.py",
           "return math.sqrt(c * params.k / params.n)",
           "return math.sqrt(c * params.k / params.n) / math.sqrt(2.0)"),
    Mutant("residual-majority", "analysis.py",
           "eps_majority = (c * m / params.d) ** (1.0 / 2 ** (r + 1))",
           "eps_majority = (c * m / params.d) ** (1.0 / 2 ** (r + 2))"),
    Mutant("residual-ml", "analysis.py",
           "* math.sqrt(c * (2 ** r - 1) / math.factorial(r)))",
           "* math.sqrt(c * (2 ** r - 1) / math.factorial(r)) * 1.01)"),
    Mutant("weakest-variance", "analysis.py",
           "_scaled_power(epsilon, params.r + 1, params.r - params.m)",
           "_scaled_power(epsilon, params.r + 1, params.r - params.m + 1)"),
    Mutant("node-variance", "analysis.py",
           "return (x * x + 2.0 * x) * 2.0 ** -g", "return (x * x + x) * 2.0 ** -g"),
    Mutant("phi-node-variance", "analysis.py",
           "return _node_form(params, epsilon, params.r - 1, g)",
           "return _node_form(params, epsilon, params.r, g)"),
    # kernels of the two walks
    Mutant("batched-u-step", "decoder.py",
           "np.add(np.multiply(y2, v_hat, out=out), y1, out=out)",
           "np.subtract(np.multiply(y2, v_hat, out=out), y1, out=out)"),
    Mutant("single-v-step", "decoder.py", "else y1 * y2)", "else y1 * y1)"),
    Mutant("min-sum-v-step", "decoder.py",
           "np.minimum(np.abs(y1, out=out), np.abs(y2, out=spare), out=out)",
           "np.maximum(np.abs(y1, out=out), np.abs(y2, out=spare), out=out)"),
    Mutant("batched-winner-rebuild", "decoder.py",
           "np.multiply(tables.hadamard.take(best, 0), sign, out=cw)",
           "np.multiply(tables.hadamard.take(best ^ 1, 0), sign, out=cw)"),
    Mutant("single-wide-winner-rebuild", "decoder.py",
           "np.multiply(h_a[best // b, :, None], h_b[best % b], out=cw.reshape(a, b))",
           "np.multiply(h_a[best // b, :, None], h_b[(best + 1) % b], out=cw.reshape(a, b))"),
    Mutant("genie-support-scale", "decoder.py",
           "supports.append(_block_sums(y2, step.reduce) * 2.0 ** -step.bits if integer",
           "supports.append(_block_sums(y2, step.reduce) * 2.0 ** -(step.bits + 1) if integer"),
    # tie sites
    Mutant("full-space-tie-sites", "decoder.py",
           "np.uint64(site) + cols.astype(np.uint64))", "np.uint64(site) + 0 * cols)"),
    Mutant("single-repetition-tie-site", "decoder.py",
           "sign = _sign(total, options, trials, node.site)",
           "sign = _sign(total, options, trials, node.site + 1)"),
    # the bit budget, the draw, the accumulators
    Mutant("first-order-bit-budget", "decoder.py",
           "budget = e if node.kind == RIGHT_END else e + length_log",
           "budget = e if node.kind == RIGHT_END else e + length_log - 1"),
    Mutant("draw-threshold", "simulate.py",
           "threshold = _threshold(channel.crossover) << np.uint64(11)",
           "threshold = _threshold(channel.crossover) << np.uint64(10)"),
    Mutant("moment-accumulator", "simulate.py", "if i < 3:", "if i < 2:"),
    Mutant("wilson-cut-off", "simulate.py", "if errors >= 30:", "if errors >= 3:"),
)


def run(mutant: Mutant) -> tuple[str, float]:
    """('killed' | 'survived' | 'stale', seconds) of one mutant."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="rmrec-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        module = copy / "src/rmrec" / mutant.module
        text = module.read_text()
        if text.count(mutant.old) != 1:
            return "stale", 0.0
        module.write_text(text.replace(mutant.old, mutant.new))
        result = subprocess.run((sys.executable,) + TIER1, cwd=copy,
                                env=dict(os.environ, PYTHONPATH="src"),
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return ("survived" if result.returncode == 0 else "killed"), time.perf_counter() - start


def main(names: list[str]) -> int:
    known = {mutant.name for mutant in MUTANTS}
    unknown = sorted(set(names) - known)
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    print(f"{'mutant':28} {'outcome':9} {'seconds':>7}")
    for mutant in MUTANTS:
        if not names or mutant.name in names:
            outcome, seconds = run(mutant)
            print(f"{mutant.name:28} {outcome:9} {seconds:7.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
