"""Second-order analysis of the recursive decoders.

Under genie-aided conditioning (all earlier decisions correct, all-ones
transmission) every intermediate value of the recursion is a product or
midpoint of i.i.d. variables, so its first two moments evolve by simple
rules: a v step squares the mean and maps the normalized variance mu to
(mu+1)^2 - 1, a u step keeps the mean and halves mu.  Iterating from the
channel variance mu0 = eps^-2 - 1 (eps = 1 - 2p the channel residual)
gives the variance of the normalized end value z(path) = y(path)/E y(path)
for every path, and with it Chebyshev or Gaussian estimates of the
conditional bit error rates.

The variance is maximized by the leftmost path of each node family (the
first path of the code's :func:`~rmrec.core.plotkin_tree`, and the first
path through each of its repetition nodes), which yields closed forms, the
decoding-threshold residuals of both algorithms, and the channel points
where the weakest path starts to fail.  :func:`threshold_report` puts
these residuals beside the paper's comparison points: majority decoding
and maximum-likelihood decoding at the same constant c, and optimal codes
of the same rate.  The weakest prefixes of the phi decoder are read off
the tree's first first-order leaves, and the error predictions walk its
leaves once, one prediction per end node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .core import FIRST_ORDER, LEFT_END, CodeParams, Path, PlotkinNode, plotkin_tree
from .decoder import ALG_PSI, _is_phi

LN4 = math.log(4.0)

__all__ = [
    "LN4",
    "q_function",
    "q_inverse",
    "variance_step",
    "initial_variance",
    "path_mean",
    "path_variance",
    "PathMoments",
    "path_moments",
    "moments_for_path",
    "phi_weakest_prefix",
    "phi_node_prefix",
    "weakest_variance",
    "node_weakest_variance",
    "phi_weakest_variance",
    "phi_node_weakest_variance",
    "residual_psi",
    "residual_phi",
    "residual_optimal",
    "sigma_from_epsilon",
    "crossover_from_sigma",
    "snr_from_sigma",
    "snr_db_from_sigma",
    "gaussian_gate",
    "PathPrediction",
    "predict_errors",
    "ThresholdReport",
    "threshold_report",
]


# --- Gaussian helpers --------------------------------------------------------

def q_function(x: float) -> float:
    """Upper tail of the standard normal, evaluated through erfc."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_inverse(p: float) -> float:
    """Inverse of :func:`q_function` on (0, 1), Newton-polished."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"tail probability must lie in (0, 1), got {p}")
    x = -NormalDist().inv_cdf(p)  # 1 - p would round for tiny p
    for _ in range(2):
        density = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        if density == 0.0:
            break
        x += (q_function(x) - p) / density
    return x


def crossover_from_sigma(sigma: float) -> float:
    """Crossover probability Q(1/sigma) of the hard-decision AWGN image."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return q_function(1.0 / sigma)


def sigma_from_epsilon(epsilon: float) -> float:
    """Noise deviation whose hard-decision image has the given residual."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"residual must lie in (0, 1), got {epsilon}")
    return 1.0 / q_inverse((1.0 - epsilon) / 2.0)


def snr_from_sigma(params: CodeParams, sigma: float) -> float:
    """Signal-to-noise ratio per information bit, (2 R sigma^2)^-1."""
    rate = params.k / params.n
    return 1.0 / (2.0 * rate * sigma * sigma)


def snr_db_from_sigma(params: CodeParams, sigma: float) -> float:
    return 10.0 * math.log10(snr_from_sigma(params, sigma))


# --- moment recursions -------------------------------------------------------

def variance_step(mu: float, bit: int) -> float:
    """One step of the normalized-variance recursion.

    A 0 (v) step returns (mu+1)^2 - 1, a 1 (u) step returns mu/2.
    """
    if mu < 0:
        raise ValueError(f"variance must be nonnegative, got {mu}")
    if bit == 0:
        return (mu + 1.0) * (mu + 1.0) - 1.0
    if bit == 1:
        return mu / 2.0
    raise ValueError(f"step must be 0 or 1, got {bit}")


def initial_variance(epsilon: float) -> float:
    """Channel-level variance eps^-2 - 1 of the normalized symbols."""
    _check_epsilon(epsilon)
    return epsilon ** -2.0 - 1.0


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"residual must lie in (0, 1], got {epsilon}")


def path_mean(prefix: tuple[int, ...], epsilon: float) -> float:
    """Mean of the end value along a step prefix: eps^(2^zeros).

    Only the number of 0 steps matters; for very deep prefixes the value
    can underflow to 0.0 in double precision.
    """
    _check_epsilon(epsilon)
    zeros = len(prefix) - sum(prefix)
    return epsilon ** float(2 ** zeros)


def path_variance(prefix: tuple[int, ...], epsilon: float) -> float:
    """Normalized variance after iterating :func:`variance_step` over a prefix."""
    mu = initial_variance(epsilon)
    for bit in prefix:
        mu = variance_step(mu, bit)
    return mu


@dataclass(frozen=True)
class PathMoments:
    """First two moments of the normalized end value along a step prefix."""

    mean: float
    variance: float


def path_moments(prefix: tuple[int, ...], epsilon: float) -> PathMoments:
    return PathMoments(path_mean(tuple(prefix), epsilon),
                       path_variance(tuple(prefix), epsilon))


def moments_for_path(params: CodeParams, path: Path, epsilon: float) -> PathMoments:
    """Moments of the decision statistic of one information bit.

    For left-end paths the forced all-ones suffix stands for genuine
    averaging steps and is iterated; the free suffix of a right-end path
    only selects a coordinate and contributes nothing.
    """
    steps = path.bits if path.kind == LEFT_END else path.descent
    return path_moments(steps, epsilon)


# --- weakest paths -----------------------------------------------------------

def _first_order_node(params: CodeParams, length_log: int | None = None) -> PlotkinNode:
    """The first first-order node of phi's tree, of 2^length_log symbols if
    given."""
    for leaf in plotkin_tree(params.m, params.r, True).leaves:
        if leaf.kind == FIRST_ORDER and length_log in (None, leaf.length_log):
            return leaf
    size = "" if length_log is None else f" of length 2^{length_log}"
    raise ValueError(f"the tree of {params} has no {FIRST_ORDER} node{size}")


def phi_weakest_prefix(params: CodeParams) -> tuple[int, ...]:
    """Weakest analysis prefix of the biorthogonal-stopping decoder.

    r-1 zeros reach the first first-order node {m-r+1, 1}; the trailing m-r
    ones stand for the averaging implied by its half-block support sum.  A
    code without first-order nodes, r = 0 or r = m, raises ValueError.
    """
    node = _first_order_node(params)
    return node.prefix + (1,) * (node.length_log - 1)


def phi_node_prefix(params: CodeParams, g: int) -> tuple[int, ...]:
    """Weakest analysis prefix through the first-order node {g+1, 1}: the
    descent to the first such node, then g ones for its support sum."""
    _check_phi_order(params, 2)
    return _first_order_node(params, g + 1).prefix + (1,) * g


def _check_phi_order(params: CodeParams, least: int) -> None:
    if params.r < least:
        raise ValueError(f"the biorthogonal analysis requires r >= {least}")


def _check_node(params: CodeParams, g: int) -> None:
    if not 1 <= g <= params.m - params.r:
        raise ValueError(f"g must lie in [1, {params.m - params.r}], got {g}")


def _pow2(x: float) -> float:
    try:
        return math.exp(x * math.log(2.0))
    except OverflowError:
        return math.inf


def weakest_variance(params: CodeParams, epsilon: float) -> float:
    """Closed form 2^-(m-r) (eps^-2^(r+1) - 1) for the weakest path.

    Evaluated in the log domain when the inner power would overflow.
    """
    _check_epsilon(epsilon)
    return _scaled_power(epsilon, params.r + 1, params.r - params.m)


def node_weakest_variance(params: CodeParams, epsilon: float, g: int) -> float:
    """Closed form 2^-g (((eps^-2^r - 1) 2^(r+g-m) + 1)^2 - 1)."""
    _check_epsilon(epsilon)
    _check_node(params, g)
    return _node_form(params, epsilon, params.r, g)


def _scaled_power(epsilon: float, level: int, shift: int) -> float:
    # (eps^-2^level - 1) * 2^shift without intermediate overflow
    exponent = float(2 ** level) * -math.log(epsilon)
    if exponent < 700.0:
        return math.expm1(exponent) * 2.0 ** shift
    return _pow2(exponent / math.log(2.0) + shift)


def _node_form(params: CodeParams, epsilon: float, level: int, g: int) -> float:
    # 2^-g ((x + 1)^2 - 1) with x = (eps^-2^level - 1) 2^(r+g-m)
    x = _scaled_power(epsilon, level, params.r + g - params.m)
    return (x * x + 2.0 * x) * 2.0 ** -g


def phi_weakest_variance(params: CodeParams, epsilon: float) -> float:
    """Weakest normalized support-sum variance 2^-(m-r) (eps^-2^r - 1).

    A code without first-order nodes, r = 0 or r = m, raises ValueError.
    """
    _check_epsilon(epsilon)
    if not 1 <= params.r < params.m:  # phi_weakest_prefix's test, without a tree of 2^m
        raise ValueError(f"the tree of {params} has no {FIRST_ORDER} node")
    return _scaled_power(epsilon, params.r, params.r - params.m)


def phi_node_weakest_variance(params: CodeParams, epsilon: float, g: int) -> float:
    """Variance along :func:`phi_node_prefix`, in closed form."""
    _check_epsilon(epsilon)
    _check_phi_order(params, 2)
    _check_node(params, g)
    return _node_form(params, epsilon, params.r - 1, g)


# --- decoding-threshold residuals ---------------------------------------------

def _check_threshold_params(params: CodeParams) -> None:
    if params.r < 1 or params.m < 2:
        raise ValueError("threshold residuals require r >= 1 and m >= 2")


def residual_psi(params: CodeParams) -> float:
    """Threshold residual ((2 r ln m)/d)^(1/2^(r+1)) of the linear-time decoder."""
    _check_threshold_params(params)
    m, r = params.m, params.r
    return (2.0 * r * math.log(m) / params.d) ** (1.0 / 2 ** (r + 1))


def residual_phi(params: CodeParams, c: float = 1.4) -> float:
    """Threshold residual (c m / d)^(1/2^r) of the biorthogonal-stopping decoder."""
    _check_threshold_params(params)
    _check_constant(c)
    return (c * params.m / params.d) ** (1.0 / 2 ** params.r)


def residual_optimal(params: CodeParams, c: float = 1.4) -> float:
    """Residual sqrt(c R) sustained by optimal codes of the same (low) rate."""
    _check_constant(c)
    return math.sqrt(c * params.k / params.n)


def _check_constant(c: float) -> None:
    if not (math.isfinite(c) and c > LN4):
        raise ValueError(f"the constant must be finite and exceed ln 4 = {LN4:.6f}, got {c}")


# --- error-probability predictions --------------------------------------------

def gaussian_gate(m: int) -> int:
    """Smallest repetition-node size for which the Gaussian limit is trusted."""
    return math.isqrt(m - 1) + 1  # ceil(sqrt(m))


@dataclass(frozen=True)
class PathPrediction:
    """Predicted conditional error probability of one information bit."""

    variance: float
    p_low: float
    p_high: float
    gaussian: bool


def _gaussian_tail(variance: float) -> float:
    if variance == 0.0:
        return 0.0
    if math.isinf(variance):
        return 0.5
    return q_function(1.0 / math.sqrt(variance))


def predict_errors(params: CodeParams, epsilon: float, algorithm: str = ALG_PSI,
                   ) -> tuple[dict[Path, PathPrediction], float, float]:
    """Per-path error predictions and block error bounds at one residual.

    Bits decided by large repetition sums (node size at or above
    ceil(sqrt(m))) get the Gaussian tail Q(1/sqrt(mu)); the rest fall back
    to the Chebyshev ceiling mu.  For biorthogonal stopping, each
    first-order node of length l contributes the pair (Q, (2l-1) max-term)
    as lower/upper bounds.  Block bounds: the weakest path's prediction
    from below, the per-path sum (clipped at one) from above.
    """
    _check_epsilon(epsilon)
    phi = _is_phi(params, algorithm)
    gate = gaussian_gate(params.m)
    tree = plotkin_tree(params.m, params.r, phi)
    predictions: dict[Path, PathPrediction] = {}
    for leaf in tree.leaves:
        if leaf.kind == LEFT_END:  # its forced ones are averaging steps
            mu = path_variance(leaf.paths[0].bits, epsilon)
            gated = leaf.length_log >= gate
            p = _gaussian_tail(mu) if gated else min(mu, 1.0)
            prediction = PathPrediction(mu, p, p, gated)
        elif leaf.kind == FIRST_ORDER:
            g = leaf.length_log - 1
            mu = path_variance(leaf.prefix, epsilon) * 2.0 ** -g
            gated = g >= gate
            single = _gaussian_tail(mu) if gated else min(mu, 1.0)
            upper = min(1.0, (2.0 ** (g + 2) - 1.0) * single)
            prediction = PathPrediction(mu, _gaussian_tail(mu), upper, gated)
        else:  # a full space; under phi, met before any first-order node
            mu = path_variance(leaf.prefix, epsilon)
            p = min(mu, 1.0)
            prediction = PathPrediction(mu, 0.0 if phi else p, p, False)
        predictions.update(dict.fromkeys(leaf.paths, prediction))
    first = tree.paths[0]  # the weakest path
    block_lower = predictions[first].p_low
    block_upper = min(1.0, sum(p.p_high for p in predictions.values()))
    return predictions, block_lower, block_upper


@dataclass
class ThresholdReport:
    """Residuals, weakest-path variances, and error predictions of a code.

    Beside the two algorithms' threshold residuals it carries the paper's
    comparison points at the same constant c: `epsilon_opt`, sqrt(c R),
    sustained by optimal codes of the same rate R; `epsilon_majority`,
    (c m / d)^(1/2^(r+1)), of majority decoding; and `epsilon_ml`,
    m^(r/2) n^-1/2 sqrt(c (2^r - 1) / r!), of maximum-likelihood decoding.
    """

    params: CodeParams
    algorithm: str
    c: float
    epsilon: float
    epsilon_psi: float
    epsilon_phi: float
    epsilon_opt: float
    epsilon_majority: float
    epsilon_ml: float
    weakest_variance: float
    node_variances: dict[int, float]
    predictions: dict[Path, PathPrediction]
    block_lower: float
    block_upper: float


def threshold_report(params: CodeParams, epsilon: float | None = None,
                     c: float = 1.4, algorithm: str = ALG_PSI) -> ThresholdReport:
    """Assemble the full analysis at one channel residual.

    With epsilon omitted, the report is evaluated at the algorithm's own
    threshold residual.
    """
    _check_threshold_params(params)
    _check_constant(c)
    eps_psi = residual_psi(params)
    eps_phi = residual_phi(params, c)
    eps_opt = residual_optimal(params, c)
    m, r = params.m, params.r
    eps_majority = (c * m / params.d) ** (1.0 / 2 ** (r + 1))
    eps_ml = (m ** (r / 2.0) / math.sqrt(params.n)
              * math.sqrt(c * (2 ** r - 1) / math.factorial(r)))
    if epsilon is None:
        epsilon = eps_psi if algorithm == ALG_PSI else eps_phi
    _check_epsilon(epsilon)
    if algorithm == ALG_PSI:
        star = weakest_variance(params, epsilon)
        nodes = {g: node_weakest_variance(params, epsilon, g)
                 for g in range(1, m - r + 1)}
    else:
        star = phi_weakest_variance(params, epsilon)
        if r >= 2:
            nodes = {g: phi_node_weakest_variance(params, epsilon, g)
                     for g in range(1, m - r + 1)}
        else:
            nodes = {m - 1: star}
    predictions, lower, upper = predict_errors(params, epsilon, algorithm)
    return ThresholdReport(params, algorithm, c, epsilon, eps_psi, eps_phi, eps_opt,
                           eps_majority, eps_ml, star, nodes, predictions, lower, upper)
