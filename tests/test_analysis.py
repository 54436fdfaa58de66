import math
from fractions import Fraction

import numpy as np
import pytest

from rmrec import Channel, CodeParams, enumerate_paths
from rmrec.analysis import (
    LN4,
    PathPrediction,
    crossover_from_sigma,
    gaussian_gate,
    initial_variance,
    moments_for_path,
    node_weakest_variance,
    path_mean,
    path_moments,
    path_variance,
    phi_node_prefix,
    phi_node_weakest_variance,
    phi_weakest_prefix,
    phi_weakest_variance,
    predict_errors,
    q_function,
    q_inverse,
    residual_optimal,
    residual_phi,
    residual_psi,
    sigma_from_epsilon,
    threshold_report,
    variance_step,
    weakest_variance,
)

from oracles import (
    first_left_path,
    node_bits,
    node_variance_asymptote_oracle,
    node_variance_oracle,
    phi_node_bits,
    phi_node_variance_oracle,
    phi_weakest_bits,
    phi_weakest_variance_oracle,
    residual_majority_oracle,
    residual_ml_oracle,
    residual_optimal_oracle,
    residual_phi_oracle,
    residual_psi_oracle,
    variance_along,
    weakest_bits,
    weakest_variance_oracle,
)

# codes for the value tests: the smallest with a threshold (m = 2), r = 1
# and r = m - 1 edges, and the paper's reference codes
VALUE_CODES = ((2, 1), (3, 1), (3, 2), (5, 2), (6, 1), (7, 2), (8, 2), (8, 3), (9, 8),
               (10, 2), (12, 3), (13, 4), (16, 2))


def test_variance_step_examples():
    assert variance_step(0.0, 0) == 0.0
    assert variance_step(0.0, 1) == 0.0
    assert variance_step(3.0, 0) == 15.0
    assert variance_step(4.0, 1) == 2.0
    with pytest.raises(ValueError):
        variance_step(-0.1, 0)
    with pytest.raises(ValueError):
        variance_step(1.0, 2)


def test_neighbor_inequality_example():
    tau = 2.0
    left_first = variance_step(variance_step(tau, 0), 1)
    right_first = variance_step(variance_step(tau, 1), 0)
    assert left_first == 4.0 and right_first == 3.0


def test_neighbor_inequality_property():
    rng = np.random.default_rng(0)
    for tau in np.concatenate([[0.0], 10.0 ** rng.uniform(-6, 6, 500)]):
        weaker = variance_step(variance_step(tau, 0), 1)
        stronger = variance_step(variance_step(tau, 1), 0)
        assert weaker >= stronger


def test_path_moment_examples():
    assert path_mean((0, 1, 1), 0.9) == pytest.approx(0.81)
    mom = path_moments((0, 1, 1), 1.0)
    assert mom.mean == 1.0 and mom.variance == 0.0
    assert path_variance((0, 1, 1, 1), 0.5) == pytest.approx(15 / 8)
    assert weakest_variance(CodeParams(4, 1), 0.5) == pytest.approx(15 / 8)
    with pytest.raises(ValueError):
        path_mean((0, 1), 0.0)
    with pytest.raises(ValueError):
        path_variance((0, 1), 1.2)


def test_mean_closed_form_equals_iteration():
    rng = np.random.default_rng(1)
    for _ in range(100):
        eps = rng.uniform(0.05, 1.0)
        prefix = tuple(rng.integers(0, 2, rng.integers(0, 12)))
        mean = eps
        for bit in prefix:
            mean = mean * mean if bit == 0 else mean
        assert path_mean(prefix, eps) == pytest.approx(mean, rel=1e-12)


def test_initial_variance():
    assert initial_variance(1.0) == 0.0
    assert initial_variance(0.5) == pytest.approx(3.0)


def test_weakest_path_forms():
    # the weakest path is the tree's first, and the weakest through a
    # repetition node {g,0} the first through such a node
    assert enumerate_paths(CodeParams(4, 1))[0].bits == (0, 1, 1, 1)
    assert first_left_path(CodeParams(5, 2), 2).bits == (0, 1, 0, 1, 1)
    # g = m - r degenerates to the global weakest path
    assert first_left_path(CodeParams(7, 2), 5) == enumerate_paths(CodeParams(7, 2))[0]
    with pytest.raises(ValueError):
        first_left_path(CodeParams(5, 2), 4)
    assert phi_weakest_prefix(CodeParams(6, 2)) == (0, 1, 1, 1, 1)
    assert phi_node_prefix(CodeParams(6, 3), 2) == (0, 1, 0, 1, 1)


def test_phi_weakest_prefix_needs_a_first_order_node():
    # phi's tree of a repetition code or a full space has no first-order node
    for m in range(1, 6):
        for r in (0, m):
            with pytest.raises(ValueError, match="first-order"):
                phi_weakest_prefix(CodeParams(m, r))
    assert phi_weakest_prefix(CodeParams(2, 1)) == (1,)


def test_phi_variance_needs_a_first_order_node():
    # the phi closed form and report refuse a code without first-order
    # nodes, as phi_weakest_prefix does; the phi prediction of a full space
    # is its full-space bound
    for m in range(2, 6):
        for r in (0, m):
            with pytest.raises(ValueError, match="first-order"):
                phi_weakest_variance(CodeParams(m, r), 0.7)
        with pytest.raises(ValueError, match="first-order"):
            threshold_report(CodeParams(m, m), 0.7, algorithm="phi")
        predictions, lower, upper = predict_errors(CodeParams(m, m), 0.7, "phi")
        assert len(predictions) == 1 << m and lower == 0.0 < upper


@pytest.mark.parametrize("m", range(2, 11))
def test_weakest_path_maximizes_variance(m):
    rng = np.random.default_rng(m)
    for r in range(m + 1):
        params = CodeParams(m, r)
        eps = float(rng.uniform(0.2, 0.95))
        variances = {p: moments_for_path(params, p, eps).variance
                     for p in enumerate_paths(params)}
        star = enumerate_paths(params)[0]
        assert variances[star] == max(variances.values())
        for g in range(1, m - r + 1):
            family = {p: v for p, v in variances.items()
                      if p.kind == "left" and p.end_size == g}
            if family:
                node_star = first_left_path(params, g)
                assert family[node_star] == max(family.values())


def test_closed_forms_match_recursion():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(3, 14))
        r = int(rng.integers(1, m))
        eps = float(rng.uniform(0.2, 0.999))
        params = CodeParams(m, r)
        star = enumerate_paths(params)[0]
        assert weakest_variance(params, eps) == pytest.approx(
            path_variance(star.bits, eps), rel=1e-12)
        g = int(rng.integers(1, m - r + 1))
        node_star = first_left_path(params, g)
        assert node_weakest_variance(params, eps, g) == pytest.approx(
            path_variance(node_star.bits, eps), rel=1e-12)
        assert phi_weakest_variance(params, eps) == pytest.approx(
            path_variance(phi_weakest_prefix(params), eps), rel=1e-12)
        if r >= 2:
            assert phi_node_weakest_variance(params, eps, g) == pytest.approx(
                path_variance(phi_node_prefix(params, g), eps), rel=1e-12)
    for g in (0, 6):  # g lies in [1, m - r]
        with pytest.raises(ValueError, match="g must"):
            node_weakest_variance(CodeParams(7, 2), 0.5, g)


def test_variance_log_domain():
    # direct power overflows but the log-domain value is finite
    params = CodeParams(1409, 9)
    eps = math.exp(-1.0)
    mu = weakest_variance(params, eps)
    assert math.isfinite(mu)
    assert math.log(mu) == pytest.approx(2 ** 10 - 1400 * math.log(2), rel=1e-9)
    # and a hopeless case saturates to inf instead of raising
    assert math.isinf(weakest_variance(CodeParams(40, 30), 0.5))


def test_residual_examples():
    assert residual_psi(CodeParams(7, 2)) == pytest.approx(0.838, abs=5e-4)
    assert residual_phi(CodeParams(8, 2), 1.4) == pytest.approx(0.647, abs=5e-4)
    with pytest.raises(ValueError):
        residual_phi(CodeParams(8, 2), 1.3)  # below ln 4
    with pytest.raises(ValueError):
        residual_optimal(CodeParams(8, 2), LN4)
    with pytest.raises(ValueError):
        residual_psi(CodeParams(5, 0))


def test_residual_optimal_monotone_in_rate():
    values = [residual_optimal(CodeParams(10, r)) for r in range(1, 6)]
    assert values == sorted(values)  # higher order -> higher rate -> larger


def test_residual_comparison_curves():
    params = CodeParams(10, 2)
    report = threshold_report(params, c=1.5)
    # same exponent 1/2^(r+1): majority is weaker whenever c m > 2 r ln m
    assert residual_psi(params) < report.epsilon_majority
    assert 0 < report.epsilon_ml < residual_psi(params)


def test_weakest_variance_at_threshold_identity():
    for m, r in [(8, 2), (10, 2), (12, 3)]:
        params = CodeParams(m, r)
        eps = residual_psi(params)
        expected = 1.0 / (2 * r * math.log(m)) - 2.0 ** (r - m)
        assert weakest_variance(params, eps) == pytest.approx(expected, rel=1e-12)


def test_weakest_tail_matches_asymptotic_form():
    # Q(1/sqrt(mu*)) at the threshold residual approaches m^-r / sqrt(4 pi r ln m)
    for m, tol in [(10, 0.5), (20, 0.25)]:
        params = CodeParams(m, 2)
        mu = weakest_variance(params, residual_psi(params))
        tail = q_function(1.0 / math.sqrt(mu))
        form = m ** -2.0 / math.sqrt(4 * math.pi * 2 * math.log(m))
        assert abs(tail / form - 1.0) < tol


def test_node_variance_asymptote_regimes():
    # the package's node variance at the threshold residual against the
    # large-m asymptote of each regime
    params = CodeParams(24, 2)
    eps = residual_psi(params)
    for g in list(range(1, 8)) + list(range(16, 23)):
        asym = node_variance_asymptote_oracle(24, 2, g)
        assert asym is not None
        exact = node_weakest_variance(params, eps, g)
        assert 0.5 < exact / asym < 2.0
    assert node_variance_asymptote_oracle(24, 2, 11) is None  # between the regimes


def test_q_function_values():
    assert q_function(0.0) == 0.5
    assert q_function(3.0) == pytest.approx(1.3499e-3, rel=1e-4)
    assert q_function(-2.0) + q_function(2.0) == pytest.approx(1.0)
    for p in (0.4, 0.1, 1e-3, 1e-9, 6e-17, 1e-20):  # 1 - p rounds at the last two
        assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-12)
    for p in (0.0, 1.0):
        with pytest.raises(ValueError):
            q_inverse(p)


def test_sigma_epsilon_mapping():
    assert crossover_from_sigma(1.0) == pytest.approx(0.15866, abs=1e-5)
    for eps in (0.1, 0.5, 0.9):
        residual = Channel.awgn_hard(sigma_from_epsilon(eps)).residual
        assert residual == pytest.approx(eps, rel=1e-10)
    with pytest.raises(ValueError):
        sigma_from_epsilon(1.0)
    with pytest.raises(ValueError):
        crossover_from_sigma(0.0)
    for sigma in (0.0, -1.0):
        with pytest.raises(ValueError):
            Channel.awgn_hard(sigma)
    for sigma in (0.3, 1.0, 2.5):  # the hard-decision image's residual 1 - 2Q(1/sigma)
        assert Channel.awgn_hard(sigma).residual == 1.0 - 2.0 * q_function(1.0 / sigma)


def test_gaussian_gate():
    assert gaussian_gate(9) == 3
    assert gaussian_gate(10) == 4
    assert gaussian_gate(16) == 4


def test_predict_errors_psi():
    params = CodeParams(7, 2)
    eps = residual_psi(params)
    predictions, lower, upper = predict_errors(params, eps, "psi")
    assert set(predictions) == set(enumerate_paths(params))
    assert 0.0 <= lower <= upper <= 1.0
    gate = gaussian_gate(params.m)
    for path, pred in predictions.items():
        assert 0.0 <= pred.p_low <= pred.p_high <= 1.0
        assert pred.gaussian == (path.kind == "left" and path.end_size >= gate)
    star = enumerate_paths(params)[0]
    assert predictions[star].p_low == lower
    assert lower == pytest.approx(q_function(
        1.0 / math.sqrt(weakest_variance(params, eps))))


def test_predict_errors_phi():
    params = CodeParams(8, 2)
    eps = residual_phi(params)
    predictions, lower, upper = predict_errors(params, eps, "phi")
    assert 0.0 <= lower <= upper <= 1.0
    star = enumerate_paths(params)[0]
    mu = phi_weakest_variance(params, eps)
    assert predictions[star].variance == pytest.approx(mu, rel=1e-12)
    assert predictions[star].p_low == pytest.approx(q_function(1 / math.sqrt(mu)))
    # upper bound is the union multiplier over 2l - 1 rival codewords
    g = params.m - params.r
    assert predictions[star].p_high == pytest.approx(
        min(1.0, (2.0 ** (g + 2) - 1) * predictions[star].p_low))


def test_prediction_extremes():
    params = CodeParams(6, 1)
    predictions, lower, upper = predict_errors(params, 1.0, "psi")
    assert lower == 0.0
    assert all(p.p_high == 0.0 for p in predictions.values())
    with pytest.raises(ValueError, match="algorithm"):
        predict_errors(params, 0.5, "viterbi")


def test_threshold_report_fields():
    params = CodeParams(8, 2)
    report = threshold_report(params)
    assert report.epsilon == pytest.approx(residual_psi(params))
    assert 0 < report.epsilon_opt < 1
    assert 0 < report.epsilon_phi < 1
    assert set(report.node_variances) == set(range(1, 7))
    assert report.block_lower <= report.block_upper
    phi_report = threshold_report(params, algorithm="phi")
    assert phi_report.epsilon == pytest.approx(residual_phi(params))
    assert phi_report.weakest_variance == pytest.approx(
        phi_weakest_variance(params, phi_report.epsilon))
    first_order = threshold_report(CodeParams(6, 1), algorithm="phi")
    assert set(first_order.node_variances) == {5}
    with pytest.raises(ValueError):
        threshold_report(params, c=1.0)
    with pytest.raises(ValueError):
        threshold_report(params, epsilon=1.5)


@pytest.mark.parametrize("m,r", VALUE_CODES)
def test_weakest_variances_equal_their_closed_forms(m, r):
    # each closed form against its formula in exact arithmetic, and that
    # formula against the variance recursion along its path, at every g,
    # the edges g = 1 and g = m - r included; rel 1e-12 covers expm1 and
    # the log domain of the package's evaluation
    params = CodeParams(m, r)
    # the oracles' paths are the tree's
    assert enumerate_paths(params)[0].bits == weakest_bits(m, r)
    assert phi_weakest_prefix(params) == phi_weakest_bits(m, r)
    for g in range(1, m - r + 1):
        assert first_left_path(params, g).bits == node_bits(m, r, g)
        if r >= 2:
            assert phi_node_prefix(params, g) == phi_node_bits(m, r, g)
    threshold = residual_psi(params)  # above one on the shortest codes
    for eps in (0.3, 0.7, 0.95) + ((threshold,) if threshold < 1 else ()):
        exact = Fraction(eps)
        want = weakest_variance_oracle(m, r, exact)
        assert want == variance_along(weakest_bits(m, r), exact)
        assert weakest_variance(params, eps) == pytest.approx(float(want), rel=1e-12)
        want = phi_weakest_variance_oracle(m, r, exact)
        assert want == variance_along(phi_weakest_bits(m, r), exact)
        assert phi_weakest_variance(params, eps) == pytest.approx(float(want), rel=1e-12)
        for g in range(1, m - r + 1):
            want = node_variance_oracle(m, r, exact, g)
            assert want == variance_along(node_bits(m, r, g), exact)
            assert node_weakest_variance(params, eps, g) == pytest.approx(float(want),
                                                                          rel=1e-12)
            if r >= 2:
                want = phi_node_variance_oracle(m, r, exact, g)
                assert want == variance_along(phi_node_bits(m, r, g), exact)
                assert phi_node_weakest_variance(params, eps, g) == pytest.approx(
                    float(want), rel=1e-12)


@pytest.mark.parametrize("m,r", VALUE_CODES)
def test_residuals_equal_their_formulas(m, r):
    # math.log/exp oracles, so rel 1e-12
    params = CodeParams(m, r)
    assert residual_psi(params) == pytest.approx(residual_psi_oracle(m, r), rel=1e-12)
    for c in (1.4, 1.5, 2.0, 7.25):
        assert residual_phi(params, c) == pytest.approx(residual_phi_oracle(m, r, c),
                                                        rel=1e-12)
        assert residual_optimal(params, c) == pytest.approx(
            residual_optimal_oracle(m, r, c), rel=1e-12)
        report = threshold_report(params, 1.0, c)  # the paper's comparison points
        assert report.c == c
        assert report.epsilon_majority == pytest.approx(residual_majority_oracle(m, r, c),
                                                        rel=1e-12)
        assert report.epsilon_ml == pytest.approx(residual_ml_oracle(m, r, c), rel=1e-12)


def test_residual_phi_scales_as_the_paper_states():
    # the paper's threshold: epsilon of order n^(-1/2^r); the log ratio
    # differs from -1/2^r by log(c m 2^r) / (2^r log n), under 0.006 at m = 1000
    for r in (1, 2, 3):
        params = CodeParams(1000, r)
        ratio = math.log(residual_phi(params)) / math.log(params.n)
        assert abs(ratio + 2.0 ** -r) < 0.01
