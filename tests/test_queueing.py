"""Analytic queueing formulas against independent oracles.

The finite-queue blocking probability is cross-checked with a stationary
distribution computed directly from the birth-death balance equations.
"""

from __future__ import annotations

import math

import pytest

from gpqm import (
    SaturationError,
    md1_delay_s,
    md1_queue_size,
    mm1q_plr,
    planned_queue_size,
    plr_curve,
    rates_from_traffic,
)


def mm1q_blocking_oracle(rho: float, q: int) -> float:
    """Solve the M/M/1/Q birth-death chain stationary vector directly.

    States 0..Q with arrival rate rho and unit service rate; blocking equals
    the stationary mass at state Q (PASTA).
    """
    weights = [rho**n for n in range(q + 1)]
    total = math.fsum(weights)
    return weights[q] / total


# --- traffic conversion -----------------------------------------------------

def test_rates_from_traffic_values():
    lam, mu, rho = rates_from_traffic(150e6, 166e6)
    assert lam == pytest.approx(150e6 / 11200.0)
    assert mu == pytest.approx(166e6 / 11200.0)
    assert rho == pytest.approx(150.0 / 166.0)


def test_rates_from_traffic_rejects_bad_input():
    with pytest.raises(ValueError):
        rates_from_traffic(-1.0, 166e6)
    with pytest.raises(ValueError):
        rates_from_traffic(150e6, 0.0)


# --- M/D/1 ------------------------------------------------------------------

def test_md1_queue_size_examples():
    # rho^2 / (2 (1 - rho)): 0.64/0.4 = 1.6, 0.81/0.2 = 4.05
    assert md1_queue_size(0.8) == pytest.approx(1.6)
    assert md1_queue_size(0.9) == pytest.approx(4.05)
    assert md1_queue_size(0.0) == 0.0


def test_planned_queue_sizes_reference():
    assert planned_queue_size(0.8) == 2
    assert planned_queue_size(125e6 / 133e6) == 8
    assert planned_queue_size(150e6 / 166e6) == 5


def test_planned_queue_size_floor_is_one():
    assert planned_queue_size(0.0) == 1
    assert planned_queue_size(1e-9) == 1


def test_md1_delay_values():
    # (2 - rho) / (2 mu (1 - rho)), mu in pkt/s
    mu = 166e6 / 11200.0
    rho = 150.0 / 166.0
    expected = (2.0 - rho) / (2.0 * mu * (1.0 - rho))
    assert md1_delay_s(rho, mu) == pytest.approx(expected, rel=1e-12)
    assert md1_delay_s(rho, mu) == pytest.approx(0.3837e-3, abs=5e-8)


def test_md1_delay_below_threshold_for_reference_links():
    mu1 = 50e6 / 11200.0
    mu2 = 133e6 / 11200.0
    mu3 = 166e6 / 11200.0
    assert md1_delay_s(40.0 / 50.0, mu1) < 0.010
    assert md1_delay_s(125.0 / 133.0, mu2) < 0.010
    assert md1_delay_s(150.0 / 166.0, mu3) < 0.010


def test_md1_saturation_raises():
    with pytest.raises(SaturationError):
        md1_queue_size(1.0)
    with pytest.raises(SaturationError):
        md1_delay_s(1.0, 1000.0)
    with pytest.raises(SaturationError):
        planned_queue_size(1.2)


# --- M/M/1/Q ----------------------------------------------------------------

def test_mm1q_plr_anchor_values():
    assert mm1q_plr(0.7, 1) == pytest.approx(0.4118, abs=5e-5)
    assert mm1q_plr(0.8, 2) == pytest.approx(0.2623, abs=5e-5)
    assert mm1q_plr(0.9, 4) == pytest.approx(0.1602, abs=5e-5)


def test_mm1q_plr_matches_markov_oracle():
    rhos = [0.05 * k for k in range(1, 20)] + [0.999, 1.5, 2.0]
    for q in range(1, 11):
        for rho in rhos:
            assert mm1q_plr(rho, q) == pytest.approx(
                mm1q_blocking_oracle(rho, q), abs=1e-12
            )


def test_mm1q_plr_at_unit_load_limit():
    # rho -> 1 limit of the closed form is 1/(Q+1)
    for q in range(1, 11):
        assert mm1q_plr(1.0, q) == pytest.approx(1.0 / (q + 1), rel=1e-12)


def test_mm1q_plr_monotone_in_queue_size():
    for rho in (0.3, 0.7, 0.95):
        last = 1.1
        for q in range(1, 12):
            p = mm1q_plr(rho, q)
            assert p < last
            last = p


def test_mm1q_plr_rejects_bad_input():
    with pytest.raises(ValueError):
        mm1q_plr(-0.1, 3)
    with pytest.raises(ValueError):
        mm1q_plr(0.5, 0)


# --- PLR curve --------------------------------------------------------------

def test_plr_curve_pinned_points():
    points = {rho: (q, plr) for rho, q, plr in plr_curve((0.7, 0.8, 0.9))}
    q7, p7 = points[0.7]
    assert q7 == 1
    assert p7 == pytest.approx(0.4118, abs=5e-5)
    q8, p8 = points[0.8]
    assert q8 == 2
    assert p8 == pytest.approx(0.2623, abs=5e-5)
    q9, p9 = points[0.9]
    assert q9 == 4
    assert p9 == pytest.approx(0.1602, abs=5e-5)


def test_plr_curve_dips_at_resize_points():
    # Larger load with the same queue raises loss; each queue-size bump pulls
    # it back down, giving a sawtooth. The 1->2 bump lands between 0.79 and
    # 0.80, the 3->4 bump between 0.88 and 0.89.
    rhos = [0.70, 0.75, 0.79, 0.80, 0.85, 0.88, 0.89, 0.90]
    curve = plr_curve(rhos)
    vals = {rho: plr for rho, _, plr in curve}
    sizes = {rho: q for rho, q, _ in curve}
    assert sizes[0.79] == 1 and sizes[0.80] == 2
    assert vals[0.79] > vals[0.80]
    assert sizes[0.88] == 3 and sizes[0.89] == 4
    assert vals[0.88] > vals[0.89]
    assert vals[0.80] < vals[0.70]
    # at the pinned loads the resized queue beats the one it replaced
    assert mm1q_plr(0.8, 2) < mm1q_plr(0.8, 1)
    assert mm1q_plr(0.9, 4) < mm1q_plr(0.9, 3)


def test_plr_curve_uses_markov_consistent_values():
    for rho, q, plr in plr_curve([0.05 * k for k in range(2, 20)]):
        assert plr == pytest.approx(mm1q_blocking_oracle(rho, q), abs=1e-12)


def test_mm1q_plr_above_saturation_does_not_overflow():
    assert mm1q_plr(1.5, 5000) == pytest.approx(1.0 / 3.0)


def test_mm1q_plr_above_saturation_matches_direct_formula():
    rho, q = 1.5, 5
    direct = (1.0 - rho) / (1.0 - rho ** (q + 1)) * rho**q
    assert mm1q_plr(rho, q) == pytest.approx(direct, rel=1e-12)
    assert mm1q_plr(rho, q) == pytest.approx(mm1q_blocking_oracle(rho, q), rel=1e-12)
