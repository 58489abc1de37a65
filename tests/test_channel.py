"""Link-budget, MCS-table and fading tests.

Expected values that are not hand-checkable at a glance are recomputed here
by independent oracles (closed-form inversions, numpy least squares, Monte
Carlo) before being compared against the library.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from gpqm import (
    ChannelParams,
    InfeasibleDemandError,
    McsEntry,
    McsTable,
    calibrated_mcs_table,
    default_mcs_table,
    fit_rate_model,
    friis_snr_db,
    link_budget_constant_db,
    max_distance_m,
    rician_snr_sample,
    shannon_capacity_bps,
)

CH = ChannelParams()


# --- Friis link budget ------------------------------------------------------

def test_link_budget_constant_value():
    # K = -20 log10 f - 20 log10 (4 pi / c) - P_N with f in Hz, c = 3e8 m/s
    f = 5250e6
    expected = (
        -20.0 * math.log10(f) - 20.0 * math.log10(4.0 * math.pi / 3.0e8) + 85.0
    )
    assert link_budget_constant_db(CH) == pytest.approx(expected, abs=1e-12)
    assert link_budget_constant_db(CH) == pytest.approx(38.155042, abs=5e-7)


def test_snr_at_one_metre_equals_power_plus_constant():
    for tx in (0.0, 10.0, 20.0, 30.0):
        assert friis_snr_db(CH, tx, 1.0) == pytest.approx(
            tx + link_budget_constant_db(CH), abs=1e-12
        )


def test_golden_radii_at_20_dbm():
    assert max_distance_m(CH, 20.0, 15.0) == pytest.approx(143.7977, abs=5e-4)
    assert max_distance_m(CH, 20.0, 27.0) == pytest.approx(36.1204, abs=5e-4)
    assert max_distance_m(CH, 20.0, 35.0) == pytest.approx(14.3798, abs=5e-4)


def test_friis_round_trip_grid():
    worst = 0.0
    for tx in range(0, 31, 2):
        for snr10 in range(-200, 601, 25):
            snr = snr10 / 10.0
            d = max_distance_m(CH, float(tx), snr)
            worst = max(worst, abs(friis_snr_db(CH, float(tx), d) - snr))
    assert worst < 1e-9


def test_db_shift_identity_to_final_rounding():
    # (t + delta) + b versus (t + b) + delta can differ by the final IEEE-754
    # rounding only; assert at most 1 ulp everywhere and bitwise equality on
    # the overwhelming majority of the grid so no systematic offset can hide.
    distances = (0.5, 1.0, 3.7, 14.3798, 36.1204, 100.0, 143.7977)
    total = equal = 0
    for tx in range(0, 31):
        for delta in range(-10, 11):
            if not 0 <= tx + delta <= 30:
                continue
            for d in distances:
                total += 1
                a = friis_snr_db(CH, float(tx + delta), d)
                b = friis_snr_db(CH, float(tx), d) + float(delta)
                if a == b:
                    equal += 1
                else:
                    assert abs(a - b) <= math.ulp(max(abs(a), abs(b)))
    assert equal / total >= 0.95


def test_friis_monotone_in_distance():
    last = math.inf
    for d in (0.5, 1.0, 2.0, 5.0, 14.0, 36.0, 100.0, 144.0):
        snr = friis_snr_db(CH, 20.0, d)
        assert snr < last
        last = snr


def test_max_distance_monotone():
    assert max_distance_m(CH, 21.0, 27.0) > max_distance_m(CH, 20.0, 27.0)
    assert max_distance_m(CH, 20.0, 28.0) < max_distance_m(CH, 20.0, 27.0)


def test_friis_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        friis_snr_db(CH, 20.0, 0.0)
    with pytest.raises(ValueError):
        friis_snr_db(CH, 20.0, -3.0)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(carrier_frequency_hz=0.0)
    with pytest.raises(ValueError):
        ChannelParams(bandwidth_hz=-1.0)
    with pytest.raises(ValueError):
        ChannelParams(max_tx_power_dbm=-5.0)


# --- MCS table --------------------------------------------------------------

def test_default_table_rates_are_vht160_ladder():
    rates = [e.phy_rate_bps for e in default_mcs_table().entries]
    assert rates == [
        58.5e6, 117e6, 175.5e6, 234e6, 351e6, 468e6, 526.5e6, 585e6, 702e6, 780e6,
    ]


def test_default_table_anchor_snrs():
    t = default_mcs_table()
    assert t.entry(2).min_snr_db == 15.0
    assert t.entry(5).min_snr_db == 27.0
    assert t.entry(7).min_snr_db == 35.0


def test_default_table_filled_snrs_match_inverse_regression():
    # Non-anchor thresholds come from inverting the fitted fair-share line
    # through the three calibrated rows, rounded to 0.1 dB.
    model = fit_rate_model(calibrated_mcs_table())
    t = default_mcs_table()
    anchors = {2, 5, 7}
    for e in t.entries:
        if e.index in anchors:
            continue
        inverted = (e.fair_share_bps - model.intercept_bps) / model.slope_bps_per_db
        assert e.min_snr_db == pytest.approx(round(inverted, 1), abs=1e-12)


def test_default_table_fair_shares():
    t = default_mcs_table()
    shares = [e.fair_share_bps for e in t.entries]
    assert shares[2] == 50e6
    assert shares[5] == 133e6
    assert shares[7] == 166e6
    for i, e in enumerate(t.entries):
        if i in (2, 5, 7):
            continue
        assert e.fair_share_bps == pytest.approx(0.8 * e.phy_rate_bps / 3.0)


def test_fair_share_formula_other_contender_counts():
    t = default_mcs_table(contenders=4)
    for e in t.entries:
        assert e.fair_share_bps == pytest.approx(0.8 * e.phy_rate_bps / 4.0)


def test_for_demand_is_minimal():
    t = default_mcs_table()
    for demand in (1e6, 40e6, 50e6, 125e6, 150e6, 166e6, 200e6):
        e = t.for_demand(demand)
        assert e.fair_share_bps >= demand
        for lower in t.entries:
            if lower.index < e.index:
                assert lower.fair_share_bps < demand


def test_for_demand_above_ladder_raises():
    with pytest.raises(InfeasibleDemandError):
        default_mcs_table().for_demand(250e6)


def test_for_snr_selection():
    t = default_mcs_table()
    assert t.for_snr(8.59) is None
    assert t.for_snr(8.6).index == 0
    assert t.for_snr(27.0).index == 5
    assert t.for_snr(34.99).index == 6
    assert t.for_snr(99.0).index == 9


def test_table_validation_rejects_disorder():
    e0 = McsEntry(0, 10.0, 100e6, 26e6)
    bad_snr = McsEntry(1, 9.0, 200e6, 53e6)
    with pytest.raises(ValueError):
        McsTable(entries=(e0, bad_snr))
    bad_rate = McsEntry(1, 12.0, 90e6, 24e6)
    with pytest.raises(ValueError):
        McsTable(entries=(e0, bad_rate))
    bad_share = McsEntry(1, 12.0, 200e6, 300e6)
    with pytest.raises(ValueError):
        McsTable(entries=(e0, bad_share))
    with pytest.raises(ValueError):
        McsTable(entries=())


# --- rate regression --------------------------------------------------------

def test_regression_matches_lstsq_oracle():
    t = calibrated_mcs_table()
    x = np.array([e.min_snr_db for e in t.entries])
    y = np.array([e.fair_share_bps for e in t.entries])
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, y, rcond=None)
    model = fit_rate_model(t)
    assert model.slope_bps_per_db == pytest.approx(slope, rel=1e-9)
    assert model.intercept_bps == pytest.approx(intercept, rel=1e-9)


def test_regression_coefficients_magnitude():
    model = fit_rate_model(calibrated_mcs_table())
    assert model.slope_bps_per_db == pytest.approx(5.89e6, abs=0.01e6)
    assert model.intercept_bps == pytest.approx(-34.8e6, abs=0.1e6)


def test_regression_residuals_match_oracle():
    t = calibrated_mcs_table()
    model = fit_rate_model(t)
    x = np.array([e.min_snr_db for e in t.entries])
    y = np.array([e.fair_share_bps for e in t.entries])
    ours = y - (model.slope_bps_per_db * x + model.intercept_bps)
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    theirs = y - a @ coef
    assert np.allclose(ours, theirs, rtol=1e-9, atol=1e-3)


def test_capacity_clamps_below_zero():
    model = fit_rate_model(calibrated_mcs_table())
    assert model.capacity_bps(-40.0) == 0.0
    assert model.capacity_bps(30.0) > 0.0


# --- Shannon ----------------------------------------------------------------

def test_shannon_value():
    # C = B log2(1 + SNR_lin)
    assert shannon_capacity_bps(160e6, 0.0) == pytest.approx(160e6, rel=1e-12)
    assert shannon_capacity_bps(160e6, 10.0 * math.log10(3.0)) == pytest.approx(
        320e6, rel=1e-9
    )


def test_shannon_increasing_concave_in_linear_snr():
    b = 160e6
    lin = [1.0 + 0.5 * i for i in range(60)]
    vals = [shannon_capacity_bps(b, 10.0 * math.log10(s)) for s in lin]
    diffs = [v2 - v1 for v1, v2 in zip(vals, vals[1:])]
    assert all(d > 0.0 for d in diffs)
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))


# --- Rician fading ----------------------------------------------------------

def test_rician_infinite_k_passthrough():
    rng = random.Random(1)
    assert rician_snr_sample(25.0, math.inf, rng) == 25.0


@pytest.mark.parametrize("k_db", [3083.0, 1e10, 1.7e308])
def test_rician_overflowing_k_returns_the_mean_without_drawing(k_db):
    rng = random.Random(1)
    state = rng.getstate()
    assert rician_snr_sample(25.0, k_db, rng) == 25.0
    assert rng.getstate() == state
    # 10^308.2 is still a float: the fade is drawn.
    rician_snr_sample(25.0, 3082.0, rng)
    assert rng.getstate() != state


def test_rician_mean_power_monte_carlo():
    rng = random.Random(42)
    n = 1_000_000
    acc = 0.0
    for _ in range(n):
        acc += 10.0 ** (rician_snr_sample(0.0, 13.0, rng) / 10.0)
    assert acc / n == pytest.approx(1.0, rel=0.01)


def test_rician_deterministic_per_seed():
    a = [rician_snr_sample(20.0, 13.0, random.Random(7)) for _ in range(1)]
    b = [rician_snr_sample(20.0, 13.0, random.Random(7)) for _ in range(1)]
    assert a == b
    seq1 = random.Random(9)
    seq2 = random.Random(9)
    xs = [rician_snr_sample(20.0, 13.0, seq1) for _ in range(100)]
    ys = [rician_snr_sample(20.0, 13.0, seq2) for _ in range(100)]
    assert xs == ys
