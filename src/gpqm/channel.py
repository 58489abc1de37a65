"""Link budget, rate ladder and air-time fair-share model.

The radio abstraction used everywhere else in the package: free-space SNR
from a Friis budget, a discrete MCS ladder mapping minimum SNR to PHY rate,
and the per-station share of MAC goodput on a contended channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InfeasibleDemandError

SPEED_OF_LIGHT_MPS = 3.0e8

# 802.11ac single spatial stream, 160 MHz, 800 ns guard interval.
VHT160_RATES_BPS = (
    58.5e6,
    117.0e6,
    175.5e6,
    234.0e6,
    351.0e6,
    468.0e6,
    526.5e6,
    585.0e6,
    702.0e6,
    780.0e6,
)

# Minimum SNR per index. Indexes 2, 5 and 7 were calibrated in simulation
# (15 / 27 / 35 dB); the remaining entries are filled from the linear
# SNR-to-share fit through those anchors, rounded to 0.1 dB.
DEFAULT_MIN_SNR_DB = (8.6, 11.2, 15.0, 16.5, 21.8, 27.0, 29.8, 35.0, 37.7, 41.2)

# Measured fair shares for the calibrated indexes with three contenders at
# MAC efficiency 0.8. Kept as-published even where the plain formula would
# give 46.8 / 124.8 / 156 Mbit/s.
CALIBRATED_FAIR_SHARE_BPS = {2: 50.0e6, 5: 133.0e6, 7: 166.0e6}


@dataclass(frozen=True)
class ChannelParams:
    """Radio parameters shared by every link in a deployment."""

    carrier_frequency_hz: float = 5.25e9
    noise_power_dbm: float = -85.0
    bandwidth_hz: float = 160.0e6
    mac_efficiency: float = 0.8
    max_tx_power_dbm: float = 30.0
    rician_k_db: float = 13.0

    def __post_init__(self) -> None:
        if not 0.0 < self.carrier_frequency_hz < math.inf:
            raise ValueError("carrier frequency must be positive and finite")
        if not math.isfinite(self.noise_power_dbm):
            raise ValueError("noise power must be finite")
        if not 0.0 <= self.bandwidth_hz < math.inf:
            raise ValueError("bandwidth must be non-negative and finite")
        if not 0.0 < self.mac_efficiency <= 1.0:
            raise ValueError("MAC efficiency must be in (0, 1]")
        if not 0.0 <= self.max_tx_power_dbm < math.inf:
            raise ValueError("max tx power must be non-negative and finite")
        if math.isnan(self.rician_k_db):
            raise ValueError("Rician K factor must be a number (inf means no fading)")

    @cached_property
    def link_budget_constant_db(self) -> float:
        """Constant part of the free-space budget, computed on first use: the
        link-budget functions read it on every call."""
        return (
            -20.0 * math.log10(self.carrier_frequency_hz)
            - 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT_MPS)
            - self.noise_power_dbm
        )


def link_budget_constant_db(params: ChannelParams) -> float:
    """Constant part of the free-space budget: everything except power and distance."""
    return params.link_budget_constant_db


def friis_snr_db(params: ChannelParams, tx_power_dbm: float, distance_m: float) -> float:
    """Free-space SNR of a link at the given transmit power and distance.

    Raises ValueError for non-positive distances.
    """
    if distance_m <= 0.0:
        raise ValueError("distance must be positive")
    base = params.link_budget_constant_db - 20.0 * math.log10(distance_m)
    return tx_power_dbm + base


def log10_max_distance(params: ChannelParams, tx_power_dbm: float, target_snr_db: float) -> float:
    """log10 of `max_distance_m`, with every digit where that distance is subnormal or inf."""
    return (params.link_budget_constant_db + tx_power_dbm - target_snr_db) / 20.0


def max_distance_m(params: ChannelParams, tx_power_dbm: float, target_snr_db: float) -> float:
    """Largest distance at which the link still reaches the target SNR (inf past float range)."""
    try:
        return 10.0 ** log10_max_distance(params, tx_power_dbm, target_snr_db)
    except OverflowError:
        return math.inf


def fair_share_bps(phy_rate_bps: float, efficiency: float, contenders: int) -> float:
    """Per-station goodput share on a channel with `contenders` stations."""
    if contenders < 1:
        raise ValueError("contender count must be at least 1")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    if phy_rate_bps < 0.0:
        raise ValueError("PHY rate must be non-negative")
    return efficiency * phy_rate_bps / contenders


@dataclass(frozen=True)
class McsEntry:
    index: int
    min_snr_db: float
    phy_rate_bps: float
    fair_share_bps: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.min_snr_db):
            raise ValueError(f"MCS {self.index}: min SNR must be finite, not {self.min_snr_db}")
        for name, bps in (("PHY rate", self.phy_rate_bps), ("fair share", self.fair_share_bps)):
            if not 0.0 < bps < math.inf:
                raise ValueError(f"MCS {self.index}: {name} must be positive and finite, not {bps}")


@dataclass(frozen=True)
class McsTable:
    """Ordered MCS ladder; strictly increasing in index, SNR and rate."""

    entries: tuple[McsEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("MCS table must not be empty")
        for prev, cur in zip(self.entries, self.entries[1:]):
            if cur.index <= prev.index:
                raise ValueError("MCS indexes must be strictly increasing")
            if cur.min_snr_db <= prev.min_snr_db:
                raise ValueError("MCS min SNR values must be strictly increasing")
            if cur.phy_rate_bps <= prev.phy_rate_bps:
                raise ValueError("MCS PHY rates must be strictly increasing")
        for entry in self.entries:
            if entry.fair_share_bps > entry.phy_rate_bps:
                raise ValueError("fair share cannot exceed the PHY rate")

    @property
    def top(self) -> McsEntry:
        return self.entries[-1]

    def entry(self, index: int) -> McsEntry:
        for e in self.entries:
            if e.index == index:
                return e
        raise KeyError(f"no MCS with index {index}")

    def for_demand(self, demand_bps: float) -> McsEntry:
        """Lowest entry whose fair share covers the demand."""
        if demand_bps <= 0.0:
            raise ValueError("demand must be positive")
        for e in self.entries:
            if e.fair_share_bps >= demand_bps:
                return e
        raise InfeasibleDemandError(
            f"demand {demand_bps / 1e6:.1f} Mbit/s exceeds the top fair share "
            f"{self.top.fair_share_bps / 1e6:.1f} Mbit/s"
        )

    def for_snr(self, snr_db: float) -> McsEntry | None:
        """Highest entry usable at the given SNR, or None below the ladder."""
        for e in reversed(self.entries):
            if e.min_snr_db <= snr_db:
                return e
        return None


def default_mcs_table(contenders: int = 3, efficiency: float = 0.8) -> McsTable:
    """Rate ladder with fair shares for a given contender count.

    With three contenders at efficiency 0.8 the calibrated shares for
    indexes 2, 5 and 7 override the plain formula.
    """
    use_calibrated = contenders == 3 and efficiency == 0.8
    entries = []
    for idx, (snr, rate) in enumerate(zip(DEFAULT_MIN_SNR_DB, VHT160_RATES_BPS)):
        share = fair_share_bps(rate, efficiency, contenders)
        if use_calibrated and idx in CALIBRATED_FAIR_SHARE_BPS:
            share = CALIBRATED_FAIR_SHARE_BPS[idx]
        entries.append(McsEntry(idx, snr, rate, share))
    return McsTable(tuple(entries))


def calibrated_mcs_table() -> McsTable:
    """Only the three simulation-calibrated rows (indexes 2, 5, 7)."""
    full = default_mcs_table()
    return McsTable(tuple(e for e in full.entries if e.index in CALIBRATED_FAIR_SHARE_BPS))


@dataclass(frozen=True)
class RateModel:
    """Linear SNR-to-capacity fit, clamped at zero."""

    slope_bps_per_db: float
    intercept_bps: float

    def capacity_bps(self, snr_db: float) -> float:
        return max(0.0, self.slope_bps_per_db * snr_db + self.intercept_bps)


def fit_rate_model(table: McsTable) -> RateModel:
    """Least-squares line through the table's (min SNR, fair share) points."""
    xs = [e.min_snr_db for e in table.entries]
    ys = [e.fair_share_bps for e in table.entries]
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points to fit a line")
    x_mean = sum(xs) / n
    y_mean = sum(ys) / n
    sxx = sum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all SNR values identical")
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return RateModel(slope, y_mean - slope * x_mean)


def shannon_capacity_bps(bandwidth_hz: float, snr_db: float) -> float:
    """Shannon bound for the given bandwidth and SNR."""
    if bandwidth_hz < 0.0:
        raise ValueError("bandwidth must be non-negative")
    return bandwidth_hz * math.log2(1.0 + 10.0 ** (snr_db / 10.0))


_REGRESSION = fit_rate_model(calibrated_mcs_table())
CAPACITY_MODELS = ("regression", "shannon")


def capacity_bps(model: str, params: ChannelParams, snr_db: float) -> float:
    """Capacity at an SNR: "regression" is the fit through the calibrated ladder, else Shannon."""
    if model == "regression":
        return _REGRESSION.capacity_bps(snr_db)
    return shannon_capacity_bps(params.bandwidth_hz, snr_db)


def rician_snr_sample(mean_snr_db: float, k_factor_db: float, rng) -> float:
    """One Rician fade applied to a mean SNR, unit mean linear power.

    `rng` is a random.Random-style source; only gauss() is used. An infinite
    K factor, or a finite one whose linear value overflows a float (above
    about 3082 dB), returns the mean unchanged without drawing from `rng`.
    """
    if math.isinf(k_factor_db) and k_factor_db > 0:
        return mean_snr_db
    try:
        k = 10.0 ** (k_factor_db / 10.0)
    except OverflowError:
        return mean_snr_db
    nu = math.sqrt(k / (k + 1.0))
    sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    x = rng.gauss(nu, sigma)
    y = rng.gauss(0.0, sigma)
    gain = x * x + y * y
    if gain < 1e-300:
        gain = 1e-300
    return mean_snr_db + 10.0 * math.log10(gain)
