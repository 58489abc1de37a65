"""Analytic queue models used for proactive sizing.

Queue length and waiting time come from the M/D/1 model (deterministic
service at the link's fair share), packet loss from the finite M/M/1/Q
blocking formula. Utilisation is demand over capacity.
"""

from __future__ import annotations

import math

from .errors import SaturationError

DEFAULT_PACKET_SIZE_BYTES = 1400
PACKET_BITS = 8.0 * DEFAULT_PACKET_SIZE_BYTES


def rates_from_traffic(
    demand_bps: float, capacity_bps: float, packet_size_bytes: int = DEFAULT_PACKET_SIZE_BYTES
) -> tuple[float, float, float]:
    """Arrival rate, service rate (packets/s) and utilisation for one link."""
    if demand_bps < 0.0:
        raise ValueError("demand must be non-negative")
    if capacity_bps <= 0.0:
        raise ValueError("capacity must be positive")
    if packet_size_bytes <= 0:
        raise ValueError("packet size must be positive")
    bits = 8.0 * packet_size_bytes
    lam = demand_bps / bits
    mu = capacity_bps / bits
    return lam, mu, demand_bps / capacity_bps


def _check_utilisation(rho: float) -> None:
    if rho < 0.0:
        raise ValueError("utilisation must be non-negative")
    if rho >= 1.0:
        raise SaturationError(f"utilisation {rho:.4f} leaves no stationary queue")


def md1_queue_size(rho: float) -> float:
    """Mean number of packets waiting in an M/D/1 queue."""
    _check_utilisation(rho)
    return 0.5 * rho * rho / (1.0 - rho)


def planned_queue_size(rho: float) -> int:
    """Buffer size provisioned for a link: mean backlog rounded up, at least 1."""
    return max(1, math.ceil(md1_queue_size(rho)))


def md1_delay_s(rho: float, mu_pps: float) -> float:
    """Mean M/D/1 sojourn time (waiting plus service) in seconds."""
    if mu_pps <= 0.0:
        raise ValueError("service rate must be positive")
    _check_utilisation(rho)
    return (2.0 - rho) / (2.0 * mu_pps * (1.0 - rho))


def mm1q_plr(rho: float, queue_pkts: int) -> float:
    """Blocking probability of an M/M/1 queue holding at most `queue_pkts` packets.

    The count includes the packet in service. At rho == 1 the formula's
    limit 1/(queue_pkts + 1) is returned; above 1 it is evaluated in 1/rho,
    which cannot overflow.
    """
    if queue_pkts < 1:
        raise ValueError("queue size must be at least 1")
    if rho < 0.0:
        raise ValueError("utilisation must be non-negative")
    if abs(rho - 1.0) < 1e-12:
        return 1.0 / (queue_pkts + 1)
    if rho > 1.0:
        r = 1.0 / rho
        return (1.0 - r) / (1.0 - r ** (queue_pkts + 1))
    return (1.0 - rho) / (1.0 - rho ** (queue_pkts + 1)) * rho**queue_pkts


def plr_curve(rhos) -> list[tuple[float, int, float]]:
    """Loss ratio across utilisations with the buffer sized per load.

    Buffers here follow the figure convention, nearest integer of the mean
    backlog (floor 1); the planner itself always rounds up.
    """
    out = []
    for rho in rhos:
        q = max(1, round(md1_queue_size(rho)))
        out.append((rho, q, mm1q_plr(rho, q)))
    return out
