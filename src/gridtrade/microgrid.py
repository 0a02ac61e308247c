"""Per-microgrid physics and accounting.

Energy is tracked in kWh on the storage side and in bus-side kWh for the
power-balance identity; the storage update applies the charge efficiency on
the way in and the discharge efficiency on the way out, so a bus-side
discharge of x kWh drains x / eta_dis from the store.

The settlement recourse enforces the agent's reservation fraction of the
storage capacity, absorbs or covers the post-clearing residual with the
ESS, and books whatever is left as feed-in export or emergency procurement,
keeping the hourly power balance exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .market import PriceEnvelope
from .money import from_micro, to_micro


@dataclass(frozen=True)
class MicrogridParams:
    """Static plant parameters for one microgrid (Table-style defaults bundled)."""

    l_max: float
    g_max: float
    e_max: float
    t_charge_max: float
    t_discharge_max: float
    e0: float
    beta: float = 0.95
    e_min: float = 0.0
    eta_ch: float = 1.0
    eta_dis: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not (0.0 <= self.e_min <= self.e0 <= self.e_max):
            raise ValueError(
                f"need 0 <= e_min <= e0 <= e_max, got ({self.e_min}, {self.e0}, {self.e_max})"
            )
        if self.t_charge_max <= 0 or self.t_discharge_max <= 0:
            raise ValueError("charge/discharge rate limits must be positive")
        if not (0.0 < self.eta_ch <= 1.0 and 0.0 < self.eta_dis <= 1.0):
            raise ValueError("efficiencies must lie in (0, 1]")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.l_max < 0 or self.g_max < 0:
            raise ValueError("l_max and g_max must be non-negative")


#: The four reference microgrids: a small buyer, a small seller, a large
#: buyer, and a large seller. Lossless storage.
DEFAULT_FLEET = (
    MicrogridParams(l_max=25, g_max=5, e_max=8, t_charge_max=4, t_discharge_max=4, e0=0),
    MicrogridParams(l_max=6, g_max=7, e_max=15, t_charge_max=5, t_discharge_max=5, e0=2),
    MicrogridParams(l_max=40, g_max=10, e_max=15, t_charge_max=8, t_discharge_max=8, e0=0),
    MicrogridParams(l_max=5, g_max=15, e_max=30, t_charge_max=10, t_discharge_max=10, e0=20),
)


@dataclass(frozen=True)
class FleetParams:
    """A fleet's plant parameters as (n,) float arrays, one entry per microgrid."""

    l_max: np.ndarray
    g_max: np.ndarray
    e_max: np.ndarray
    t_charge_max: np.ndarray
    t_discharge_max: np.ndarray
    e0: np.ndarray
    beta: np.ndarray
    e_min: np.ndarray
    eta_ch: np.ndarray
    eta_dis: np.ndarray

    @classmethod
    def of(cls, fleet) -> "FleetParams":
        return cls(*(
            np.array([getattr(p, f.name) for p in fleet], dtype=float) for f in fields(cls)
        ))


@dataclass
class SettlementRecord:
    """Realized hourly position after clearing and recourse."""

    q_da: float
    q_b: float
    q_s: float
    q_e: float
    q_fit: float
    t_ess: float
    profit_grid: float
    profit_p2p: float = 0.0


def day_ahead_quantity(load_forecast, gen_forecast, beta):
    """Advance procurement covering the scaled expected deficit, floored at zero.

    Works elementwise on arrays, so one call schedules a whole fleet's day.
    """
    if np.any(np.asarray(beta) <= 0):
        raise ValueError("beta must be positive")
    q = beta * (load_forecast - gen_forecast)
    return np.where(q > 0.0, q, 0.0)


def max_bid_quantity(load, gen, buyer, params, dt: float = 1.0):
    """Physical cap on the bid quantity, floored at zero.

    A buyer can absorb its deficit plus a full-rate charge; a seller can
    export its surplus plus a full-rate discharge. Works elementwise:
    `params` is one `MicrogridParams` or a fleet's `FleetParams`, and
    `buyer` is a bool or a bool array choosing the side.
    """
    net = np.where(buyer, load - gen, gen - load)
    rate = np.where(buyer, params.t_charge_max, params.t_discharge_max)
    return _pos(net + rate * dt)


#: the per-agent record's fields, in column order
RECORD_FIELDS = tuple(f.name for f in fields(SettlementRecord))


@dataclass
class FleetSettlement:
    """One hour's settlement of a whole fleet: (n,) columns, one entry per agent.

    The columns are those of `SettlementRecord`; `profit_p2p` stays zero
    until the ledger's cash flows are booked, and `energy` is the storage
    level after the hour. Indexing or iterating yields per-agent
    `SettlementRecord`s with plain-float fields.
    """

    q_da: np.ndarray
    q_b: np.ndarray
    q_s: np.ndarray
    q_e: np.ndarray
    q_fit: np.ndarray
    t_ess: np.ndarray
    profit_grid: np.ndarray
    profit_p2p: np.ndarray
    energy: np.ndarray

    @property
    def reward(self) -> np.ndarray:
        """Hourly operational benefit per agent: grid profit plus P2P profit."""
        return self.profit_grid + self.profit_p2p

    def __len__(self) -> int:
        return len(self.q_da)

    def __getitem__(self, agent: int) -> SettlementRecord:
        return SettlementRecord(*(float(getattr(self, name)[agent]) for name in RECORD_FIELDS))

    def __iter__(self):
        columns = (getattr(self, name).tolist() for name in RECORD_FIELDS)
        return (SettlementRecord(*row) for row in zip(*columns))


def _max(a, b):
    """Elementwise `max(a, b)` with Python's tie rule: `a` unless `b > a`.

    `np.maximum(0.0, -0.0)` is -0.0 where `max(0.0, -0.0)` is 0.0; the
    written trajectories keep the sign of zero, so the rule matters.
    """
    return np.where(b > a, b, a)


def _min(a, b):
    """Elementwise `min(a, b)` with Python's tie rule: `a` unless `b < a`."""
    return np.where(b < a, b, a)


def _pos(x):
    """Elementwise `max(0.0, x)` for finite x: `np.maximum` may keep a -0.0,
    and adding 0.0 turns it into 0.0 while leaving every other value as is."""
    out = np.maximum(x, 0.0)
    out += 0.0
    return out


def settle_and_balance(
    load: np.ndarray,
    gen: np.ndarray,
    q_da: np.ndarray,
    q_b: np.ndarray,
    q_s: np.ndarray,
    energy: np.ndarray,
    reservation: np.ndarray,
    prices: PriceEnvelope,
    dt: float,
    plant: FleetParams,
) -> FleetSettlement:
    """Resolve every agent's post-clearing residual and enforce the hourly balance.

    All quantities are (n,) arrays, one entry per microgrid of `plant`.
    Recourse order: (1) discharge any energy stored above the reservation
    cap, (2) charge a positive residual into the ESS up to the cap and rate
    limit, (3) discharge against a negative residual down to e_min within
    the remaining rate budget. What is left becomes feed-in export when
    positive and emergency procurement when negative, so

        load + q_fit + q_s + t_ess * dt = gen + q_da + q_b + q_e

    holds exactly. Over-storage energy released in step (1) joins the
    running residual, so under a deficit it offsets emergency procurement
    instead of being force-fed to the feed-in tariff.
    """
    p = plant
    zero = np.zeros(len(energy))
    # a tie is e_min = 0 against a -0.0 reservation; cap reaches the
    # results only through `_pos`, which maps either zero to 0.0
    cap = np.maximum(p.e_min, reservation * p.e_max)
    balance = gen + q_da + q_b - load - q_s

    # (1) shed anything stored above the reservation cap; the rate limit is positive
    bus_shed = np.minimum(_pos(energy - cap) * p.eta_dis, p.t_discharge_max * dt)
    energy = energy - bus_shed / p.eta_dis
    balance = balance + bus_shed
    surplus, deficit = balance > zero, balance < zero

    # (2) absorb a surplus, (3) cover a deficit within the leftover discharge budget;
    # a kept row's balance is nonzero and `_pos` never gives -0.0, so no tie is a ±0 pair
    headroom = _pos(cap - energy) / p.eta_ch
    bus_charge = np.where(
        surplus, np.minimum(np.minimum(balance, p.t_charge_max * dt), headroom), zero
    )
    rate_left = _pos(p.t_discharge_max * dt - bus_shed)
    available = _pos(energy - p.e_min) * p.eta_dis
    bus_cover = np.where(deficit, np.minimum(np.minimum(-balance, rate_left), available), zero)
    energy = np.where(surplus, energy + bus_charge * p.eta_ch, energy - bus_cover / p.eta_dis)
    # rows with neither may turn a -0.0 balance into 0.0; both clamps below map ±0 to 0.0
    balance = balance - bus_charge + bus_cover

    q_fit = _pos(balance)
    q_e = _pos(-balance)
    return FleetSettlement(
        q_da=q_da,
        q_b=q_b,
        q_s=q_s,
        q_e=q_e,
        q_fit=q_fit,
        t_ess=(bus_charge - bus_shed - bus_cover) / dt,
        profit_grid=grid_profit(q_fit, q_e, prices),
        profit_p2p=zero,
        energy=energy,
    )


def balance_residual(record: SettlementRecord, load: float, gen: float, dt: float = 1.0) -> float:
    """Signed error of the hourly power-balance identity (should be ~0)."""
    lhs = load + record.q_fit + record.q_s + record.t_ess * dt
    rhs = gen + record.q_da + record.q_b + record.q_e
    return lhs - rhs


def grid_profit(q_fit, q_e, prices: PriceEnvelope):
    """Net main-grid cash flow: feed-in revenue minus emergency cost.

    Scalars give a float; (n,) arrays give one value per agent.
    """
    if np.any(q_fit < 0) or np.any(q_e < 0):
        raise ValueError("quantities must be non-negative")
    micro = to_micro(prices.feed_in * q_fit) - to_micro(prices.emergency * q_e)
    return from_micro(micro)


def p2p_profit(received_micro: list[int], paid_micro: list[int]) -> list[float]:
    """Net P2P cash flow per agent: receipts minus payments, from exact micro-units."""
    return [from_micro(r - p) for r, p in zip(received_micro, paid_micro)]
