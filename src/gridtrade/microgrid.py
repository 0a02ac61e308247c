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

from dataclasses import dataclass, replace

from .market import PriceEnvelope, TradeLedger
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
class EssState:
    """Stored energy plus the agent-chosen reservation fraction."""

    energy: float
    reservation: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.reservation <= 1.0):
            raise ValueError(f"reservation must be in [0, 1], got {self.reservation}")


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

    @property
    def reward(self) -> float:
        """Hourly operational benefit: grid profit plus P2P profit."""
        return self.profit_grid + self.profit_p2p


def day_ahead_quantity(load_forecast: float, gen_forecast: float, beta: float) -> float:
    """Advance procurement covering the scaled expected deficit, floored at zero."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return max(0.0, beta * (load_forecast - gen_forecast))


def max_bid_quantity(
    load: float, gen: float, role: str, params: MicrogridParams, dt: float = 1.0
) -> float:
    """Physical cap on the bid quantity given the agent's role.

    A buyer can absorb its deficit plus a full-rate charge; a seller can
    export its surplus plus a full-rate discharge.
    """
    if role == "buyer":
        return max(0.0, load - gen + params.t_charge_max * dt)
    if role == "seller":
        return max(0.0, gen - load + params.t_discharge_max * dt)
    raise ValueError(f"role must be 'buyer' or 'seller', got {role!r}")


def settle_and_balance(
    load: float,
    gen: float,
    q_da: float,
    q_b: float,
    q_s: float,
    state: EssState,
    prices: PriceEnvelope,
    dt: float,
    params: MicrogridParams,
) -> tuple[SettlementRecord, EssState]:
    """Resolve the post-clearing residual and enforce the hourly balance.

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
    energy = state.energy
    cap = max(params.e_min, state.reservation * params.e_max)
    balance = gen + q_da + q_b - load - q_s

    # (1) shed anything stored above the reservation cap
    over_store = max(0.0, energy - cap)
    bus_shed = min(over_store * params.eta_dis, params.t_discharge_max * dt)
    energy -= bus_shed / params.eta_dis
    balance += bus_shed

    bus_charge = 0.0
    bus_cover = 0.0
    if balance > 0:
        # (2) absorb the surplus
        headroom = max(0.0, cap - energy)
        bus_charge = min(balance, params.t_charge_max * dt, headroom / params.eta_ch)
        energy += bus_charge * params.eta_ch
        balance -= bus_charge
    elif balance < 0:
        # (3) cover the deficit within the leftover discharge budget
        available = max(0.0, energy - params.e_min)
        rate_left = max(0.0, params.t_discharge_max * dt - bus_shed)
        bus_cover = min(-balance, rate_left, available * params.eta_dis)
        energy -= bus_cover / params.eta_dis
        balance += bus_cover

    q_fit = max(0.0, balance)
    q_e = max(0.0, -balance)
    t_ess = (bus_charge - bus_shed - bus_cover) / dt

    record = SettlementRecord(
        q_da=q_da,
        q_b=q_b,
        q_s=q_s,
        q_e=q_e,
        q_fit=q_fit,
        t_ess=t_ess,
        profit_grid=grid_profit(q_fit, q_e, prices),
    )
    return record, replace(state, energy=energy)


def balance_residual(record: SettlementRecord, load: float, gen: float, dt: float = 1.0) -> float:
    """Signed error of the hourly power-balance identity (should be ~0)."""
    lhs = load + record.q_fit + record.q_s + record.t_ess * dt
    rhs = gen + record.q_da + record.q_b + record.q_e
    return lhs - rhs


def grid_profit(q_fit: float, q_e: float, prices: PriceEnvelope) -> float:
    """Net main-grid cash flow: feed-in revenue minus emergency cost."""
    if q_fit < 0 or q_e < 0:
        raise ValueError("quantities must be non-negative")
    micro = to_micro(prices.feed_in * q_fit) - to_micro(prices.emergency * q_e)
    return from_micro(micro)


def p2p_profit(ledger: TradeLedger, agent: int) -> float:
    """Net P2P cash flow for one agent: receipts minus payments."""
    return from_micro(ledger.receipt_micro(agent) - ledger.payment_micro(agent))

