"""Correctness checks the benchmark applies to every clear and every env step.

Each check returns a list of problem strings; an empty list means the
operation passed. The checks read only public fields and helpers that the
tracer never wraps, so running them adds no spans.
"""

from __future__ import annotations

import math

BALANCE_TOL = 1e-9
PRICE_TOL = 1e-12
BUDGET_BALANCED = ("jpq", "greedy", "mrda")


def check_ledger(ledger, mechanism: str) -> list[str]:
    """Budget balance (exact micro-units, or a non-negative VVDA surplus) and
    individual rationality on every trade."""
    problems = []
    paid = ledger.total_payments_micro()
    received = ledger.total_receipts_micro()
    if mechanism in BUDGET_BALANCED and paid != received:
        problems.append(f"{mechanism}: payments {paid} != receipts {received} micro")
    if mechanism == "vvda" and paid < received:
        problems.append(f"vvda: negative operator surplus {paid - received} micro")
    for t in ledger.trades:
        if not (t.quantity > 0):
            problems.append(f"{mechanism}: trade quantity {t.quantity} <= 0")
        if not (t.bid >= t.ask):
            problems.append(f"{mechanism}: trade bid {t.bid} < ask {t.ask}")
        if not (t.ask <= t.seller_price <= t.bid + PRICE_TOL):
            problems.append(f"{mechanism}: seller price {t.seller_price} not individually rational")
        if not (t.ask - PRICE_TOL <= t.buyer_price <= t.bid):
            problems.append(f"{mechanism}: buyer price {t.buyer_price} not individually rational")
    return problems


def check_quantities(ledger, quotes) -> list[str]:
    """No agent trades more than it quoted."""
    quoted = {q.agent_id: q.quantity for q in quotes}
    traded: dict[int, float] = {}
    for t in ledger.trades:
        traded[t.buyer_id] = traded.get(t.buyer_id, 0.0) + t.quantity
        traded[t.seller_id] = traded.get(t.seller_id, 0.0) + t.quantity
    return [
        f"agent {a} traded {v} kWh above its quote {quoted.get(a, 0.0)}"
        for a, v in traded.items()
        if v > quoted.get(a, 0.0) * (1 + 1e-12) + 1e-12
    ]


def check_step(state, hour: int, result, balance_residual) -> list[str]:
    """One env step: finite rewards, exact hourly power balance per agent,
    and the ledger checks for the configured mechanism."""
    cfg = state.config
    problems = [f"agent {i}: non-finite reward {r}" for i, r in enumerate(result.rewards)
                if not math.isfinite(r)]
    for i, record in enumerate(result.settlements):
        residual = balance_residual(record, state.load[i, hour], state.gen[i, hour], cfg.dt)
        if not abs(residual) <= BALANCE_TOL:
            problems.append(f"agent {i}: balance residual {residual}")
    problems += check_ledger(result.ledger, cfg.mechanism)
    return problems


def check_rows_finite(rows: list[dict], what: str) -> list[str]:
    """Every numeric value of every metrics row is finite."""
    return [
        f"{what} row {k}: non-finite {key}={value}"
        for k, row in enumerate(rows)
        for key, value in row.items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
