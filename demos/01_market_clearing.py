#!/usr/bin/env python3
"""Walk through the double-auction clearing mechanisms on a small book.

Four agents submit signed-price quotations (positive price buys, negative
sells). We clear the same book with each mechanism and look at how the
market factor steers the joint price-quantity matching.
"""

import numpy as np

from gridtrade.market import (
    BALANCED,
    DEFICIT,
    SURPLUS,
    PriceEnvelope,
    Quotation,
    clear_greedy,
    clear_jpq,
    clear_mrda,
    clear_vvda,
)

envelope = PriceEnvelope(feed_in=0.2, day_ahead=1.0, emergency=2.0)

book = [
    Quotation(agent_id=0, price=+1.0, quantity=5),   # urgent buyer
    Quotation(agent_id=1, price=+0.8, quantity=3),   # patient buyer
    Quotation(agent_id=2, price=-0.5, quantity=4),   # cheap seller
    Quotation(agent_id=3, price=-0.9, quantity=6),   # pricey seller
]

print("order book:")
for q in book:
    role = "buy " if q.price >= 0 else "sell"
    print(f"  agent {q.agent_id}: {role} {q.quantity} kWh at |p|={q.ask:.2f}")

print("\njoint price-quantity clearing under each market factor:")
for m, label in ((SURPLUS, "surplus m=-1"), (BALANCED, "balanced m=0"),
                 (DEFICIT, "deficit m=+1")):
    ledger = clear_jpq(book, m, envelope.emergency)
    trades = ", ".join(
        f"{t.buyer_id}<-{t.seller_id} {t.quantity}kWh@{t.buyer_price:.3f}"
        for t in ledger.trades
    ) or "(none)"
    print(f"  {label:13s}: {trades}")

print("\nbaselines on the same book:")
for name, ledger in (
    ("greedy", clear_greedy(book)),
    ("mrda", clear_mrda(book, envelope)),
    ("vvda", clear_vvda(book)),
):
    trades = ", ".join(
        f"{t.buyer_id}<-{t.seller_id} {t.quantity}kWh@{t.buyer_price:.3f}"
        for t in ledger.trades
    ) or "(none)"
    print(f"  {name:7s}: {trades}  operator keeps ${ledger.operator_surplus():.3f}")

# budget balance: the mid-point mechanisms move money only between agents
rng = np.random.default_rng(0)
checked = 0
for _ in range(2000):
    n = int(rng.integers(2, 10))
    quotes = [
        Quotation(
            i,
            float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1),
            float(rng.uniform(0, 10)),
        )
        for i in range(n)
    ]
    ledger = clear_jpq(quotes, BALANCED, envelope.emergency)
    assert ledger.total_payments_micro() == ledger.total_receipts_micro()
    checked += 1
print(f"\nbudget balance held exactly on {checked} random books.")
