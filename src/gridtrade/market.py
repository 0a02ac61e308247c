"""Double-auction order book and market clearing mechanisms.

A market instance is one time slot: agents submit signed-price quotations
(price >= 0 buys, price < 0 sells), the operator partitions and sorts the
book, and one of four clearing mechanisms produces a trade ledger. All
functions here are pure; the book does not persist across hours.

Mechanisms:

* ``clear_jpq``    -- joint price-quantity round-robin matching steered by
  the ternary market factor, mid-point pricing (the primary mechanism).
* ``clear_greedy`` -- classic price-priority sequential double auction.
* ``clear_mrda``   -- multi-round double auction with price concessions.
* ``clear_vvda``   -- Vickrey-variant (McAfee breakeven-index) auction; the
  only mechanism allowed a non-zero operator account.

``Quotation`` and ``Trade`` are ``NamedTuple`` records: immutable, cheap to
build, and equal to any tuple with the same fields. Every book order is
stable by agent id, then by the regime key: ties on the key go to the lower
agent id, and equal ids keep their submission order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .errors import CrossViolation, NegativeQuantity, PriceOutOfEnvelope
from .money import from_micro, to_micro


@dataclass(frozen=True)
class PriceEnvelope:
    """Main-grid price signals for one hour: feed_in <= day_ahead <= emergency."""

    feed_in: float
    day_ahead: float
    emergency: float

    def __post_init__(self):
        if not (0.0 <= self.feed_in <= self.day_ahead <= self.emergency):
            raise ValueError(
                f"price envelope must satisfy 0 <= feed_in <= day_ahead <= emergency, "
                f"got ({self.feed_in}, {self.day_ahead}, {self.emergency})"
            )


class Quotation(NamedTuple):
    """One agent's bid for the current hour.

    The trading role is encoded in the price sign: price >= 0 is a buy bid,
    price < 0 is a sell offer at ask |price|. quantity is always the
    unsigned energy amount in kWh.
    """

    agent_id: int
    price: float
    quantity: float

    @property
    def ask(self) -> float:
        """Unsigned price magnitude."""
        return abs(self.price)


@dataclass(frozen=True)
class MarketFactor:
    """Ternary system-imbalance signal: -1 surplus, 0 balanced, +1 deficit."""

    value: int

    def __post_init__(self):
        if self.value not in (-1, 0, 1):
            raise ValueError(f"market factor must be in {{-1, 0, 1}}, got {self.value}")


SURPLUS = MarketFactor(-1)
BALANCED = MarketFactor(0)
DEFICIT = MarketFactor(1)


class Trade(NamedTuple):
    """One executed buyer/seller match.

    ``bid`` and ``ask`` are the effective prices at which the match formed
    (submitted prices, except MRDA where they are the conceded round
    prices). ``buyer_price`` is what the buyer pays per kWh and
    ``seller_price`` what the seller receives; they differ only under VVDA.
    """

    buyer_id: int
    seller_id: int
    quantity: float
    buyer_price: float
    seller_price: float
    bid: float
    ask: float

    @property
    def payment_micro(self) -> int:
        return to_micro(self.buyer_price * self.quantity)

    @property
    def receipt_micro(self) -> int:
        return to_micro(self.seller_price * self.quantity)


class AgentTotals(NamedTuple):
    """Per-agent ledger sums for agents 0..n-1, in trade order."""

    bought: list[float]        # kWh bought
    sold: list[float]          # kWh sold
    paid_micro: list[int]      # buyer payments, micro-units
    received_micro: list[int]  # seller receipts, micro-units


@dataclass
class TradeLedger:
    """Clearing result: the trade list plus per-agent and money aggregates.

    ``buyer_ids`` and ``seller_ids`` list the active book sides in priority
    order. Money aggregates run through integer micro-units so community
    balances are exact.
    """

    buyer_ids: list[int]
    seller_ids: list[int]
    trades: list[Trade] = field(default_factory=list)

    @classmethod
    def from_trades(cls, buyer_ids, seller_ids, trades) -> "TradeLedger":
        return cls(list(buyer_ids), list(seller_ids), list(trades))

    # --- per-agent aggregates ----------------------------------------

    def bought_kwh(self, agent_id: int) -> float:
        return float(sum(t.quantity for t in self.trades if t.buyer_id == agent_id))

    def sold_kwh(self, agent_id: int) -> float:
        return float(sum(t.quantity for t in self.trades if t.seller_id == agent_id))

    def agent_totals(self, n_agents: int) -> AgentTotals:
        """Every agent's bought/sold kWh and money in one pass over the trades.

        The kWh sums add in trade order, so each equals `bought_kwh` /
        `sold_kwh`; the micro-unit sums are exact ints.
        """
        totals = AgentTotals([0.0] * n_agents, [0.0] * n_agents, [0] * n_agents, [0] * n_agents)
        bought, sold, paid, received = totals
        for t in self.trades:
            bought[t.buyer_id] += t.quantity
            sold[t.seller_id] += t.quantity
            paid[t.buyer_id] += t.payment_micro
            received[t.seller_id] += t.receipt_micro
        return totals

    def total_payments_micro(self) -> int:
        return sum(t.payment_micro for t in self.trades)

    def total_receipts_micro(self) -> int:
        return sum(t.receipt_micro for t in self.trades)

    def operator_surplus(self) -> float:
        """Money retained by the operator; zero except under VVDA."""
        return from_micro(self.total_payments_micro() - self.total_receipts_micro())

    def total_volume(self) -> float:
        return float(sum(t.quantity for t in self.trades))


# ---------------------------------------------------------------------------
# Book construction
# ---------------------------------------------------------------------------

def require_valid(q: Quotation, env: PriceEnvelope) -> None:
    """Check a quotation against the hour's price envelope.

    Zero-quantity quotes are always valid (null quote); otherwise the price
    magnitude must lie inside [feed_in, emergency]. Raises
    `NegativeQuantity` or `PriceOutOfEnvelope`.
    """
    if not (q.quantity >= 0):
        raise NegativeQuantity(f"quantity {q.quantity} < 0")
    if q.quantity > 0 and not (env.feed_in <= q.ask <= env.emergency):
        raise PriceOutOfEnvelope(f"|price| {q.ask} outside [{env.feed_in}, {env.emergency}]")


def partition(quotes: list[Quotation]) -> tuple[list[Quotation], list[Quotation]]:
    """Split quotations into buy and sell sides, dropping null quotes.

    A non-negative price buys. Submission order is preserved within each
    side.
    """
    buyers: list[Quotation] = []
    sellers: list[Quotation] = []
    for q in quotes:
        if q.quantity > 0:
            (buyers if q.price >= 0 else sellers).append(q)
    return buyers, sellers


def sort_order_book(
    buyers: list[Quotation],
    sellers: list[Quotation],
    m: MarketFactor,
    p_e: float,
) -> tuple[list[Quotation], list[Quotation]]:
    """Order both sides by the market-factor-driven priority keys.

    Buyer keys: k1 = price, k2 = price * quantity. Seller keys:
    k1 = |price|, k2 = (p_e - |price|) * quantity.

    * surplus  (m < 0): buyers desc k2, sellers asc k1 — favor absorbers.
    * deficit  (m > 0): buyers desc k1, sellers desc k2 — favor providers.
    * balanced (m = 0): buyers desc k1, sellers asc k1 — classic book.

    Ties break toward the lower agent_id.
    """
    if m.value < 0:
        b = _book_order(buyers, lambda q: q.price * q.quantity)
    else:
        b = _book_order(buyers, _PRICE)
    if m.value > 0:
        s = _book_order(sellers, lambda q: (p_e - abs(q.price)) * q.quantity)
    else:
        s = _book_order(sellers, _PRICE)  # a seller's ask rises as its price falls
    return b, s


_AGENT_ID = itemgetter(0)  # of a Quotation or an [id, price, residual] row
_PRICE = itemgetter(1)


def _book_order(side: list, key) -> list:
    """`side` by descending `key`, ties toward the lower agent id.

    A stable sort by id, then a stable sort by key with ``reverse=True``
    (which keeps ties in order): the (-key, id) order, duplicate ids
    included, without building a tuple key per entry.
    """
    ranked = sorted(side, key=_AGENT_ID)
    ranked.sort(key=key, reverse=True)
    return ranked


def midpoint_price(p_b: float, p_s_abs: float) -> float:
    """Mid-point settlement price for a crossing bid/ask pair."""
    if p_b < p_s_abs:
        raise CrossViolation(f"bid {p_b} below ask {p_s_abs}")
    return (p_b + p_s_abs) / 2.0


# ---------------------------------------------------------------------------
# Clearing mechanisms
# ---------------------------------------------------------------------------

_trade = Trade._make  # a Trade from one 7-tuple, cheaper than Trade(*fields)


def _columns(side: list[Quotation]) -> tuple[list, list, list]:
    """(agent ids, prices, quantities) of one book side, as fresh lists."""
    if not side:
        return [], [], []
    return tuple(map(list, zip(*side)))


def clear_jpq(
    quotes: list[Quotation],
    m: MarketFactor,
    p_e: float,
    stats: dict | None = None,
) -> TradeLedger:
    """Joint price-quantity clearing with round-robin equitable matching.

    Pointers b and s sweep the sorted sides in lockstep, wrapping to the
    first entry that still has residual quantity. A failed cross advances
    (and permanently retires, via the start pointer) the buyer under
    surplus, the seller under deficit, and ends the auction when balanced.
    Matched pairs settle min residual at the mid-point price.

    Start pointers are kept at the first index with positive residual, so
    a non-front agent exhausting never desynchronizes the wrap-around. A
    full pass without a trade terminates the loop defensively; monotone
    residual/start progress already bounds the iteration count.
    """
    buyers, sellers = partition(quotes)
    buyers, sellers = sort_order_book(buyers, sellers, m, p_e)
    buyer_ids, bids, rb = _columns(buyers)
    seller_ids, seller_prices, rs = _columns(sellers)
    asks = [abs(p) for p in seller_prices]
    nb, ns = len(buyers), len(sellers)
    regime = m.value
    trades: list[Trade] = []

    b = s = 0
    b_start = s_start = 0
    since_trade = 0
    iterations = 0
    advances = 0

    while True:
        while b_start < nb and rb[b_start] <= 0:
            b_start += 1
        while s_start < ns and rs[s_start] <= 0:
            s_start += 1
        if b_start >= nb or s_start >= ns:
            break
        if b < b_start or b >= nb:
            b = b_start
            advances += 1
        while rb[b] <= 0:
            b += 1
            advances += 1
            if b >= nb:
                b = b_start
        if s < s_start or s >= ns:
            s = s_start
            advances += 1
        while rs[s] <= 0:
            s += 1
            advances += 1
            if s >= ns:
                s = s_start
        if since_trade > nb * ns:
            break
        iterations += 1

        p_b = bids[b]
        p_s = asks[s]
        if p_b < p_s:
            if regime < 0:
                b += 1
                b_start += 1
                since_trade += 1
                advances += 1
                continue
            elif regime > 0:
                s += 1
                s_start += 1
                since_trade += 1
                advances += 1
                continue
            else:
                break

        qty = min(rb[b], rs[s])
        price = midpoint_price(p_b, p_s)
        trades.append(_trade((buyer_ids[b], seller_ids[s], qty, price, price, p_b, p_s)))
        rb[b] -= qty
        rs[s] -= qty
        since_trade = 0
        b += 1
        s += 1
        advances += 2

    if stats is not None:
        stats["iterations"] = iterations
        stats["pointer_advances"] = advances

    return TradeLedger.from_trades(buyer_ids, seller_ids, trades)


def _classic_rows(quotes: list[Quotation]) -> tuple[list[list], list[list]]:
    """The classic book as [id, signed price, residual] rows: buyers by
    descending bid, sellers by ascending ask (descending signed price)."""
    buyers, sellers = partition(quotes)
    return (list(map(list, _book_order(buyers, _PRICE))),
            list(map(list, _book_order(sellers, _PRICE))))


def clear_greedy(quotes: list[Quotation]) -> TradeLedger:
    """Price-priority sequential double auction with mid-point pricing.

    Buyers descend by bid, sellers ascend by ask; the front pair trades the
    smaller residual while the bid still covers the ask.
    """
    buy_rows, sell_rows = _classic_rows(quotes)
    buyer_ids = [r[0] for r in buy_rows]
    seller_ids = [r[0] for r in sell_rows]
    return TradeLedger.from_trades(buyer_ids, seller_ids, _greedy_match(buy_rows, sell_rows))


def _greedy_match(buy_rows, sell_rows) -> list[Trade]:
    """Sequential matching over [id, signed price, residual] rows.

    Each trade decrements the residuals of its two rows in place.
    """
    trades = []
    bi = si = 0
    nb, ns = len(buy_rows), len(sell_rows)
    while bi < nb and si < ns:
        buy, sell = buy_rows[bi], sell_rows[si]
        if buy[2] <= 0:
            bi += 1
            continue
        if sell[2] <= 0:
            si += 1
            continue
        b_id, p_b, q_b = buy
        s_id, p_s, q_s = sell
        p_s = -p_s  # the seller's ask
        if p_b < p_s:
            break
        qty = min(q_b, q_s)
        price = midpoint_price(p_b, p_s)
        trades.append(_trade((b_id, s_id, qty, price, price, p_b, p_s)))
        buy[2] -= qty
        sell[2] -= qty
        if buy[2] <= 0:
            bi += 1
        if sell[2] <= 0:
            si += 1
    return trades


def clear_mrda(
    quotes: list[Quotation],
    env: PriceEnvelope,
    rounds: int = 3,
    concession: float = 0.5,
) -> TradeLedger:
    """Multi-round double auction with per-round price concessions.

    Round 1 greedy-matches the submitted prices. Before each later round,
    every buyer with residual demand raises its bid toward the emergency
    price and every seller with residual supply lowers its ask toward the
    feed-in tariff, each by the concession fraction of the remaining gap;
    residuals are then greedy-matched and settle at the conceded prices.
    The ledger is the union of all rounds. Conceded prices stay inside the
    envelope because the concession fraction is below one. Exhausted rows
    can neither concede nor trade, so each later round drops them first.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if not (0.0 <= concession < 1.0):
        raise ValueError(f"concession must be in [0, 1), got {concession}")

    buy_rows, sell_rows = _classic_rows(quotes)
    buyer_ids = [r[0] for r in buy_rows]
    seller_ids = [r[0] for r in sell_rows]

    all_trades: list[Trade] = []
    for rnd in range(rounds):
        if rnd > 0:
            buy_rows = [row for row in buy_rows if row[2] > 0]
            sell_rows = [row for row in sell_rows if row[2] > 0]
            for row in buy_rows:
                row[1] += concession * (env.emergency - row[1])
            for row in sell_rows:  # row[1] is -ask: the ask falls by the same rule
                row[1] += concession * (-row[1] - env.feed_in)
            # re-rank by the conceded prices before matching
            buy_rows = _book_order(buy_rows, _PRICE)
            sell_rows = _book_order(sell_rows, _PRICE)
        all_trades.extend(_greedy_match(buy_rows, sell_rows))

    return TradeLedger.from_trades(buyer_ids, seller_ids, all_trades)


def clear_vvda(quotes: list[Quotation]) -> TradeLedger:
    """Vickrey-variant double auction (McAfee breakeven-index rule).

    With buyers descending and sellers ascending, k is the last rank at
    which the bid still covers the ask. The first k-1 ranks trade pairwise;
    every trading buyer pays the rank-k bid and every trading seller
    receives the rank-k ask, so the operator keeps a non-negative surplus
    and the marginal pair is sacrificed for incentive reasons.
    """
    buyers, sellers = (_book_order(side, _PRICE) for side in partition(quotes))
    buyer_ids = [q.agent_id for q in buyers]
    seller_ids = [q.agent_id for q in sellers]

    k = 0
    while k < min(len(buyers), len(sellers)) and buyers[k].price >= abs(sellers[k].price):
        k += 1
    if k < 1:
        return TradeLedger.from_trades(buyer_ids, seller_ids, [])

    buy_clear = buyers[k - 1].price
    sell_clear = abs(sellers[k - 1].price)
    trades = [
        _trade((b_id, s_id, min(q_b, q_s), buy_clear, sell_clear, p_b, abs(p_s)))
        for (b_id, p_b, q_b), (s_id, p_s, q_s) in zip(buyers[: k - 1], sellers)
    ]
    return TradeLedger.from_trades(buyer_ids, seller_ids, trades)
