"""Market clearing tests: hand-traced instances plus fuzzed invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridtrade import market
from gridtrade.errors import CrossViolation, NegativeQuantity, PriceOutOfEnvelope
from gridtrade.market import (
    BALANCED,
    DEFICIT,
    SURPLUS,
    MarketFactor,
    PriceEnvelope,
    Quotation,
    Trade,
    TradeLedger,
    clear_greedy,
    clear_jpq,
    clear_mrda,
    clear_vvda,
    midpoint_price,
    partition,
    require_valid,
    sort_order_book,
)

ENV = PriceEnvelope(feed_in=0.2, day_ahead=1.0, emergency=2.0)


def q(agent_id, price, qty):
    return Quotation(agent_id=agent_id, price=price, quantity=qty)


def trades_as_tuples(ledger):
    return [(t.buyer_id, t.seller_id, t.quantity, t.buyer_price) for t in ledger.trades]


def dense(ledger):
    """(quantities, buyer prices) as buyer x seller matrices in book order.

    A cell accumulates the quantity of every trade between its pair and
    keeps the buyer price of the last one.
    """
    row = {a: i for i, a in enumerate(ledger.buyer_ids)}
    col = {a: j for j, a in enumerate(ledger.seller_ids)}
    quantities = np.zeros((len(row), len(col)))
    prices = np.zeros((len(row), len(col)))
    for t in ledger.trades:
        quantities[row[t.buyer_id], col[t.seller_id]] += t.quantity
        prices[row[t.buyer_id], col[t.seller_id]] = t.buyer_price
    return quantities, prices


# ---------------------------------------------------------------------------
# require_valid
# ---------------------------------------------------------------------------

class TestValidateQuotation:
    def test_buyer_inside_envelope(self):
        require_valid(q(0, 0.5, 3), ENV)

    def test_seller_at_feed_in_floor(self):
        require_valid(q(0, -0.2, 5), ENV)

    def test_price_below_floor_rejected(self):
        with pytest.raises(PriceOutOfEnvelope):
            require_valid(q(0, 0.1, 1), ENV)

    def test_price_above_emergency_rejected(self):
        with pytest.raises(PriceOutOfEnvelope):
            require_valid(q(0, -2.5, 1), ENV)

    def test_null_quote_always_valid(self):
        require_valid(q(0, 99.0, 0), ENV)

    def test_negative_quantity(self):
        with pytest.raises(NegativeQuantity):
            require_valid(q(0, 0.5, -1), ENV)

    def test_envelope_ordering_enforced(self):
        with pytest.raises(ValueError):
            PriceEnvelope(feed_in=1.0, day_ahead=0.5, emergency=2.0)


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

class TestPartition:
    def test_empty(self):
        assert partition([]) == ([], [])

    def test_sign_partition(self):
        b, s = partition([q(0, 0.5, 2), q(1, -0.4, 3)])
        assert [x.agent_id for x in b] == [0]
        assert [x.agent_id for x in s] == [1]

    def test_zero_quantity_discarded(self):
        assert partition([q(0, 0.5, 0)]) == ([], [])

    def test_price_zero_is_buyer(self):
        b, s = partition([q(0, 0.0, 1)])
        assert len(b) == 1 and not s

    def test_submission_order_preserved(self):
        quotes = [q(3, 0.5, 1), q(1, 0.9, 1), q(2, -0.5, 1), q(0, -0.3, 1)]
        b, s = partition(quotes)
        assert [x.agent_id for x in b] == [3, 1]
        assert [x.agent_id for x in s] == [2, 0]


# ---------------------------------------------------------------------------
# sort_order_book
# ---------------------------------------------------------------------------

class TestSortOrderBook:
    def test_balanced_buyers_desc_price(self):
        buyers = [q(1, 0.8, 3), q(2, 1.0, 5)]
        b, _ = sort_order_book(buyers, [], BALANCED, p_e=2.0)
        assert [x.agent_id for x in b] == [2, 1]

    def test_deficit_sellers_desc_welfare(self):
        # k2 = (p_e - ask) * qty: A -> (1.5-0.5)*4 = 4.0, B -> (1.5-0.9)*6 = 3.6
        sellers = [q(10, -0.5, 4), q(11, -0.9, 6)]
        _, s = sort_order_book([], sellers, DEFICIT, p_e=1.5)
        assert [x.agent_id for x in s] == [10, 11]

    def test_singleton_unchanged(self):
        buyers = [q(7, 0.6, 2)]
        for m in (SURPLUS, BALANCED, DEFICIT):
            b, _ = sort_order_book(buyers, [], m, p_e=2.0)
            assert [x.agent_id for x in b] == [7]

    def test_surplus_buyers_desc_absorption(self):
        # k2 = p*q: (0.4, 10) -> 4.0 beats (0.9, 4) -> 3.6
        buyers = [q(1, 0.9, 4), q(0, 0.4, 10)]
        b, _ = sort_order_book(buyers, [], SURPLUS, p_e=2.0)
        assert [x.agent_id for x in b] == [0, 1]

    def test_tie_breaks_lower_id_first(self):
        buyers = [q(5, 0.8, 2), q(2, 0.8, 9)]
        b, _ = sort_order_book(buyers, [], BALANCED, p_e=2.0)
        assert [x.agent_id for x in b] == [2, 5]

    def test_market_factor_validates_range(self):
        with pytest.raises(ValueError):
            MarketFactor(2)


# ---------------------------------------------------------------------------
# midpoint_price
# ---------------------------------------------------------------------------

class TestMidpoint:
    def test_mean(self):
        assert midpoint_price(1.0, 0.5) == 0.75

    def test_equal_prices(self):
        assert midpoint_price(0.7, 0.7) == 0.7

    def test_inverted_cross_raises(self):
        with pytest.raises(CrossViolation):
            midpoint_price(0.5, 0.9)


# ---------------------------------------------------------------------------
# clear_jpq: hand-traced instances
# ---------------------------------------------------------------------------

class TestJpqHandTraces:
    def test_balanced_2x2_single_trade(self):
        # B1 1.0/5, B2 0.8/3 vs S1 -0.5/4, S2 -0.9/6 at m=0:
        # B1xS1 trades 4 @ 0.75, then 0.8 < 0.9 ends the auction.
        quotes = [q(0, 1.0, 5), q(1, 0.8, 3), q(2, -0.5, 4), q(3, -0.9, 6)]
        ledger = clear_jpq(quotes, BALANCED, p_e=2.0)
        assert trades_as_tuples(ledger) == [(0, 2, 4, 0.75)]

    def test_deficit_seller_skip_and_buyer_wraparound(self):
        # m=+1, p_e=2.0. Sellers ranked by (p_e-ask)*q: S2 (1.5*3=4.5) before
        # S1 (1.2*2=2.4). B1xS2 trades 3 @ 0.55; B1 wraps; 0.6 < 0.8 skips S1
        # out and empties the sell side.
        quotes = [q(0, 0.6, 5), q(1, -0.8, 2), q(2, -0.5, 3)]
        ledger = clear_jpq(quotes, DEFICIT, p_e=2.0)
        assert trades_as_tuples(ledger) == [(0, 2, 3, 0.55)]

    def test_surplus_buyer_skip_then_wraparound(self):
        # m=-1. Buyers ranked by p*q: B1 (0.4*10=4.0) before B2 (0.9*4=3.6).
        # B1 fails 0.4 < 0.5 and is retired; B2 takes S1 (3 @ 0.7), wraps,
        # then takes S2 (1 @ 0.8).
        quotes = [q(0, 0.4, 10), q(1, 0.9, 4), q(2, -0.5, 3), q(3, -0.7, 8)]
        ledger = clear_jpq(quotes, SURPLUS, p_e=2.0)
        assert trades_as_tuples(ledger) == [(1, 2, 3, 0.7), (1, 3, 1, 0.8)]

    def test_balanced_nonfront_exhaustion_keeps_front_buyer(self):
        # B2 exhausts mid-list; the start pointer must stay on B1 (residual 3)
        # so the wrap-around lets B1 absorb S2's remainder.
        quotes = [q(0, 1.0, 6), q(1, 0.9, 2), q(2, -0.2, 3), q(3, -0.3, 4)]
        ledger = clear_jpq(quotes, BALANCED, p_e=2.0)
        assert trades_as_tuples(ledger) == [
            (0, 2, 3, 0.6),
            (1, 3, 2, 0.6),
            (0, 3, 2, 0.65),
        ]

    def test_surplus_failed_cross_retires_the_front_buyer(self):
        # m=-1, p_e=3.5. B0 (k2 30) trades 2 @ 2.0 with S2; B1 0.5 < S3 2.0
        # fails and retires the front buyer B0 (8 kWh left at 3.0), though
        # B0 and S3 could trade; B1 then fails again and the book ends.
        quotes = [q(0, 3.0, 10), q(1, 0.5, 1), q(2, -1.0, 2), q(3, -2.0, 5)]
        ledger = clear_jpq(quotes, SURPLUS, p_e=3.5)
        assert trades_as_tuples(ledger) == [(0, 2, 2, 2.0)]

    def test_deficit_failed_cross_retires_the_front_seller(self):
        # m=+1, p_e=3.5. S2 (k2 30) trades 2 @ 1.25 with B0; B1 1.0 < S3 3.0
        # fails and retires the front seller S2 (8 kWh left at 0.5), so B1
        # never meets it; B1 then fails against S3 and the book ends.
        quotes = [q(0, 2.0, 2), q(1, 1.0, 5), q(2, -0.5, 10), q(3, -3.0, 1)]
        ledger = clear_jpq(quotes, DEFICIT, p_e=3.5)
        assert trades_as_tuples(ledger) == [(0, 2, 2, 1.25)]

    def test_exact_cross_full_fill_any_m(self):
        for m in (SURPLUS, BALANCED, DEFICIT):
            ledger = clear_jpq([q(0, 1.0, 5), q(1, -1.0, 5)], m, p_e=2.0)
            assert trades_as_tuples(ledger) == [(0, 1, 5, 1.0)]

    def test_surplus_all_buyers_below_asks_no_trades(self):
        quotes = [q(0, 0.3, 2), q(1, 0.25, 2), q(2, -0.5, 2), q(3, -0.6, 2)]
        ledger = clear_jpq(quotes, SURPLUS, p_e=2.0)
        assert ledger.trades == []
        assert not dense(ledger)[0].any()

    def test_deficit_seller_wraparound_two_fills(self):
        # p_e=1.5: S2 k2=(1.5-0.6)*3=2.7 ranks before S1 k2=(1.5-0.5)*2=2.0.
        quotes = [q(0, 0.9, 10), q(1, -0.5, 2), q(2, -0.6, 3)]
        ledger = clear_jpq(quotes, DEFICIT, p_e=1.5)
        assert trades_as_tuples(ledger) == [(0, 2, 3, 0.75), (0, 1, 2, 0.7)]

    def test_empty_sides(self):
        assert clear_jpq([], BALANCED, p_e=2.0).trades == []
        assert clear_jpq([q(0, 0.5, 2)], BALANCED, p_e=2.0).trades == []
        assert clear_jpq([q(0, -0.5, 2)], DEFICIT, p_e=2.0).trades == []

    def test_ledger_matrix_matches_trades(self):
        quotes = [q(0, 1.0, 6), q(1, 0.9, 2), q(2, -0.2, 3), q(3, -0.3, 4)]
        ledger = clear_jpq(quotes, BALANCED, p_e=2.0)
        assert ledger.buyer_ids == [0, 1]
        assert ledger.seller_ids == [2, 3]
        quantities, prices = dense(ledger)
        np.testing.assert_allclose(quantities, [[3, 2], [0, 2]])
        np.testing.assert_allclose(prices, [[0.6, 0.65], [0.0, 0.6]])


# ---------------------------------------------------------------------------
# clear_greedy
# ---------------------------------------------------------------------------

class TestGreedy:
    def test_first_trade_coincides_with_jpq_on_balanced_2x2(self):
        # Greedy keeps filling B1's residual against S2 (1.0 >= 0.9), where
        # JPQ's round-robin moved on to B2 and stopped; only the opening
        # trade coincides.
        quotes = [q(0, 1.0, 5), q(1, 0.8, 3), q(2, -0.5, 4), q(3, -0.9, 6)]
        assert trades_as_tuples(clear_greedy(quotes)) == [
            (0, 2, 4, 0.75),
            (0, 3, 1, 0.95),
        ]

    def test_no_cross_zero_ledger(self):
        quotes = [q(0, 0.3, 2), q(1, -0.5, 2)]
        assert clear_greedy(quotes).trades == []

    def test_sequential_fill(self):
        quotes = [q(0, 1.2, 2), q(1, 1.1, 2), q(2, -1.0, 3)]
        assert trades_as_tuples(clear_greedy(quotes)) == [
            (0, 2, 2, 1.1),
            (1, 2, 1, 1.05),
        ]


# ---------------------------------------------------------------------------
# clear_mrda
# ---------------------------------------------------------------------------

class TestMrda:
    def test_single_round_equals_greedy(self):
        quotes = [q(0, 1.0, 5), q(1, 0.8, 3), q(2, -0.5, 4), q(3, -0.9, 6)]
        mrda = clear_mrda(quotes, ENV, rounds=1)
        greedy = clear_greedy(quotes)
        assert trades_as_tuples(mrda) == trades_as_tuples(greedy)

    def test_concession_converges_to_trade(self):
        env = PriceEnvelope(feed_in=0.2, day_ahead=1.0, emergency=1.5)
        quotes = [q(0, 0.8, 2), q(1, -0.9, 2)]
        ledger = clear_mrda(quotes, env, rounds=3, concession=0.5)
        # round 2: bid 0.8+0.5*(1.5-0.8)=1.15, ask 0.9-0.5*(0.9-0.2)=0.55
        assert len(ledger.trades) == 1
        t = ledger.trades[0]
        assert t.quantity == 2
        assert t.buyer_price == pytest.approx(0.85)
        assert t.bid == pytest.approx(1.15)
        assert t.ask == pytest.approx(0.55)

    def test_no_sellers_zero_ledger(self):
        assert clear_mrda([q(0, 0.8, 2)], ENV, rounds=5).trades == []

    def test_conceded_prices_stay_in_envelope(self):
        quotes = [q(0, 0.21, 4), q(1, -1.99, 4)]
        ledger = clear_mrda(quotes, ENV, rounds=6, concession=0.9)
        for t in ledger.trades:
            assert ENV.feed_in <= t.ask <= t.bid <= ENV.emergency

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            clear_mrda([], ENV, rounds=0)
        with pytest.raises(ValueError):
            clear_mrda([], ENV, concession=1.0)


# ---------------------------------------------------------------------------
# clear_vvda
# ---------------------------------------------------------------------------

class TestVvda:
    def test_breakeven_at_one_means_no_trades(self):
        quotes = [q(0, 1.0, 5), q(1, 0.8, 3), q(2, -0.5, 4), q(3, -0.9, 6)]
        ledger = clear_vvda(quotes)
        assert ledger.trades == []
        assert ledger.operator_surplus() == 0.0

    def test_mcafee_price_rule(self):
        quotes = [
            q(0, 1.2, 2), q(1, 1.0, 2), q(2, 0.6, 2),
            q(3, -0.4, 2), q(4, -0.7, 2), q(5, -1.1, 2),
        ]
        ledger = clear_vvda(quotes)
        assert len(ledger.trades) == 1
        t = ledger.trades[0]
        assert (t.buyer_id, t.seller_id, t.quantity) == (0, 3, 2)
        assert t.buyer_price == 1.0
        assert t.seller_price == 0.7
        assert ledger.operator_surplus() == pytest.approx(0.6)

    def test_single_crossing_pair_sacrificed(self):
        assert clear_vvda([q(0, 1.0, 5), q(1, -0.5, 5)]).trades == []

    def test_surplus_nonnegative(self):
        quotes = [
            q(0, 1.5, 3), q(1, 1.4, 1), q(2, -0.3, 2), q(3, -0.6, 5),
        ]
        assert clear_vvda(quotes).operator_surplus() >= 0.0


# ---------------------------------------------------------------------------
# fuzzed invariants
# ---------------------------------------------------------------------------

def random_quotes(rng, n_agents, env=ENV):
    quotes = []
    for i in range(n_agents):
        price = rng.uniform(env.feed_in, env.emergency)
        if rng.random() < 0.5:
            price = -price
        qty = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 12.0)
        quotes.append(Quotation(i, float(price), float(qty)))
    return quotes


def random_market_factor(rng):
    return MarketFactor(int(rng.integers(-1, 2)))


def clear_all(quotes, m, env=ENV):
    return {
        "jpq": clear_jpq(quotes, m, env.emergency),
        "greedy": clear_greedy(quotes),
        "mrda": clear_mrda(quotes, env),
        "vvda": clear_vvda(quotes),
    }


def assert_ledger_invariants(ledger, quotes):
    submitted = {x.agent_id: x for x in quotes}
    quantities, prices = dense(ledger)
    assert (quantities >= 0).all()
    assert not prices[quantities == 0].any()
    for t in ledger.trades:
        assert t.quantity > 0
        # individual rationality at the prices the match formed at
        assert t.ask <= t.seller_price <= t.buyer_price <= t.bid or (
            t.ask <= t.buyer_price <= t.bid and t.ask <= t.seller_price <= t.bid
        )
    # row/col sums never exceed submitted quantities
    for idx, agent in enumerate(ledger.buyer_ids):
        assert quantities[idx, :].sum() <= submitted[agent].quantity + 1e-9
    for idx, agent in enumerate(ledger.seller_ids):
        assert quantities[:, idx].sum() <= submitted[agent].quantity + 1e-9


class TestFuzzedInvariants:
    N_SETS = 400

    def test_budget_balance_and_rationality(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N_SETS):
            quotes = random_quotes(rng, int(rng.integers(2, 17)))
            m = random_market_factor(rng)
            ledgers = clear_all(quotes, m)
            for name, ledger in ledgers.items():
                assert_ledger_invariants(ledger, quotes)
                if name == "vvda":
                    assert ledger.total_payments_micro() >= ledger.total_receipts_micro()
                else:
                    assert ledger.total_payments_micro() == ledger.total_receipts_micro()

    def test_determinism(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            quotes = random_quotes(rng, int(rng.integers(2, 17)))
            m = random_market_factor(rng)
            first = clear_all(quotes, m)
            second = clear_all(quotes, m)
            for name in first:
                assert trades_as_tuples(first[name]) == trades_as_tuples(second[name])

    def test_jpq_pointer_advance_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(self.N_SETS):
            quotes = random_quotes(rng, int(rng.integers(2, 17)))
            m = random_market_factor(rng)
            stats = {}
            clear_jpq(quotes, m, ENV.emergency, stats=stats)
            buyers, sellers = partition(quotes)
            nb, ns = len(buyers), len(sellers)
            assert stats["pointer_advances"] <= (nb + ns) * (nb * ns + 1)

    def test_m_invariance_of_volume_at_full_cross(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            quotes = []
            for i in range(n):
                if rng.random() < 0.5:
                    quotes.append(Quotation(i, float(rng.uniform(1.2, 2.0)), float(rng.uniform(0.5, 8.0))))
                else:
                    quotes.append(Quotation(i, -float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.5, 8.0))))
            volumes = {
                m.value: clear_jpq(quotes, m, ENV.emergency).total_volume()
                for m in (SURPLUS, BALANCED, DEFICIT)
            }
            assert volumes[-1] == pytest.approx(volumes[0])
            assert volumes[0] == pytest.approx(volumes[1])


@given(
    prices=st.lists(st.floats(0.2, 2.0), min_size=2, max_size=10),
    signs=st.lists(st.booleans(), min_size=2, max_size=10),
    qtys=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=10),
    m=st.sampled_from([-1, 0, 1]),
)
@settings(max_examples=150, deadline=None)
def test_hypothesis_jpq_conservation(prices, signs, qtys, m):
    n = min(len(prices), len(signs), len(qtys))
    quotes = [
        Quotation(i, prices[i] if signs[i] else -prices[i], qtys[i]) for i in range(n)
    ]
    ledger = clear_jpq(quotes, MarketFactor(m), ENV.emergency)
    submitted = {x.agent_id: x.quantity for x in quotes}
    quantities, _ = dense(ledger)
    for idx, agent in enumerate(ledger.buyer_ids):
        assert quantities[idx, :].sum() <= submitted[agent] + 1e-9
    for idx, agent in enumerate(ledger.seller_ids):
        assert quantities[:, idx].sum() <= submitted[agent] + 1e-9
    assert ledger.total_payments_micro() == ledger.total_receipts_micro()


def large_book(seed, n, buyer_share, tick):
    """Seeded book of n quotes with unique ids, about 5% of them null.

    A non-zero tick rounds prices onto a grid so that many quotes tie.
    """
    rng = np.random.default_rng(seed)
    prices = rng.uniform(ENV.feed_in, ENV.emergency, n)
    if tick:
        prices = np.clip(np.round(prices / tick) * tick, ENV.feed_in, ENV.emergency)
    buys = rng.random(n) < buyer_share
    qtys = np.where(rng.random(n) < 0.05, 0.0, rng.uniform(0.0, 12.0, n))
    return [
        Quotation(i, float(p if b else -p), float(x))
        for i, (p, b, x) in enumerate(zip(prices, buys, qtys))
    ]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(512, 2048),
    buyer_share=st.sampled_from([0.2, 0.5, 0.8]),
    tick=st.sampled_from([0.0, 0.05]),
    m=st.sampled_from([-1, 0, 1]),
)
@settings(max_examples=30, deadline=None)
def test_hypothesis_large_book_invariants(seed, n, buyer_share, tick, m):
    quotes = large_book(seed, n, buyer_share, tick)
    for name, ledger in clear_all(quotes, MarketFactor(m)).items():
        assert_ledger_invariants(ledger, quotes)
        if name == "vvda":
            assert ledger.total_payments_micro() >= ledger.total_receipts_micro()
        else:
            assert ledger.total_payments_micro() == ledger.total_receipts_micro()


# ---------------------------------------------------------------------------
# record contract
# ---------------------------------------------------------------------------

class TestRecords:
    def test_fields_are_read_only(self):
        quote = Quotation(0, 1.0, 2.0)
        trade = Trade(0, 1, 2.0, 0.75, 0.75, 1.0, 0.5)
        with pytest.raises(AttributeError):
            quote.price = 0.5
        with pytest.raises(AttributeError):
            trade.quantity = 1.0

    def test_positional_and_keyword_construction(self):
        assert Quotation(3, -0.5, 2.0) == Quotation(agent_id=3, price=-0.5, quantity=2.0)
        assert Trade(0, 1, 2.0, 0.75, 0.7, 1.0, 0.5) == Trade(
            buyer_id=0, seller_id=1, quantity=2.0, buyer_price=0.75, seller_price=0.7,
            bid=1.0, ask=0.5,
        )
        # records compare as plain tuples of their fields
        assert Quotation(3, -0.5, 2.0) == (3, -0.5, 2.0)

    def test_reprs(self):
        assert repr(Quotation(agent_id=0, price=1.0, quantity=5)) == (
            "Quotation(agent_id=0, price=1.0, quantity=5)"
        )
        assert repr(Trade(0, 2, 4, 0.75, 0.75, 1.0, 0.5)) == (
            "Trade(buyer_id=0, seller_id=2, quantity=4, buyer_price=0.75, "
            "seller_price=0.75, bid=1.0, ask=0.5)"
        )

    def test_properties(self):
        assert Quotation(0, -0.4, 1.0).ask == 0.4
        trade = Trade(0, 1, 2.0, 0.75, 0.7, 1.0, 0.5)
        assert trade.ask == 0.5  # the field, not the Quotation property
        assert (trade.payment_micro, trade.receipt_micro) == (1_500_000, 1_400_000)

    def test_every_mechanism_builds_its_ledger_through_from_trades(self, monkeypatch):
        calls = []
        original = TradeLedger.from_trades.__func__

        def counted(cls, buyer_ids, seller_ids, trades):
            calls.append(len(trades))
            return original(cls, buyer_ids, seller_ids, trades)

        monkeypatch.setattr(TradeLedger, "from_trades", classmethod(counted))
        quotes = [q(0, 1.0, 5), q(1, 0.8, 3), q(2, -0.5, 4), q(3, -0.9, 6)]
        clear_all(quotes, BALANCED)
        assert calls == [1, 2, 3, 0]


# ---------------------------------------------------------------------------
# reference clearing: the (-key, agent_id) tuple-key book of earlier releases
# ---------------------------------------------------------------------------

def reference_partition(quotes):
    buyers = [x for x in quotes if x.quantity > 0 and x.price >= 0]
    sellers = [x for x in quotes if x.quantity > 0 and x.price < 0]
    return buyers, sellers


def reference_sort_order_book(buyers, sellers, m, p_e):
    def bid_key(x):
        return (-x.price, x.agent_id)

    def ask_key(x):
        return (x.ask, x.agent_id)

    if m.value < 0:
        return (sorted(buyers, key=lambda x: (-x.price * x.quantity, x.agent_id)),
                sorted(sellers, key=ask_key))
    if m.value > 0:
        return (sorted(buyers, key=bid_key),
                sorted(sellers, key=lambda x: (-(p_e - x.ask) * x.quantity, x.agent_id)))
    return sorted(buyers, key=bid_key), sorted(sellers, key=ask_key)


def reference_greedy_match(buy_rows, sell_rows):
    trades = []
    bi = si = 0
    while bi < len(buy_rows) and si < len(sell_rows):
        if buy_rows[bi][2] <= 0:
            bi += 1
            continue
        if sell_rows[si][2] <= 0:
            si += 1
            continue
        b_id, p_b, q_b = buy_rows[bi]
        s_id, p_s, q_s = sell_rows[si]
        if p_b < p_s:
            break
        qty = min(q_b, q_s)
        price = midpoint_price(p_b, p_s)
        trades.append(Trade(b_id, s_id, qty, price, price, p_b, p_s))
        buy_rows[bi][2] -= qty
        sell_rows[si][2] -= qty
        if buy_rows[bi][2] <= 0:
            bi += 1
        if sell_rows[si][2] <= 0:
            si += 1
    return trades


def reference_clear_mrda(quotes, env, rounds=3, concession=0.5):
    """The multi-round auction that concedes every row, exhausted or not,
    and re-sorts the whole book on (key, agent_id) tuples; one round is the
    greedy auction."""
    buyers, sellers = reference_sort_order_book(*reference_partition(quotes), BALANCED, 0.0)
    buy_rows = [[x.agent_id, x.price, x.quantity] for x in buyers]
    sell_rows = [[x.agent_id, x.ask, x.quantity] for x in sellers]
    all_trades = []
    for rnd in range(rounds):
        if rnd > 0:
            for row in buy_rows:
                if row[2] > 0:
                    row[1] += concession * (env.emergency - row[1])
            for row in sell_rows:
                if row[2] > 0:
                    row[1] -= concession * (row[1] - env.feed_in)
            buy_rows.sort(key=lambda r: (-r[1], r[0]))
            sell_rows.sort(key=lambda r: (r[1], r[0]))
        all_trades.extend(reference_greedy_match(buy_rows, sell_rows))
    return TradeLedger.from_trades(
        [x.agent_id for x in buyers], [x.agent_id for x in sellers], all_trades
    )


def reference_clear_vvda(quotes):
    buyers, sellers = reference_sort_order_book(*reference_partition(quotes), BALANCED, 0.0)
    k = 0
    while k < min(len(buyers), len(sellers)) and buyers[k].price >= sellers[k].ask:
        k += 1
    trades = [
        Trade(b.agent_id, s.agent_id, min(b.quantity, s.quantity),
              buyers[k - 1].price, sellers[k - 1].ask, b.price, s.ask)
        for b, s in zip(buyers[: max(k - 1, 0)], sellers)
    ]
    return TradeLedger.from_trades(
        [x.agent_id for x in buyers], [x.agent_id for x in sellers], trades
    )


def reference_clear_jpq(quotes, m, p_e, monkeypatch):
    """JPQ's matching loop on the reference book."""
    with monkeypatch.context() as patch:
        patch.setattr(market, "partition", reference_partition)
        patch.setattr(market, "sort_order_book", reference_sort_order_book)
        return clear_jpq(quotes, m, p_e)


def shuffled_book(seed, n, buyer_share, tick, duplicate_ids=False):
    """n quotes with shuffled agent ids, about 5% of them null; a non-zero
    tick rounds prices so that many quotes tie."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(n)
    if duplicate_ids:
        ids = rng.integers(0, max(n // 4, 1), n)
    prices = rng.uniform(ENV.feed_in, ENV.emergency, n)
    if tick:
        prices = np.clip(np.round(prices / tick) * tick, ENV.feed_in, ENV.emergency)
    buys = rng.random(n) < buyer_share
    qtys = np.where(rng.random(n) < 0.05, 0.0, rng.uniform(0.0, 12.0, n))
    if tick:
        qtys = np.ceil(qtys)  # ties on price * quantity as well
    return [
        Quotation(int(a), float(p if b else -p), float(x))
        for a, p, b, x in zip(ids, prices, buys, qtys)
    ]


def assert_same_ledger(ledger, ref):
    assert ledger.buyer_ids == ref.buyer_ids
    assert ledger.seller_ids == ref.seller_ids
    for k, (got, want) in enumerate(zip(ledger.trades, ref.trades)):
        assert repr(got) == repr(want), f"trade {k}"
    assert len(ledger.trades) == len(ref.trades)


@pytest.mark.parametrize("n", [4, 64, 512, 2048])
@pytest.mark.parametrize("buyer_share", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("tick, duplicate_ids", [(0.0, False), (0.05, False), (0.05, True)])
def test_ledgers_equal_reference(n, buyer_share, tick, duplicate_ids, monkeypatch):
    quotes = shuffled_book(n + round(100 * buyer_share), n, buyer_share, tick, duplicate_ids)
    for m in (SURPLUS, BALANCED, DEFICIT):
        assert_same_ledger(clear_jpq(quotes, m, ENV.emergency),
                           reference_clear_jpq(quotes, m, ENV.emergency, monkeypatch))
        b, s = sort_order_book(*partition(quotes), m, ENV.emergency)
        rb, rs = reference_sort_order_book(*reference_partition(quotes), m, ENV.emergency)
        assert list(map(repr, b + s)) == list(map(repr, rb + rs)), m
    assert_same_ledger(clear_greedy(quotes), reference_clear_mrda(quotes, ENV, rounds=1))
    for rounds in (1, 2, 3):
        assert_same_ledger(clear_mrda(quotes, ENV, rounds=rounds),
                           reference_clear_mrda(quotes, ENV, rounds=rounds))
    assert_same_ledger(clear_vvda(quotes), reference_clear_vvda(quotes))
