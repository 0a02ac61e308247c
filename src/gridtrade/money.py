"""Fixed-precision money arithmetic.

Settlement sums are accumulated in integer micro-units (10^-6 money units)
so that community-level balances are exact: the same multiset of trade
payments sums to the same integer no matter the order, and budget balance
can be asserted with `==` instead of a tolerance.
"""

MONEY_QUANTUM = 1e-6
_SCALE = 1_000_000


def to_micro(amount: float) -> int:
    """Quantize a money amount to integer micro-units (round half to even)."""
    return round(amount * _SCALE)


def from_micro(micro: int) -> float:
    return micro / _SCALE
