"""Fixed-precision money arithmetic.

Settlement sums are accumulated in integer micro-units (10^-6 money units)
so that community-level balances are exact: the same multiset of trade
payments sums to the same integer no matter the order, and budget balance
can be asserted with `==` instead of a tolerance.
"""

import numpy as np

_SCALE = 1_000_000


def to_micro(amount):
    """Quantize a money amount to integer micro-units (round half to even).

    A float gives an int; an array gives integer-valued float64 entries,
    exact below 2**53 micro-units.
    """
    if isinstance(amount, np.ndarray):
        return np.rint(amount * _SCALE)
    return round(amount * _SCALE)


def from_micro(micro: int) -> float:
    return micro / _SCALE
