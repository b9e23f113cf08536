"""Decision procedures for udpda, all running over indicator pairs.

Membership, emptiness, universality and equivalence stay polynomial; the
words involved are only ever handled in compressed form.  Inclusion is
reduced to the componentwise comparison of two equal-length compressed
words covering one full joint period, so it inherits that check's explicit
work budget of aligned blocks examined (the problem is coNP-complete and a
blow-up cannot be ruled out).
"""

from __future__ import annotations

import math

from . import slp
from .compare import DEFAULT_BUDGET, ZERO_LEQ_ONE, CheckResult, comp_slp
from .slp import Slp
from .translate import IndicatorPair, udpda_to_indicator
from .udpda import NormalUdpda, RawUnpda

Machine = RawUnpda | NormalUdpda


def compressed_membership(a: Machine, n: int) -> bool:
    """Whether a**n is accepted, answered from the indicator pair.

    Positions inside the prefix are read off directly; beyond it the answer
    sits at (n - |prefix|) mod |loop| in the loop.
    """
    pair = udpda_to_indicator(a)
    plen = slp.length(pair.prefix)
    if n < plen:
        return slp.query(pair.prefix, n) == "1"
    return slp.query(pair.loop, (n - plen) % slp.length(pair.loop)) == "1"


def _all_of(p: Slp, bit: str) -> bool:
    """Whether the generated word is bit repeated length-many times; exact,
    by counting the other bit."""
    return slp.count(p, "1" if bit == "0" else "0") == 0


def emptiness(a: Machine) -> bool:
    """Whether the language is empty: both components generate all-zero words."""
    pair = udpda_to_indicator(a)
    return _all_of(pair.prefix, "0") and _all_of(pair.loop, "0")


def universality(a: Machine) -> bool:
    """Whether every word is accepted: both components are all ones."""
    pair = udpda_to_indicator(a)
    return _all_of(pair.prefix, "1") and _all_of(pair.loop, "1")


def _pair_equal(x: IndicatorPair, y: IndicatorPair) -> bool:
    """Whether two indicator pairs generate the same sequence.

    An eventually periodic sequence with periods |x.loop| and |y.loop| also
    has their gcd t as a period, so it suffices to align the prefixes, check
    that the longer-aligned loop is a power of its own first t characters,
    and that the other loop is the matching power up to a cyclic shift.
    """
    if slp.length(x.prefix) < slp.length(y.prefix):
        x, y = y, x
    p1, l1 = x.prefix, x.loop
    p2, l2 = y.prefix, y.loop
    n1, n2 = slp.length(p1), slp.length(p2)
    k1, k2 = slp.length(l1), slp.length(l2)
    # align: the second sequence's first n1 characters are p2 . l2^alpha
    aligned = slp.concat(p2, slp.power(l2, n1 - n2, k2))
    if not slp.equal(p1, aligned):
        return False
    t = math.gcd(k1, k2)
    base = slp.slice(l1, 0, t)
    if not slp.equal(l1, slp.power(base, k1 // t)):
        return False
    shift = (n1 - n2) % k2
    return slp.equal(slp.cyclic_shift(l2, shift), slp.power(base, k2 // t))


def equivalence(a1: Machine, a2: Machine) -> bool:
    """Whether two machines accept the same language."""
    return _pair_equal(udpda_to_indicator(a1), udpda_to_indicator(a2))


def _window(pair: IndicatorPair, n: int) -> Slp:
    """Program for the first n characteristic bits (n at least the prefix)."""
    return slp.concat(
        pair.prefix,
        slp.power(pair.loop, n - slp.length(pair.prefix), slp.length(pair.loop)),
    )


def inclusion(a1: Machine, a2: Machine, budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Whether L(a1) is a subset of L(a2); a failure witness is the length of
    a shortest word accepted by a1 but not a2.

    Both characteristic sequences are determined by the positions below the
    longer prefix plus the residue modulo the loop lengths, so comparing one
    window of length max(|prefixes|) + lcm(|loops|) under the order 0 <= 1
    is complete.  The comparison walks aligned blocks of the two windows,
    so long runs of rejected lengths on the left or accepted lengths on the
    right cost one block each; `budget` bounds the blocks examined, never
    more than positions.  The lcm may be exponential in the machine sizes
    and the blocks may be too; running out of budget is then the honest
    answer.
    """
    x = udpda_to_indicator(a1)
    y = udpda_to_indicator(a2)
    span = max(slp.length(x.prefix), slp.length(y.prefix)) + math.lcm(
        slp.length(x.loop), slp.length(y.loop)
    )
    return comp_slp(_window(x, span), _window(y, span), ZERO_LEQ_ONE, budget)
