"""Decision procedures for udpda, all running over indicator pairs.

Membership, emptiness, universality and equivalence stay polynomial; the
words involved are only ever handled in compressed form, as windows cut
from prefix.loop^omega by `IndicatorPair.window`.  Equivalence is one
`slp.equal` over windows of P + k1 + k2 - gcd(k1, k2) characters, where P
is the longer prefix and k1, k2 the loop lengths.  Inclusion is the
componentwise comparison of the first P + lcm(k1, k2) characters, one full
joint period, so it inherits that check's explicit work budget of aligned
blocks examined (the problem is coNP-complete and a blow-up cannot be ruled
out).  Cut from P on, each side of the joint period is a power of its
rotated loop, which the comparison decides from residues modulo the shorter
loop (or a base it is a power of) when that is short, whatever the lcm.
"""

from __future__ import annotations

import math

from . import slp
from .compare import DEFAULT_BUDGET, ZERO_LEQ_ONE, CheckResult, comp_slp
from .errors import BadRange, format_int
from .slp import Slp
from .translate import IndicatorPair, udpda_to_indicator
from .udpda import NormalUdpda, RawUnpda

Machine = RawUnpda | NormalUdpda


def compressed_membership(a: Machine, n: int) -> bool:
    """Whether a**n is accepted, answered from the indicator pair.

    Positions inside the prefix are read off directly; beyond it the answer
    sits at (n - |prefix|) mod |loop| in the loop.  Raises BadRange if n is
    negative.
    """
    if n < 0:
        raise BadRange(f"word length {format_int(n)} is negative")
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

    Past P, the longer prefix, the sequences have periods k1 = |x.loop| and
    k2 = |y.loop|.  If they agree on the first N = P + k1 + k2 - gcd(k1, k2)
    positions, the agreeing word from P on has both periods and, by the
    theorem of Fine and Wilf, period g = gcd(k1, k2) as well; so both loops
    repeat the same g characters and the sequences agree everywhere.  One
    comparison of the two windows of length N is therefore complete.
    """
    k1, k2 = slp.length(x.loop), slp.length(y.loop)
    n = max(slp.length(x.prefix), slp.length(y.prefix)) + k1 + k2 - math.gcd(k1, k2)
    return slp.equal(x.window(n), y.window(n))


def equivalence(a1: Machine, a2: Machine) -> bool:
    """Whether two machines accept the same language."""
    return _pair_equal(udpda_to_indicator(a1), udpda_to_indicator(a2))


def _pair_included(x: IndicatorPair, y: IndicatorPair, budget: int) -> CheckResult:
    """Whether x's sequence is below y's at every position (see inclusion)."""
    k1, k2 = slp.length(x.loop), slp.length(y.loop)
    p, span = max(slp.length(x.prefix), slp.length(y.prefix)), math.lcm(k1, k2)
    head = comp_slp(x.window(p), y.window(p), ZERO_LEQ_ONE, budget)
    if not head.holds:
        return head
    tail = comp_slp(x.window(span, p), y.window(span, p), ZERO_LEQ_ONE, budget - head.visited)
    return CheckResult(tail.verdict, None if tail.witness is None else p + tail.witness,
                       head.visited + tail.visited, p + tail.checked,
                       tail.period or head.period)


def inclusion(a1: Machine, a2: Machine, budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Whether L(a1) is a subset of L(a2); a failure witness is the length of
    a shortest word accepted by a1 but not a2.

    Both characteristic sequences are determined by the positions below the
    longer prefix, P, plus the residue modulo the loop lengths, so comparing
    the first P + lcm(|loops|) positions under the order 0 <= 1 is complete.
    That is two comparisons: the windows [0, P), then [P, P + lcm), where
    each window is its loop rotated to P and raised to lcm / |loop|, which
    the comparison can decide from residues modulo the shorter loop when
    that loop, or a base it is a power of, has at most compare.PERIOD_CAP
    characters.  The comparison walks aligned blocks, so long runs of
    rejected lengths on the left or accepted lengths on the right cost one
    block each; `budget` bounds the blocks examined over both parts, never
    more than positions.  With long loops the lcm may be exponential in the
    machine sizes and the blocks may be too; running out of budget is then
    the honest answer.
    """
    return _pair_included(udpda_to_indicator(a1), udpda_to_indicator(a2), budget)
