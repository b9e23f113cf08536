"""Decision procedures for udpda, all running over indicator pairs.

Membership, emptiness, universality and equivalence stay polynomial; the
words involved are only ever handled in compressed form, as windows cut
from prefix.loop^omega and read in place, in one store for a decision's
two pairs.  Equivalence is one `slp.equal` of two windows (none if they
are one name); inclusion is one componentwise comparison (coNP-complete)
of the windows in place, with that check's explicit work budget.
"""

from __future__ import annotations

import math

from . import slp
from .compare import DEFAULT_BUDGET, ZERO_LEQ_ONE, CheckResult, _walk
from .errors import BadRange, format_int
from .translate import IndicatorPair, _indicator_pairs, udpda_to_indicator
from .udpda import NormalUdpda, RawUnpda

Machine = RawUnpda | NormalUdpda


def compressed_membership(a: Machine, n: int) -> bool:
    """Whether a**n is accepted: character n of the indicator pair's
    sequence, cut as a one-character window.  Raises BadRange if n is
    negative."""
    if n < 0:
        raise BadRange(f"word length {format_int(n)} is negative")
    return slp.query(udpda_to_indicator(a).window(1, n), 0) == "1"


def emptiness(a: Machine) -> bool:
    """Whether the language is empty: the sequence has no 1."""
    return "1" not in udpda_to_indicator(a).symbols


def universality(a: Machine) -> bool:
    """Whether every word is accepted: the sequence has no 0."""
    return "0" not in udpda_to_indicator(a).symbols


def _pair_equal(x: IndicatorPair, y: IndicatorPair) -> bool:
    """Whether two indicator pairs generate the same sequence.

    Past P, the longer prefix, the sequences have periods k1 = |x.loop| and
    k2 = |y.loop|.  If they agree on the first N = P + k1 + k2 - gcd(k1, k2)
    positions, the agreeing word from P on has both periods and, by the
    theorem of Fine and Wilf, period g = gcd(k1, k2) as well; so both loops
    repeat the same g characters and the sequences agree everywhere.  One
    comparison of the two windows of length N is therefore complete.
    """
    (p1, k1), (p2, k2) = x.lengths, y.lengths
    n = max(p1, p2) + k1 + k2 - math.gcd(k1, k2)
    wx, wy = x.window(n), y.window(n)
    return slp._anchor(wx) == slp._anchor(wy) or slp.equal(wx, wy)  # one store name


def equivalence(a1: Machine, a2: Machine) -> bool:
    """Whether two machines accept the same language."""
    return _pair_equal(*_indicator_pairs(a1, a2))


def _pair_included(x: IndicatorPair, y: IndicatorPair, budget: int) -> CheckResult:
    """Whether x's sequence is below y's at every position (see inclusion)."""
    if budget < 0:
        raise BadRange(f"budget {format_int(budget)} is negative")
    (p1, k1), (p2, k2) = x.lengths, y.lengths
    p, span = max(p1, p2), math.lcm(k1, k2)
    head = _walk(x.window(p), y.window(p), ZERO_LEQ_ONE, budget)
    if not head.holds:
        return head
    tail = _walk(x.window(span, p), y.window(span, p), ZERO_LEQ_ONE, budget - head.visited)
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
    return _pair_included(*_indicator_pairs(a1, a2), budget)
