"""Generators for hardness instances, used as cross-module test vectors.

From a Subset-Sum instance two compressed words are built that share a 'b'
position exactly when the instance is solvable; substituting bits turns
that into a componentwise-comparison instance, and running those through
the indicator-pair machinery yields inclusion instances.  From a
Generalized-Subset-Sum instance an integer expression is built that is
universal up to a computable bound exactly when the instance is a
yes-instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intexpr, slp
from .errors import BadTarget, LengthMismatch, format_int
from .intexpr import Const, Double, IntExpr, Star, Sum, Union
from .slp import Slp
from .translate import IndicatorPair, indicator_to_udpda
from .udpda import NormalUdpda


@dataclass(frozen=True)
class SubsetSumInstance:
    """Weights and a target; asks for a 0/1 selection with that inner product."""

    weights: tuple[int, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if any(w < 0 for w in self.weights) or self.target < 0:
            raise ValueError("weights and target must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.weights)

    def solvable(self) -> bool:
        """Brute force over all selections (test oracle; exponential)."""
        sums = {0}
        for w in self.weights:
            sums |= {s + w for s in sums}
        return self.target in sums


@dataclass(frozen=True)
class GssInstance:
    """Generalized Subset-Sum: for all y does some x give x.u + y.v = target."""

    u: tuple[int, ...]
    v: tuple[int, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "v", tuple(self.v))
        if any(w < 0 for w in self.u + self.v) or self.target < 0:
            raise ValueError("entries and target must be non-negative")

    def holds(self) -> bool:
        """Brute force over all y and x (test oracle; exponential)."""
        x_sums = {0}
        for w in self.u:
            x_sums |= {s + w for s in x_sums}
        y_sums = [0]
        for w in self.v:
            y_sums += [s + w for s in y_sums]
        return all(self.target - ys in x_sums for ys in y_sums)


def gen_lohrey(inst: SubsetSumInstance) -> tuple[Slp, Slp]:
    """Compressed words W1, W2 over {a, b} encoding all subset sums.

    W1 concatenates, over all selections x in lexicographic order, the
    factor a^(x.w) b a^(s - x.w); W2 is (a^t b a^(s-t)) to the power 2^n.
    They share a 'b' position iff some selection hits the target.

    W1 is built by a recurrence over trailing coordinates: appending a
    coordinate with weight w doubles the factor list, and the second half
    equals the first with every inner product raised by w -- which, since
    neighbouring runs of a's merge, is just a^w followed by the first half
    with w trailing a's removed.
    """
    s = inst.total
    t = inst.target
    if t > s:
        raise BadTarget(f"target {t} exceeds the weight sum {s}")
    st = slp._Store("ab")
    run = slp._pow_sym(st, "a", s)
    cur = st.add(("b", run) if s else ("b",))
    for w in reversed(inst.weights):
        shifted = slp._take_sym(st, cur, st.sym_length(cur) - w)
        cur = st.add((cur, slp._pow_sym(st, "a", w), shifted) if w else (cur, shifted))
    w1 = st.build(cur)

    st2 = slp._Store("ab")
    block = st2.add(
        (slp._pow_sym(st2, "a", t), "b", slp._pow_sym(st2, "a", s - t))
    )
    w2 = st2.build(slp._pow_sym(st2, block, 1 << len(inst.weights)))
    return w1, w2


def gen_subsetsum_to_compslp(inst: SubsetSumInstance) -> tuple[Slp, Slp]:
    """Comparison instance over {0, 1}: componentwise 0<=1 fails exactly on
    solvable Subset-Sum inputs.

    In the first word a maps to 0 and b to 1, in the second a maps to 1 and
    b to 0, so a shared b becomes a 1-over-0 violation.
    """
    w1, w2 = gen_lohrey(inst)
    p1 = slp.substitute(w1, {"a": "0", "b": "1"}, "01")
    p2 = slp.substitute(w2, {"a": "1", "b": "0"}, "01")
    return p1, p2


def gen_compslp_to_inclusion(p1: Slp, p2: Slp, p0: Slp) -> tuple[NormalUdpda, NormalUdpda]:
    """Machines whose language inclusion mirrors the componentwise comparison.

    Both words get the same loop program p0, each pair becomes a machine,
    and str(p1) <= str(p2) componentwise iff L(A1) is a subset of L(A2).
    """
    if slp.length(p1) != slp.length(p2):
        raise LengthMismatch(
            f"lengths {format_int(slp.length(p1))} and {format_int(slp.length(p2))} differ"
        )
    a1 = indicator_to_udpda(IndicatorPair(p1, p0))
    a2 = indicator_to_udpda(IndicatorPair(p2, p0))
    return a1, a2


def _interval(lo: int, hi: int) -> IntExpr:
    """Expression for the integer interval [lo, hi] (requires lo <= hi).

    [0, t] is built by the recursion [0, t] = [0, t//2] x2 + (0 | t%2).
    """
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")

    def zero_to(t: int) -> IntExpr:
        if t == 0:
            return Const(0)
        if t == 1:
            return Union(Const(0), Const(1))
        return Sum(Double(zero_to(t // 2)), Union(Const(0), Const(t % 2)))

    if lo == 0:
        return zero_to(hi)
    return Sum(Const(lo), zero_to(hi - lo))


def gen_gss_to_intexpr(inst: GssInstance) -> tuple[IntExpr, int]:
    """Expression that is universal up to the returned bound iff the
    Generalized-Subset-Sum instance is a yes-instance.

    With M larger than every sum in sight, numbers below 2^m * M decompose
    uniquely as kM + r; the expression covers every r other than the target
    outright, covers everything from 2^m * M up, and hits kM + target
    exactly when the selection y encoded by k admits a completion x.  A
    failing bound check therefore always fails at a witness of the form
    kM + target.
    """
    n, m, t = len(inst.u), len(inst.v), inst.target
    big = max(sum(inst.u) + sum(inst.v), t) + 1
    bound = (1 << m) * big

    top = Sum(Const(bound), Star(Const(1)))
    residues = []
    if t >= 1:
        residues.append(_interval(0, t - 1))
    if t + 1 <= big - 1:
        residues.append(_interval(t + 1, big - 1))
    expr: IntExpr = top
    if residues:
        rest = residues[0] if len(residues) == 1 else Union(residues[0], residues[1])
        expr = Union(top, Sum(Star(Const(big)), rest))

    body: IntExpr | None = None
    for j, vj in enumerate(inst.v):
        addend = Union(Const(0), Sum(Const((1 << j) * big), Const(vj)))
        body = addend if body is None else Sum(body, addend)
    for ui in inst.u:
        addend = Union(Const(0), Const(ui))
        body = addend if body is None else Sum(body, addend)
    if body is None:
        body = Const(0)
    return Union(expr, body), bound
