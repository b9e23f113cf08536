"""Componentwise comparison of equal-length compressed words.

The engine walks both grammars in lockstep over aligned blocks and reports
the least position where the symbol relation fails.  A block is skipped
whole when its symbols cannot take part in a violation, when both sides
are the same name of the same grammar store at the same offset, or when
the same pair of blocks at the same offsets was already walked clean (a
bounded memo); short blocks are compared as expanded strings.  Repetitive
words, whose aligned block pairs recur, are thus walked once per distinct
pair rather than once per occurrence.  The problem is coNP-complete for
any relation beyond equality, so the work is bounded by an explicit budget
of blocks examined -- never more than the positions the blocks cover --
and running out of it is an ordinary, reportable outcome rather than
nontermination.

A side that is structurally a power B^k of a short base (|B| at most
PERIOD_CAP) is decided exactly from residue classes modulo |B| once the
walk has examined as many blocks as both words' grammars have symbols: work
pseudo-polynomial in the period, with no dependence on k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Iterable

from . import slp
from .errors import BadRange, LengthMismatch, format_int
from .slp import Slp

DEFAULT_BUDGET = 1 << 22

HOLDS = "holds"
FAILS = "fails"
BUDGET_EXCEEDED = "budget_exceeded"

# Blocks at most this long are compared as expanded strings; longer ones
# are split into their children.
BLOCK = 64

# At most this many split block pairs are remembered per comparison, so
# the walk's memory stays bounded whatever the words' length.
MEMO = 1 << 16

# A side that is a power of a base at most this long may be decided by
# residues modulo the base length (see comp_slp).
PERIOD_CAP = 1 << 16


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a positionwise check: holds, fails(witness) or budget out.

    visited counts the aligned blocks examined.  checked is the length of
    the prefix known to be free of violations: the whole word when the
    check holds, the witness when it fails, and how far the walk got when
    the budget ran out.  period is the base length the residue check used,
    0 when the walk decided alone.  None of the three takes part in
    equality.
    """

    verdict: str
    witness: int | None = None
    visited: int = field(default=0, compare=False)
    checked: int = field(default=0, compare=False)
    period: int = field(default=0, compare=False)

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


class SymbolRelation:
    """A reflexive binary relation on a finite symbol set."""

    def __init__(self, alphabet: Iterable[str], pairs: Iterable[tuple[str, str]]):
        self.alphabet = frozenset(alphabet)
        self.pairs = frozenset(pairs) | {(x, x) for x in self.alphabet}
        for x, y in self.pairs:
            if x not in self.alphabet or y not in self.alphabet:
                raise ValueError(f"pair ({x!r}, {y!r}) uses symbols outside the alphabet")

    def holds(self, x: str, y: str) -> bool:
        return (x, y) in self.pairs


class PartialOrderSpec(SymbolRelation):
    """A validated partial order: reflexive, antisymmetric and transitive."""

    def __init__(self, alphabet: Iterable[str], pairs: Iterable[tuple[str, str]]):
        super().__init__(alphabet, pairs)
        for x, y in sorted(self.pairs):
            if x != y and (y, x) in self.pairs:
                raise ValueError(f"not antisymmetric: both ({x},{y}) and ({y},{x})")
        for x, y in sorted(self.pairs):
            for z in sorted(self.alphabet):
                if (y, z) in self.pairs and (x, z) not in self.pairs:
                    raise ValueError(f"not transitive: ({x},{y}), ({y},{z}) but not ({x},{z})")


ZERO_LEQ_ONE = PartialOrderSpec("01", [("0", "1")])

# hole compatibility: equal, or at least one side is the wildcard '?'
WILDCARD = SymbolRelation(
    "ab?", [(x, y) for x in "ab?" for y in "ab?" if x == y or "?" in (x, y)]
)


class _View:
    """One side of the block walk: a name of a grammar store, read in place
    with the store's lengths and masks.  Short texts are spelled on first
    use, and a wide literal rule is walked in chunks of at most BLOCK
    terminals, each chunk a store name."""

    def __init__(self, st: slp._Store, root: str):
        self.st, self.root = st, root
        self.prods, self.lens, self.masks = st.productions, st.lengths, st.masks
        self.texts = {t: t for t in st.alphabet}
        self._kids: dict[str, list[str]] = {}

    @cached_property
    def rules(self) -> list[tuple[str, tuple]]:
        return self.st.rules(self.root)

    def children(self, sym: str) -> list[str]:
        """sym's right-hand side with terminal runs chunked, reversed for a stack."""
        kids = self._kids.get(sym)
        if kids is None:
            kids = []
            for terminal, group in groupby(self.prods[sym], self.st.alphabet.__contains__):
                if not terminal:
                    kids.extend(group)
                    continue
                run = tuple(group)
                chunks = (run[i:i + BLOCK] for i in range(0, len(run), BLOCK))
                kids += [c[0] if len(c) == 1 else self.st.add(c) for c in chunks]
            kids.reverse()
            self._kids[sym] = kids
        return kids


def _advance(stack: list, k: int, lens: dict) -> int:
    """Drop the first k symbols of the stacked word; return the offset into the new top."""
    while stack and k >= lens[stack[-1]]:
        k -= lens[stack.pop()]
    return k


def _descend(stack: list, off: int, view: _View) -> int:
    """Replace the top by its children; return the offset into the new top."""
    stack.extend(view.children(stack.pop()))
    return _advance(stack, off, view.lens)


def _power_base(g: _View) -> str | None:
    """The base B when g's word is structurally B^k with k >= 2 and
    |B| <= PERIOD_CAP, else None.

    Children first, a name whose nonempty children all share one base is a
    power of that base; any other is its own base.
    """
    lens = g.lens
    base = {t: t for t in g.st.alphabet}
    for name, rhs in g.rules:
        kids = {base[sym] for sym in rhs if lens[sym]}
        base[name] = kids.pop() if len(kids) == 1 else name
    b = base[g.root]
    return b if 2 * lens[b] <= lens[g.root] and lens[b] <= PERIOD_CAP else None


def _short_power(g1: _View, g2: _View):
    """(d, power side, its base, other side, whether the power is on the
    right) for the side with the shorter base of length d, the right one on
    a tie; None when neither side is a short power."""
    plan = None
    for power, other, on_right in ((g2, g1, True), (g1, g2, False)):
        base = _power_base(power)
        if base is not None and (plan is None or power.lens[base] < plan[0]):
            plan = (power.lens[base], power, base, other, on_right)
    return plan


def _residues(g: _View, x: str, d: int) -> dict:
    """Per symbol whose word holds x, the d-bit mask of the residues modulo d
    of the positions of x: the OR of its children's masks, each rotated by
    the child's offset."""
    full = (1 << d) - 1
    occ = {x: 1}
    bit, lens, masks = g.masks[x], g.lens, g.masks
    for name, rhs in g.rules:
        if masks[name] & bit:
            mask = off = 0
            for sym in rhs:
                m = occ.get(sym)
                if m:
                    mask |= m << off | m >> d - off
                off = (off + lens[sym]) % d
            occ[name] = mask & full
    return occ


def _least_violation(g: _View, want: dict[str, int], d: int) -> int | None:
    """Least position i of g's word holding a symbol x with bit i mod d set
    in want[x], or None: one left-first descent guided by the residue masks."""
    occ = {x: _residues(g, x, d) for x in want}

    def hit(sym, shift):
        for x, bad in want.items():
            m = occ[x].get(sym)
            if m and (m << shift | m >> d - shift) & bad:
                return True
        return False

    sym, pos = g.root, 0
    if not hit(sym, 0):
        return None
    while sym not in g.st.alphabet:
        for sym in g.prods[sym]:
            if hit(sym, pos % d):
                break
            pos += g.lens[sym]
    return pos


def _residue_witness(d: int, power: _View, base: str, other: _View, on_right: bool,
                     bad: set) -> int | None:
    """The least violating position when power's word is base^k, |base| = d.

    Position i of the power side holds base[i mod d], so a symbol x of the
    other side violates exactly at the residues where base holds a symbol
    that x is not related to (in the order of the two sides).
    """
    at: dict[str, int] = {}  # per symbol of the power side, its positions in base
    want: dict[str, int] = {}
    for x, y in bad if on_right else {(y, x) for x, y in bad}:
        if y not in at:
            at[y] = _residues(power, y, d).get(base, 0)
        want[x] = want.get(x, 0) | at[y]
    return _least_violation(other, {x: m for x, m in want.items() if m}, d)


def comp_slp(
    p1: Slp,
    p2: Slp,
    relation: SymbolRelation,
    budget: int = DEFAULT_BUDGET,
) -> CheckResult:
    """Check relation(p1[i], p2[i]) at every position of two equal-length words.

    Returns holds, or fails with the least violating position, or
    budget_exceeded once more than `budget` aligned blocks would need
    examining.  Each block covers at least one position, so any budget
    that covers the positions up to the answer also covers its blocks.  A
    negative budget raises BadRange.

    Both programs are written into one store (equal subprograms are one
    name there), which starts from p1's own store where _Store.holding
    can take it; both sides keep a stack of pending symbols and an offset
    into the top one.  At each step the first rule that fits decides:

    (a) every symbol of the left block is related to every symbol: skip it;
    (b) every symbol is related to every symbol of the right block: skip it;
    (c) the same store name at the same offset: skip it, since the
        relation is reflexive;
    (d) both blocks at most BLOCK long: compare their expansions;
    (e) the same two tops at the same offsets were split before and walked
        clean: skip the shorter remainder, since it spells the same
        aligned symbols again;
    (f) otherwise split the longer top into its children (not counted).

    (f) remembers the pair it splits, up to MEMO pairs per call.  The pair
    cannot come up again inside the span of its shorter remainder: every
    later pair there holds a strict descendant of one of its two symbols
    (grammars are acyclic) or the shorter side's symbol at a larger
    offset.  A violation inside that span ends the walk, so a remembered
    pair that comes up again was walked clean.  (d) never sees a
    remembered pair, as (f) splits none that (d) takes.

    Residues.  Once the walk has examined as many blocks as there are
    symbols on the right-hand sides reachable from the two roots (each
    side counted apart) without an answer, it looks once for a side that
    is structurally a power B^k, k >= 2, of a base of d <= PERIOD_CAP
    symbols (the shorter base if both are).  If there is one, the check
    decides: per name reachable from the side's root, children first, and
    per symbol x that can violate, a d-bit mask of the residues mod d
    where x occurs, tested against the residues where B holds a symbol x
    is not related to; a hit leads one left-first descent to the least
    witness.  The decision counts as one more block.  The walk's blocks
    cover at most the positions it checked clean, which are fewer than the
    answer needs, so the accounting above still holds; and a violation
    within the first blocks never pays for the masks or the reachable set.
    The result's period is then d.
    """
    if budget < 0:
        raise BadRange(f"budget {format_int(budget)} is negative")
    n = slp.length(p1)
    if n != slp.length(p2):
        raise LengthMismatch(f"lengths {format_int(n)} and {format_int(slp.length(p2))} differ")
    if not p1.alphabet <= relation.alphabet or not p2.alphabet <= relation.alphabet:
        raise ValueError("word alphabets must be contained in the relation's alphabet")
    st, root = slp._Store.holding(relation.alphabet, p1)
    return _walk(st.build(root), st.build(st.imp(p2)), relation, budget)


def _walk(p1: Slp, p2: Slp, relation: SymbolRelation, budget: int) -> CheckResult:
    """comp_slp's walk over two equal-length programs, read where they are
    anchored, in stores over the relation's alphabet; budget >= 0."""
    g1, g2 = _View(*slp._anchor(p1)), _View(*slp._anchor(p2))
    bad = {(x, y) for x in relation.alphabet for y in relation.alphabet
           if not relation.holds(x, y)}
    lens1, masks1, lens2, masks2 = g1.lens, g1.masks, g2.lens, g2.masks
    bad1 = sum(masks1[x] for x in {x for x, _ in bad})
    bad2 = sum(masks2[y] for y in {y for _, y in bad})
    same = g1.st is g2.st
    # the walk's blocks before it looks for a short power: the symbols
    # reachable from the two roots, counted once it has taken as many as
    # the roots' own sides have
    stop = min(budget, sum(len(g.prods.get(g.root, ())) for g in (g1, g2)))
    size = None
    n = lens1[g1.root]
    st1, st2 = [g1.root], [g2.root]
    off1 = off2 = pos = visited = 0
    clean = set()
    while pos < n:
        if visited >= stop:
            if size is None:
                size = sum(len(rhs) for g in (g1, g2) for _, rhs in g.rules)
                stop = min(budget, size)
                continue
            if visited >= budget:
                return CheckResult(BUDGET_EXCEEDED, None, visited, pos)
            plan, stop = _short_power(g1, g2), budget
            if plan is not None:
                d, witness = plan[0], _residue_witness(*plan, bad)
                if witness is None:
                    return CheckResult(HOLDS, None, visited + 1, n, d)
                return CheckResult(FAILS, witness, visited + 1, witness, d)
            continue
        a, b = st1[-1], st2[-1]
        l1, l2 = lens1[a], lens2[b]
        if not masks1[a] & bad1 or same and a == b and off1 == off2:
            step = l1 - off1
        elif not masks2[b] & bad2:
            step = l2 - off2
        elif l1 <= BLOCK and l2 <= BLOCK:
            s1, s2 = g1.st.spell(a, g1.texts)[off1:], g2.st.spell(b, g2.texts)[off2:]
            step = min(len(s1), len(s2))
            if s1[:step] != s2[:step]:
                for i, pair in enumerate(zip(s1, s2)):
                    if pair in bad:
                        return CheckResult(FAILS, pos + i, visited + 1, pos + i)
        elif (key := (a, off1, b, off2)) in clean:
            step = min(l1 - off1, l2 - off2)
        else:
            if len(clean) < MEMO:
                clean.add(key)
            if l2 <= BLOCK or l1 > BLOCK and l1 - off1 >= l2 - off2:
                off1 = _descend(st1, off1, g1)
            else:
                off2 = _descend(st2, off2, g2)
            continue
        visited += 1
        off1 = _advance(st1, off1 + step, lens1)
        off2 = _advance(st2, off2 + step, lens2)
        pos += step
    return CheckResult(HOLDS, None, visited, n)


def partial_word_match(p1: Slp, p2: Slp, budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Positionwise matching of two partial words over {a, b, ?}.

    Positions match when the symbols are equal or either one is the hole.
    The compatibility relation is reflexive but not an order, which is why
    the engine accepts arbitrary reflexive relations.
    """
    for p in (p1, p2):
        if not p.alphabet <= WILDCARD.alphabet:
            raise ValueError("partial words live over the alphabet {a, b, ?}")
    return comp_slp(p1, p2, WILDCARD, budget)


def order_from_literal(text: str) -> PartialOrderSpec:
    """Parse an order literal like "0<=1" (single-character sides)."""
    lhs, sep, rhs = text.partition("<=")
    lhs, rhs = lhs.strip(), rhs.strip()
    if not sep or len(lhs) != 1 or len(rhs) != 1:
        raise ValueError(f"cannot parse order literal {text!r}; expected like '0<=1'")
    return PartialOrderSpec({lhs, rhs}, [(lhs, rhs)])
