"""Componentwise comparison of equal-length compressed words.

The engine walks both grammars in lockstep over aligned blocks and reports
the least position where the symbol relation fails.  A block is skipped
whole when its symbols cannot take part in a violation, or when both sides
are the same nonterminal of the same program at the same offset; short
blocks are compared as expanded strings.  The problem is coNP-complete for
any relation beyond equality, so the work is bounded by an explicit budget
of blocks examined -- never more than the positions the blocks cover --
and running out of it is an ordinary, reportable outcome rather than
nontermination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, groupby
from typing import Iterable

from . import slp
from .errors import LengthMismatch, format_int
from .slp import Slp

DEFAULT_BUDGET = 1 << 22

HOLDS = "holds"
FAILS = "fails"
BUDGET_EXCEEDED = "budget_exceeded"

# Blocks at most this long are compared as expanded strings; longer ones
# are split into their children.
BLOCK = 64


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a positionwise check: holds, fails(witness) or budget out.

    visited counts the aligned blocks examined.  checked is the length of
    the prefix known to be free of violations: the whole word when the
    check holds, the witness when it fails, and how far the walk got when
    the budget ran out.  Neither takes part in equality.
    """

    verdict: str
    witness: int | None = None
    visited: int = field(default=0, compare=False)
    checked: int = field(default=0, compare=False)

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
    """One program as the block walk sees it.

    Keys are nonterminal names, terminals, and ints naming chunks of at
    most BLOCK consecutive terminals of one right-hand side, so that a wide
    literal production is walked a chunk, not a position, at a time.
    """

    def __init__(self, p: Slp, bits: dict[str, int]):
        self.prods = p.productions
        self.alphabet = p.alphabet
        self.lens = lens = {**slp._all_lengths(p), **dict.fromkeys(p.alphabet, 1)}
        self.masks = {t: bits[t] for t in p.alphabet}
        self.texts = {t: t for t in p.alphabet}
        for name in slp._toposort(p, [p.axiom]):
            rhs = self.prods[name]
            self.masks[name] = self._mask(rhs)
            if lens[name] <= BLOCK:
                self.texts[name] = "".join(map(self.texts.__getitem__, rhs))
        self._kids: dict[str, list] = {}
        self._fresh = count()

    def _mask(self, syms) -> int:
        mask = 0
        for sym in set(syms):
            mask |= self.masks[sym]
        return mask

    def children(self, sym: str) -> list:
        """sym's right-hand side with terminal runs chunked, reversed for a stack."""
        kids = self._kids.get(sym)
        if kids is None:
            kids = []
            for terminal, group in groupby(self.prods[sym], self.alphabet.__contains__):
                if not terminal:
                    kids.extend(group)
                    continue
                run = "".join(group)
                for i in range(0, len(run), BLOCK):
                    chunk = run[i:i + BLOCK]
                    if len(chunk) > 1:
                        key = next(self._fresh)
                        self.lens[key] = len(chunk)
                        self.masks[key] = self._mask(chunk)
                        self.texts[key] = chunk
                        chunk = key
                    kids.append(chunk)
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
    that covers the positions up to the answer also covers its blocks.

    Both sides keep a stack of pending symbols and an offset into the top
    one.  At each step the first rule that fits decides the two tops:

    (a) every symbol of the left block is related to every symbol: skip it;
    (b) every symbol is related to every symbol of the right block: skip it;
    (c) equal programs, same top symbol at the same offset: skip it, since
        the relation is reflexive;
    (d) both blocks at most BLOCK long: compare their expansions;
    (e) otherwise split the longer top into its children (not counted).
    """
    n = slp.length(p1)
    if n != slp.length(p2):
        raise LengthMismatch(f"lengths {format_int(n)} and {format_int(slp.length(p2))} differ")
    if not p1.alphabet <= relation.alphabet or not p2.alphabet <= relation.alphabet:
        raise ValueError("word alphabets must be contained in the relation's alphabet")
    bits = {x: 1 << i for i, x in enumerate(sorted(relation.alphabet))}
    bad = {(x, y) for x in relation.alphabet for y in relation.alphabet
           if not relation.holds(x, y)}
    bad1 = sum(bits[x] for x in {x for x, _ in bad})
    bad2 = sum(bits[y] for y in {y for _, y in bad})
    g1 = _View(p1, bits)
    g2 = g1 if p1 == p2 else _View(p2, bits)
    same = g1 is g2
    lens1, masks1, lens2, masks2 = g1.lens, g1.masks, g2.lens, g2.masks
    st1, st2 = [p1.axiom], [p2.axiom]
    off1 = off2 = pos = visited = 0
    while pos < n:
        if visited >= budget:
            return CheckResult(BUDGET_EXCEEDED, None, visited, pos)
        a, b = st1[-1], st2[-1]
        l1, l2 = lens1[a], lens2[b]
        if not masks1[a] & bad1 or same and a == b and off1 == off2:
            step = l1 - off1
        elif not masks2[b] & bad2:
            step = l2 - off2
        elif l1 <= BLOCK and l2 <= BLOCK:
            s1, s2 = g1.texts[a][off1:], g2.texts[b][off2:]
            step = min(len(s1), len(s2))
            if s1[:step] != s2[:step]:
                for i, pair in enumerate(zip(s1, s2)):
                    if pair in bad:
                        return CheckResult(FAILS, pos + i, visited + 1, pos + i)
        elif l2 <= BLOCK or l1 > BLOCK and l1 - off1 >= l2 - off2:
            off1 = _descend(st1, off1, g1)
            continue
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
