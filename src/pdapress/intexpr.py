"""Integer expressions over +, union, doubling and star, with bounded
semantics and a lowering to unary context-free grammars.

An expression denotes a set of naturals.  Sets are handled as bitmasks (a
Python int with bit v set iff v belongs), truncated to a caller-supplied
bound; sums become shifted ors, star becomes an unbounded-knapsack closure.
Exact universality is deliberately out of reach here -- only the bounded
check is offered, and generators that know a sufficient bound supply it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundTooLarge, ExprSyntaxError, FormatError

MAX_EVAL_BOUND = 1 << 26
MAX_MEMBERSHIP = 1 << 20


class IntExpr:
    """Base class for expression nodes.

    `_kids` names a node's children, left to right; `_pieces` is the text
    printed before the first child, between children and after the last.
    """

    __slots__ = ()
    _kids: tuple[str, ...] = ()

    def __str__(self):
        return "".join(node._pieces[i] if node._kids else str(node.value)
                       for node, i in _walk(self))


def _walk(expr: IntExpr):
    """Depth-first visits (node, i), children left to right: i = 0 on
    entering, i = k after the node's k-th child is done, so a node with k
    children is left at i = k (a constant is entered and left at once).
    The stack is explicit, so depth is not limited."""
    stack = [(expr, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        visit = pop()
        yield visit
        node, i = visit
        kids = node._kids
        if i < len(kids):
            push((node, i + 1))
            push((getattr(node, kids[i]), 0))


@dataclass(frozen=True, slots=True)
class Const(IntExpr):
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("constants must be non-negative")


@dataclass(frozen=True, slots=True)
class Sum(IntExpr):
    left: IntExpr
    right: IntExpr
    _kids = ("left", "right")
    _pieces = ("(", "+", ")")


@dataclass(frozen=True, slots=True)
class Union(IntExpr):
    left: IntExpr
    right: IntExpr
    _kids = ("left", "right")
    _pieces = ("(", "|", ")")


@dataclass(frozen=True, slots=True)
class Double(IntExpr):
    child: IntExpr
    _kids = ("child",)
    _pieces = ("(", " x2)")


@dataclass(frozen=True, slots=True)
class Star(IntExpr):
    child: IntExpr
    _kids = ("child",)
    _pieces = ("(", ")*")


class _Parser:
    """One loop for:  expr := term ('|' term)*;
    term := factor ('+' factor)*;  factor := atom ('*' | 'x2')*;
    atom := number | '(' expr ')'.

    An opening parenthesis saves the union and the sum it interrupts on an
    explicit stack, so nesting depth is not limited."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def number(self) -> IntExpr:
        if not self.peek().isdigit():
            self.error("expected a number or '('")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return Const(int(self.text[start : self.pos]))

    def parse(self) -> IntExpr:
        outer: list[tuple[IntExpr | None, IntExpr | None]] = []
        union = total = None  # the alternatives and the summands read at this depth
        while True:
            if self.peek() == "(":
                self.pos += 1
                outer.append((union, total))
                union = total = None
                continue
            node = self.number()
            while True:  # node is an atom: apply postfixes, then fold it in
                while True:
                    ch = self.peek()
                    if ch == "*":
                        self.pos += 1
                        node = Star(node)
                    elif ch == "x" and self.text[self.pos : self.pos + 2] == "x2":
                        self.pos += 2
                        node = Double(node)
                    else:
                        break
                total = node if total is None else Sum(total, node)
                if ch == "+":
                    break
                union = total if union is None else Union(union, total)
                total = None
                if ch == "|":
                    break
                if not outer:
                    if ch:
                        self.error("trailing input")
                    return union
                if ch != ")":
                    self.error("expected ')'")
                self.pos += 1
                node = union
                union, total = outer.pop()
            self.pos += 1


def parse_expr(text: str) -> IntExpr:
    return _Parser(text).parse()


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sumset(m1: int, m2: int, width: int) -> int:
    if not m1 or not m2:
        return 0
    if m2.bit_count() > m1.bit_count():
        m1, m2 = m2, m1
    out = 0
    for v in _bits(m2):
        out |= m1 << v
    return out & width


def eval_up_to(expr: IntExpr, bound: int) -> int:
    """Bitmask of the denoted set intersected with [0, bound]."""
    if bound > MAX_EVAL_BOUND:
        raise BoundTooLarge(f"bound {bound} exceeds {MAX_EVAL_BOUND}")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    width = (1 << (bound + 1)) - 1
    values: list[int] = []  # masks of the finished children of open nodes
    for node, i in _walk(expr):
        kind = type(node)
        if kind is Const:
            values.append(1 << node.value if node.value <= bound else 0)
        elif i < len(node._kids):
            continue
        elif kind is Union:
            right = values.pop()
            values[-1] |= right
        elif kind is Sum:
            right = values.pop()
            values[-1] = _sumset(values[-1], right, width)
        elif kind is Double:
            values[-1] = _sumset(values[-1], values[-1], width)
        else:  # star: an unbounded-knapsack closure
            closure = 1  # zero summands
            for v in _bits(values[-1]):
                shift = v
                while 0 < shift <= bound:
                    closure |= (closure << shift) & width
                    shift <<= 1
            values[-1] = closure
    return values[0]


def members_up_to(expr: IntExpr, bound: int) -> list[int]:
    """The denoted naturals up to the bound, as a sorted list."""
    return list(_bits(eval_up_to(expr, bound)))


def universal_up_to(expr: IntExpr, bound: int) -> int | None:
    """None if every natural in [0, bound] is denoted, else the least missing."""
    missing = ~eval_up_to(expr, bound) & ((1 << (bound + 1)) - 1)
    if not missing:
        return None
    return (missing & -missing).bit_length() - 1


@dataclass(frozen=True)
class UnaryCfg:
    """Context-free grammar over the single terminal 'a'.

    productions is a tuple of (nonterminal, right-hand side) entries; a
    nonterminal may have several, and empty right-hand sides are allowed.
    The name `eps` is reserved: the text format writes it for the empty
    right-hand side.
    """

    productions: tuple[tuple[str, tuple[str, ...]], ...]
    axiom: str

    @property
    def nonterminals(self) -> frozenset[str]:
        return frozenset(lhs for lhs, _ in self.productions)

    def __post_init__(self):
        names = self.nonterminals
        if "eps" in names:
            raise ValueError("nonterminal name eps is reserved for the empty right-hand side")
        if self.axiom not in names:
            raise ValueError(f"axiom {self.axiom} has no production")
        for lhs, rhs in self.productions:
            for sym in rhs:
                if sym != "a" and sym not in names:
                    raise ValueError(f"{lhs}: unknown symbol {sym} on the right-hand side")


class _CfgBuilder:
    def __init__(self):
        self.productions: list[tuple[str, tuple[str, ...]]] = []
        self._n = 0

    def fresh(self) -> str:
        self._n += 1
        return f"E{self._n}"

    def rule(self, lhs: str, rhs: tuple[str, ...]):
        self.productions.append((lhs, rhs))

    def const(self, value: int) -> str:
        """Nonterminal for a^value: a doubling chain over the binary digits."""
        if value == 0:
            name = self.fresh()
            self.rule(name, ())
            return name
        one = self.fresh()
        self.rule(one, ("a",))
        acc = one
        for bit in bin(value)[3:]:  # binary digits after the leading 1
            nxt = self.fresh()
            self.rule(nxt, (acc, acc, one) if bit == "1" else (acc, acc))
            acc = nxt
        return acc


def expr_to_cfg(expr: IntExpr) -> UnaryCfg:
    """Grammar whose language is { a^s : s denoted by the expression }.

    Constants lower to doubling chains, sums to concatenation, unions to
    alternatives, doubling to two copies of one nonterminal, and star to the
    pair N -> empty | child N.  A node's name is taken on entering it and
    its rules are written on leaving, after its children's.
    """
    builder = _CfgBuilder()
    names: list[str] = []  # each open node's name, then its finished children
    for node, i in _walk(expr):
        kind = type(node)
        if kind is Const:
            names.append(builder.const(node.value))
        elif i == 0:
            names.append(builder.fresh())
        elif i == len(node._kids):
            children = tuple(names[-i:])
            del names[-i:]
            name = names[-1]
            if kind is Sum:
                builder.rule(name, children)
            elif kind is Union:
                builder.rule(name, children[:1])
                builder.rule(name, children[1:])
            elif kind is Double:
                builder.rule(name, (children[0], children[0]))
            else:
                builder.rule(name, ())
                builder.rule(name, (children[0], name))
    return UnaryCfg(tuple(builder.productions), names[0])


def cfg_membership_unary(g: UnaryCfg, n: int) -> bool:
    """Whether a**n is in the language, by a least fixpoint over length masks.

    Each nonterminal has a bitmask of the lengths up to n it derives, bit 0
    standing for the empty word; a production's mask is the sumset of its
    symbols' masks, and passes over the productions repeat until no mask
    grows.
    """
    if n > MAX_MEMBERSHIP:
        raise BoundTooLarge(f"membership length {n} exceeds {MAX_MEMBERSHIP}")
    width = (1 << (n + 1)) - 1
    masks: dict[str | None, int] = dict.fromkeys(g.nonterminals, 0)
    masks[None] = 2  # the terminal: the length 1 only
    rules = [(lhs, [None if sym == "a" else sym for sym in rhs]) for lhs, rhs in g.productions]
    grew = True
    while grew:
        grew = False
        for lhs, rhs in rules:
            mask = 1
            for sym in rhs:
                mask = _sumset(mask, masks[sym], width)
            if mask & ~masks[lhs]:
                masks[lhs] |= mask
                grew = True
    return bool(masks[g.axiom] >> n & 1)


def parse_cfg(text: str) -> UnaryCfg:
    """Parse the .cfg format: `terminal: a` header, then `N -> ...` lines
    (repeating a left-hand side adds an alternative; `eps` is the empty
    right-hand side; the first line's left-hand side is the axiom)."""
    seen_header = False
    productions: list[tuple[str, tuple[str, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not seen_header:
            if line.replace(" ", "") != "terminal:a":
                raise FormatError(f"line {lineno}: expected 'terminal: a' header")
            seen_header = True
            continue
        parts = line.split()
        if len(parts) < 3 or parts[1] != "->":
            raise FormatError(f"line {lineno}: expected 'N -> tok ...'")
        rhs = () if parts[2:] == ["eps"] else tuple(parts[2:])
        productions.append((parts[0], rhs))
    if not productions:
        raise FormatError("no productions")
    return UnaryCfg(tuple(productions), productions[0][0])


def format_cfg(g: UnaryCfg) -> str:
    lines = ["terminal: a"]
    ordered = [p for p in g.productions if p[0] == g.axiom]
    ordered += [p for p in g.productions if p[0] != g.axiom]
    for lhs, rhs in ordered:
        lines.append(f"{lhs} -> " + (" ".join(rhs) if rhs else "eps"))
    return "\n".join(lines) + "\n"
