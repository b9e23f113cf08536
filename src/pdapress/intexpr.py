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
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(IntExpr):
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("constants must be non-negative")

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Sum(IntExpr):
    left: IntExpr
    right: IntExpr

    def __str__(self):
        return f"({self.left}+{self.right})"


@dataclass(frozen=True)
class Union(IntExpr):
    left: IntExpr
    right: IntExpr

    def __str__(self):
        return f"({self.left}|{self.right})"


@dataclass(frozen=True)
class Double(IntExpr):
    child: IntExpr

    def __str__(self):
        return f"({self.child} x2)"


@dataclass(frozen=True)
class Star(IntExpr):
    child: IntExpr

    def __str__(self):
        return f"({self.child})*"


class _Parser:
    """Recursive descent for:  expr := term ('|' term)*;
    term := factor ('+' factor)*;  factor := atom ('*' | 'x2')*;
    atom := number | '(' expr ')'."""

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

    def expr(self) -> IntExpr:
        node = self.term()
        while self.peek() == "|":
            self.pos += 1
            node = Union(node, self.term())
        return node

    def term(self) -> IntExpr:
        node = self.factor()
        while self.peek() == "+":
            self.pos += 1
            node = Sum(node, self.factor())
        return node

    def factor(self) -> IntExpr:
        node = self.atom()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                node = Star(node)
            elif ch == "x" and self.text[self.pos : self.pos + 2] == "x2":
                self.pos += 2
                node = Double(node)
            else:
                return node

    def atom(self) -> IntExpr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return node
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return Const(int(self.text[start : self.pos]))
        self.error("expected a number or '('")


def parse_expr(text: str) -> IntExpr:
    parser = _Parser(text)
    node = parser.expr()
    if parser.peek():
        parser.error("trailing input")
    return node


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
    if isinstance(expr, Const):
        return 1 << expr.value if expr.value <= bound else 0
    if isinstance(expr, Union):
        return eval_up_to(expr.left, bound) | eval_up_to(expr.right, bound)
    if isinstance(expr, Sum):
        return _sumset(eval_up_to(expr.left, bound), eval_up_to(expr.right, bound), width)
    if isinstance(expr, Double):
        child = eval_up_to(expr.child, bound)
        return _sumset(child, child, width)
    if isinstance(expr, Star):
        members = eval_up_to(expr.child, bound)
        closure = 1  # zero summands
        for v in _bits(members):
            if v == 0:
                continue
            shift = v
            while shift <= bound:
                closure |= (closure << shift) & width
                shift <<= 1
        return closure
    raise TypeError(f"not an expression node: {expr!r}")


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
    """

    productions: tuple[tuple[str, tuple[str, ...]], ...]
    axiom: str

    @property
    def nonterminals(self) -> frozenset[str]:
        return frozenset(lhs for lhs, _ in self.productions)

    def __post_init__(self):
        names = self.nonterminals
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

    def lower(self, expr: IntExpr) -> str:
        if isinstance(expr, Const):
            return self.const(expr.value)
        name = self.fresh()
        if isinstance(expr, Sum):
            self.rule(name, (self.lower(expr.left), self.lower(expr.right)))
        elif isinstance(expr, Union):
            left, right = self.lower(expr.left), self.lower(expr.right)
            self.rule(name, (left,))
            self.rule(name, (right,))
        elif isinstance(expr, Double):
            child = self.lower(expr.child)
            self.rule(name, (child, child))
        elif isinstance(expr, Star):
            child = self.lower(expr.child)
            self.rule(name, ())
            self.rule(name, (child, name))
        else:
            raise TypeError(f"not an expression node: {expr!r}")
        return name


def expr_to_cfg(expr: IntExpr) -> UnaryCfg:
    """Grammar whose language is { a^s : s denoted by the expression }.

    Constants lower to doubling chains, sums to concatenation, unions to
    alternatives, doubling to two copies of one nonterminal, and star to the
    pair N -> empty | child N.
    """
    builder = _CfgBuilder()
    axiom = builder.lower(expr)
    return UnaryCfg(tuple(builder.productions), axiom)


def cfg_membership_unary(g: UnaryCfg, n: int) -> bool:
    """Whether a**n is in the language, by a length-indexed fixpoint.

    The grammar is binarized and freed of empty productions first; then the
    set of derivable lengths (a bitmask up to n) is computed per nonterminal
    with a worklist until stable.
    """
    if n > MAX_MEMBERSHIP:
        raise BoundTooLarge(f"membership length {n} exceeds {MAX_MEMBERSHIP}")
    # binarize
    rules: list[tuple[str, tuple[str, ...]]] = []
    taken = {lhs for lhs, _ in g.productions}
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        while f"B{counter[0]}" in taken:
            counter[0] += 1
        return f"B{counter[0]}"

    for lhs, rhs in g.productions:
        while len(rhs) > 2:
            mid = fresh()
            rules.append((mid, rhs[:2]))
            rhs = (mid,) + rhs[2:]
        rules.append((lhs, rhs))
    # nullable nonterminals, then drop empty productions
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            if lhs not in nullable and all(s in nullable for s in rhs):
                nullable.add(lhs)
                changed = True
    if n == 0:
        return g.axiom in nullable
    stripped: set[tuple[str, tuple[str, ...]]] = set()
    for lhs, rhs in rules:
        if len(rhs) == 2:
            stripped.add((lhs, rhs))
            if rhs[0] in nullable:
                stripped.add((lhs, (rhs[1],)))
            if rhs[1] in nullable:
                stripped.add((lhs, (rhs[0],)))
        elif len(rhs) == 1:
            stripped.add((lhs, rhs))
    # length-indexed fixpoint over bitmasks (positions 1..n)
    width = (1 << (n + 1)) - 1
    masks: dict[str, int] = {}
    by_member: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for rule in sorted(stripped):
        lhs, rhs = rule
        masks.setdefault(lhs, 0)
        for sym in rhs:
            if sym != "a":
                masks.setdefault(sym, 0)
                by_member.setdefault(sym, []).append(rule)

    def value(rule) -> int:
        lhs, rhs = rule
        if rhs == ("a",):
            return 2  # bit 1
        if len(rhs) == 1:
            return masks[rhs[0]]
        left = 2 if rhs[0] == "a" else masks[rhs[0]]
        right = 2 if rhs[1] == "a" else masks[rhs[1]]
        return _sumset(left, right, width)

    work = sorted(stripped)
    while work:
        batch, work = work, []
        touched: set[str] = set()
        for rule in batch:
            lhs = rule[0]
            add = value(rule) & ~masks[lhs]
            if add:
                masks[lhs] |= add
                touched.add(lhs)
        for sym in sorted(touched):
            work.extend(by_member.get(sym, ()))
        work = sorted(set(work))
    return bool(masks.get(g.axiom, 0) >> n & 1)


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
