"""Straight-line programs: acyclic grammars that generate exactly one word.

An :class:`Slp` stores an ordered mapping from nonterminal names to
right-hand sides of arbitrary arity (the empty right-hand side is allowed).
A right-hand-side symbol that is a single character of the alphabet is a
terminal; any other symbol must have its own production.  All word algebra
(concatenation, slicing, powers, cyclic shifts, homomorphic images,
single-symbol trims) works on the grammars directly, without expanding the
generated words, so words of astronomical length stay cheap to manipulate.

Word positions and lengths are plain Python ints throughout; they routinely
exceed machine-word range.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

from .errors import (
    AlphabetMismatch,
    BadRange,
    BadShift,
    CapExceeded,
    EmptyBase,
    EmptyWord,
    FormatError,
    IndexOutOfRange,
    NonIntegralResult,
    SymbolMismatch,
    WordTooLong,
    format_int,
)


class Slp:
    """A straight-line program: alphabet, productions and an axiom.

    Instances are treated as immutable; every operation in this module
    returns a new program.  Construction performs no validation -- run
    :func:`validate` to check the invariants.
    """

    __slots__ = ("alphabet", "productions", "axiom", "_len_cache")

    def __init__(self, alphabet: Iterable[str], productions, axiom: str):
        self.alphabet = frozenset(alphabet)
        items = productions.items() if isinstance(productions, dict) else productions
        self.productions = {name: tuple(rhs) for name, rhs in items}
        self.axiom = axiom
        self._len_cache = None

    def __eq__(self, other):
        return (
            isinstance(other, Slp)
            and self.alphabet == other.alphabet
            and self.productions == other.productions
            and self.axiom == other.axiom
        )

    def __hash__(self):
        return hash((self.alphabet, tuple(self.productions.items()), self.axiom))

    def __repr__(self):
        return f"Slp(axiom={self.axiom!r}, productions={len(self.productions)})"


def validate(p: Slp) -> str | None:
    """Check the Slp invariants; return None if fine, else a diagnostic.

    The diagnostic names the first violated invariant and the offending
    symbol: alphabet symbols must be single characters, nonterminal names
    must not collide with the alphabet or be `eps` (the text format's empty
    right-hand side), every mentioned nonterminal needs a production
    (including the axiom), and the mention relation must be acyclic.
    """
    for sym in sorted(p.alphabet):
        if len(sym) != 1:
            return f"alphabet symbol {sym!r} is not a single character"
    for name in p.productions:
        if name in p.alphabet:
            return f"nonterminal {name} collides with the alphabet"
        if name == "eps":
            return "nonterminal name eps is reserved for the empty right-hand side"
    if p.axiom not in p.productions:
        return f"missing production {p.axiom}"
    for name, rhs in p.productions.items():
        for sym in rhs:
            if sym not in p.alphabet and sym not in p.productions:
                return f"missing production {sym}"
    try:
        _toposort(p, p.productions)
    except ValueError as err:
        return str(err)
    return None


def _toposort(p: Slp | _Store, roots) -> list[str]:
    """Children-first order of the productions reachable from roots, in a
    program or a store; a cycle raises ValueError("cycle at X").

    A right-hand side wider than two symbols is stepped over its distinct
    symbols only, so a long literal costs one pass at C speed.
    """
    prods = p.productions
    done = set(p.alphabet)  # terminals count as finished
    order: list[str] = []

    def frame(name):
        rhs = prods[name]
        return name, rhs if len(rhs) < 3 else tuple(dict.fromkeys(rhs)), 0

    for root in roots:
        if root in done:
            continue
        stack = [frame(root)]
        on_stack = {root}
        while stack:
            name, kids, i = stack[-1]
            while i < len(kids):
                child = kids[i]
                i += 1
                if child in done:
                    continue
                if child in on_stack:
                    raise ValueError(f"cycle at {child}")
                stack[-1] = (name, kids, i)
                stack.append(frame(child))
                on_stack.add(child)
                break
            else:
                stack.pop()
                on_stack.discard(name)
                done.add(name)
                order.append(name)
    return order


def _all_lengths(p: Slp) -> dict[str, int]:
    if p._len_cache is None:
        lens = dict.fromkeys(p.alphabet, 1)
        for name in _toposort(p, p.productions.keys()):
            lens[name] = sum(map(lens.__getitem__, p.productions[name]))
        for sym in p.alphabet:
            del lens[sym]
        p._len_cache = lens
    return p._len_cache


def length(p: Slp) -> int:
    """Length of the generated word, computed bottom-up without expansion."""
    return _all_lengths(p)[p.axiom]


def expand(p: Slp, cap: int) -> str:
    """The generated word itself, provided it is no longer than cap."""
    n = length(p)
    if n > cap:
        raise CapExceeded(n)
    words: dict[str, str] = {}
    for name in _toposort(p, [p.axiom]):
        words[name] = "".join(
            s if s in p.alphabet else words[s] for s in p.productions[name]
        )
    return words[p.axiom]


def query(p: Slp, n: int) -> str:
    """The n-th symbol (0-indexed) of the generated word, by length-guided descent."""
    if not 0 <= n < length(p):
        raise IndexOutOfRange(
            f"position {format_int(n)} outside word of length {format_int(length(p))}")
    lens = _all_lengths(p)
    sym = p.axiom
    while sym not in p.alphabet:
        for child in p.productions[sym]:
            k = 1 if child in p.alphabet else lens[child]
            if n < k:
                sym = child
                break
            n -= k
    return sym


def first_symbol(p: Slp) -> str:
    return query(p, 0)


def last_symbol(p: Slp) -> str:
    return query(p, length(p) - 1)


def count(p: Slp, symbol: str) -> int:
    """Number of occurrences of a terminal in the generated word."""
    counts: dict[str, int] = {}
    for name in _toposort(p, [p.axiom]):
        counts[name] = sum(
            (1 if s == symbol else 0) if s in p.alphabet else counts[s]
            for s in p.productions[name]
        )
    return counts[p.axiom]


def literal(word: str, alphabet: Iterable[str] | None = None) -> Slp:
    """A one-production program generating exactly the given word."""
    return Slp(set(word) if alphabet is None else alphabet, {"S": tuple(word)}, "S")


class _Store:
    """Mutable production store used to assemble derived programs.

    Names are generated fresh; identical right-hand sides are merged, and a
    right-hand side consisting of a single nonterminal collapses to that
    nonterminal, so chain productions never materialize.  Importing a
    program a second time therefore maps it to the same names and adds no
    production, which keeps repeated self-composition (as in the
    hardness-instance generators) polynomial in size.
    """

    def __init__(self, alphabet: Iterable[str]):
        self.alphabet = frozenset(alphabet)
        self.productions: dict[str, tuple[str, ...]] = {}
        self.lengths: dict[str, int] = {}
        self._memo: dict[tuple[str, ...], str] = {}
        self._next = 0

    def sym_length(self, sym: str) -> int:
        return 1 if sym in self.alphabet else self.lengths[sym]

    def add(self, rhs) -> str:
        rhs = tuple(rhs)
        if len(rhs) == 1 and rhs[0] not in self.alphabet:
            return rhs[0]
        name = self._memo.get(rhs)
        if name is None:
            self._next += 1
            name = f"n{self._next}"
            self.productions[name] = rhs
            self.lengths[name] = sum(self.sym_length(s) for s in rhs)
            self._memo[rhs] = name
        return name

    def imp(self, p: Slp, termmap: Mapping[str, str] | None = None) -> str:
        """Copy p's reachable productions in; return the local name for its word.

        With termmap, every terminal is replaced by its image word on the
        way in (the image must use this store's alphabet).
        """
        mapping: dict[str, str] = {}
        for name in _toposort(p, [p.axiom]):
            parts: list[str] = []
            for s in p.productions[name]:
                if s in p.alphabet:
                    if termmap is None:
                        parts.append(s)
                    else:
                        parts.extend(termmap[s])
                else:
                    parts.append(mapping[s])
            mapping[name] = self.add(parts)
        return mapping[p.axiom]

    def build(self, axiom_sym: str) -> Slp:
        """Extract the grammar reachable from axiom_sym as a canonical Slp.

        Productions are renamed N0, N1, ... in first-visit order with the
        axiom first, so equal builds give byte-identical programs.  The
        program starts with the lengths the store already knows.
        """
        if axiom_sym in self.alphabet:
            axiom_sym = self.add((axiom_sym,))
        names = {axiom_sym: "N0"}
        order = [axiom_sym]
        queue = [axiom_sym]
        while queue:
            cur = queue.pop()
            for s in self.productions[cur]:
                if s not in self.alphabet and s not in names:
                    names[s] = f"N{len(names)}"
                    order.append(s)
                    queue.append(s)
        prods = {
            names[n]: tuple(s if s in self.alphabet else names[s] for s in self.productions[n])
            for n in order
        }
        p = Slp(self.alphabet, prods, "N0")
        p._len_cache = {names[n]: self.lengths[n] for n in order}
        return p


def _take_sym(st: _Store, sym: str, k: int) -> str:
    """Name for the first k symbols of sym's word.

    Iterative along the grammar spine: grammars can be deeper than the
    interpreter's recursion budget.
    """
    spine: list[list[str]] = []  # fully kept prefix children, outermost first
    while 0 < k < st.sym_length(sym):
        kept: list[str] = []
        child = sym
        for child in st.productions[sym]:
            n = st.sym_length(child)
            if n > k:
                break
            kept.append(child)
            k -= n
        spine.append(kept)
        sym = child
    if k:
        cur = sym
    elif spine:  # the cut ends on a child boundary: close the innermost level
        cur = st.add(spine.pop())
    else:
        cur = st.add(())
    for kept in reversed(spine):
        cur = st.add((*kept, cur))
    return cur


def _drop_sym(st: _Store, sym: str, k: int) -> str:
    """Name for sym's word with the first k symbols removed (iterative)."""
    spine: list[tuple[str, ...]] = []  # fully kept suffix children per level
    while 0 < k < st.sym_length(sym):
        rhs = st.productions[sym]
        i = 0
        for i, child in enumerate(rhs):
            n = st.sym_length(child)
            if k < n:
                break
            k -= n
        spine.append(rhs[i + 1:])
        sym = rhs[i]
    cur = st.add(()) if k else sym
    for rest in reversed(spine):
        cur = st.add((cur, *rest))
    return cur


def _pow_sym(st: _Store, sym: str, k: int) -> str:
    """Name for the k-th power of sym's word, by binary doubling."""
    if k == 0:
        return st.add(())
    acc = None
    cur = sym
    while k:
        if k & 1:
            acc = cur if acc is None else st.add((acc, cur))
        k >>= 1
        if k:
            cur = st.add((cur, cur))
    return st.add((acc,)) if acc in st.alphabet else acc


def concat(p1: Slp, p2: Slp) -> Slp:
    """Program generating str(p1) followed by str(p2)."""
    if p1.alphabet != p2.alphabet:
        raise AlphabetMismatch(f"{sorted(p1.alphabet)} vs {sorted(p2.alphabet)}")
    st = _Store(p1.alphabet)
    return st.build(st.add((st.imp(p1), st.imp(p2))))


def slice(p: Slp, a: int, b: int) -> Slp:  # noqa: A001 - deliberate, matches the operation
    """Program generating the subword at positions [a, b)."""
    n = length(p)
    if not 0 <= a <= b <= n:
        raise BadRange(f"[{format_int(a)}, {format_int(b)}) not within [0, {format_int(n)})")
    st = _Store(p.alphabet)
    return st.build(_take_sym(st, _drop_sym(st, st.imp(p), a), b - a))


def power(p: Slp, num: int, den: int = 1) -> Slp:
    """Program for str(p) raised to num/den, which must yield a whole word.

    Fractional exponents follow w**(k + r/|w|) = w**k . w[0, r): built with
    logarithmically many doublings plus one slice.
    """
    if den < 1 or num < 0:
        raise BadRange(f"exponent {format_int(num)}/{format_int(den)} out of range")
    n = length(p)
    if n == 0:
        raise EmptyBase("cannot raise the empty word to a power")
    total = num * n
    if total % den:
        raise NonIntegralResult(
            f"({format_int(num)}/{format_int(den)}) * {format_int(n)} is not an integer")
    whole, rest = divmod(total // den, n)
    st = _Store(p.alphabet)
    ax = st.imp(p)
    parts = []
    if whole:
        parts.append(_pow_sym(st, ax, whole))
    if rest:
        parts.append(_take_sym(st, ax, rest))
    return st.build(st.add(parts))


def cyclic_shift(p: Slp, s: int) -> Slp:
    """Program for w[s, |w|) . w[0, s)."""
    n = length(p)
    if n < 1 or not 0 <= s < n:
        raise BadShift(f"shift {format_int(s)} invalid for word of length {format_int(n)}")
    st = _Store(p.alphabet)
    ax = st.imp(p)
    return st.build(st.add((_drop_sym(st, ax, s), _take_sym(st, ax, s))))


def substitute(p: Slp, images: Mapping[str, str], alphabet: Iterable[str] | None = None) -> Slp:
    """Homomorphic image: every terminal is replaced by its image word.

    The target alphabet defaults to the union of the image words' symbols.
    """
    missing = p.alphabet - images.keys()
    if missing:
        raise KeyError(f"no image for terminal(s) {sorted(missing)}")
    if alphabet is None:
        alphabet = {ch for sym in p.alphabet for ch in images[sym]}
    st = _Store(alphabet)
    return st.build(st.imp(p, termmap=images))


def trim(p: Slp, end: str, symbol: str) -> Slp:
    """Remove one symbol from the chosen end ("front" or "back").

    The symbol actually there must equal the expected one.
    """
    if end not in ("front", "back"):
        raise ValueError(f"end must be 'front' or 'back', not {end!r}")
    n = length(p)
    if n == 0:
        raise EmptyWord("cannot trim the empty word")
    found = query(p, 0 if end == "front" else n - 1)
    if found != symbol:
        raise SymbolMismatch(f"{end} symbol is {found!r}, expected {symbol!r}")
    return slice(p, 1, n) if end == "front" else slice(p, 0, n - 1)


def _cnf(g: Slp | _Store, root: str, st: _Store) -> str | None:
    """Name in st for root's word of the grammar g in Chomsky normal form;
    None for the empty word.

    Empty and chain productions are eliminated, longer right-hand sides are
    binarized by a left fold, and terminal wrappers are shared, so the result
    is deterministic.
    """
    mapping: dict[str, str | None] = {s: st.add((s,)) for s in g.alphabet}
    for name in _toposort(g, [root]):
        parts = [m for m in map(mapping.__getitem__, g.productions[name]) if m]
        cur = parts[0] if parts else None
        for nxt in parts[1:]:
            cur = st.add((cur, nxt))
        mapping[name] = cur
    return mapping[root]


def to_cnf(p: Slp) -> Slp:
    """Equivalent program in Chomsky normal form (see _cnf)."""
    st = _Store(p.alphabet)
    root = _cnf(p, p.axiom, st)
    if root is None:
        raise EmptyWord("the empty word has no Chomsky normal form")
    return st.build(root)


def size(p: Slp) -> int:
    """Number of nonterminals in the Chomsky normal form; 0 for the empty word."""
    if length(p) == 0:
        return 0
    return len(to_cnf(p).productions)


# Exponents e of the Mersenne primes 2**e - 1 (OEIS A000043) above 64.
_MERSENNE = (89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
             9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049,
             216091)


def _fingerprint(p: Slp, digits: Mapping[str, int], base: int, mod: int) -> int:
    """Generated word read as a number in the given base, modulo mod."""
    # per nonterminal: (value, base ** length) modulo mod, bottom-up
    vals: dict[str, tuple[int, int]] = {s: (d, base) for s, d in digits.items()}
    for name in _toposort(p, [p.axiom]):
        v, w = 0, 1
        for s in p.productions[name]:
            sv, sw = vals[s]
            v = (v * sw + sv) % mod
            w = w * sw % mod
        vals[name] = (v, w)
    return vals[p.axiom][0]


def equal(p1: Slp, p2: Slp, *, exact_threshold: int = 4096, seed: int = 0) -> bool:
    """Whether both programs generate the same word.

    Lengths are compared first; words up to exact_threshold are expanded and
    compared exactly.  A longer word of length n is read as a polynomial of
    degree below n, one coefficient per symbol, and both polynomials are
    evaluated at one point r drawn by `seed` from [2, P), modulo the Mersenne
    prime P = 2**e - 1 for the least tabled e >= n.bit_length() + 64
    (Schwartz 1980).  Two different words differ by a nonzero polynomial
    with fewer than n roots, so the error is one-sided: False is always
    correct, and True is wrong with probability below 2**-64 at every
    length.  A word too long for the table raises WordTooLong, and a
    negative exact_threshold raises BadRange.
    """
    if exact_threshold < 0:
        raise BadRange(f"expansion cap {format_int(exact_threshold)} is negative")
    if p1.alphabet != p2.alphabet:
        raise AlphabetMismatch(f"{sorted(p1.alphabet)} vs {sorted(p2.alphabet)}")
    n = length(p1)
    if n != length(p2):
        return False
    if n <= exact_threshold:
        return expand(p1, n) == expand(p2, n)
    e = next((e for e in _MERSENNE if e >= n.bit_length() + 64), None)
    if e is None:
        raise WordTooLong(n)
    mod = (1 << e) - 1
    digits = {sym: i for i, sym in enumerate(sorted(p1.alphabet))}
    r = random.Random(seed).randrange(2, mod)
    return _fingerprint(p1, digits, r, mod) == _fingerprint(p2, digits, r, mod)


def parse_slp(text: str) -> Slp:
    """Parse the .slp text format.

    First content line is `alphabet: <chars>`; each further line is
    `N -> tok tok ...` with `eps` denoting the empty right-hand side.
    `#` starts a comment.  The first production's left-hand side is the axiom.
    A program that breaks an invariant of :func:`validate` (a missing
    production, a cycle, ...) is a FormatError too.
    """
    alphabet: frozenset[str] | None = None
    productions: list[tuple[str, tuple[str, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if alphabet is None:
            if not line.startswith("alphabet:"):
                raise FormatError(f"line {lineno}: expected 'alphabet:' header")
            chars = line[len("alphabet:"):].strip()
            if any(ch.isspace() for ch in chars):
                raise FormatError(f"line {lineno}: alphabet must be concatenated characters")
            alphabet = frozenset(chars)
            continue
        parts = line.split()
        if len(parts) < 3 or parts[1] != "->":
            raise FormatError(f"line {lineno}: expected 'N -> tok ...'")
        name = parts[0]
        rhs = () if parts[2:] == ["eps"] else tuple(parts[2:])
        productions.append((name, rhs))
    if alphabet is None:
        raise FormatError("missing 'alphabet:' header")
    if not productions:
        raise FormatError("no productions")
    p = Slp(alphabet, productions, productions[0][0])
    problem = validate(p)
    if problem is not None:
        raise FormatError(problem)
    return p


def format_slp(p: Slp) -> str:
    """Render in the .slp text format (axiom production first)."""
    lines = ["alphabet: " + "".join(sorted(p.alphabet))]
    names = [p.axiom] + [n for n in p.productions if n != p.axiom]
    for name in names:
        rhs = p.productions[name]
        lines.append(f"{name} -> " + (" ".join(rhs) if rhs else "eps"))
    return "\n".join(lines) + "\n"
