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
    :func:`validate` to check the invariants.  Readers read the program's
    anchor, a name in a grammar store (see _anchor); a program the library
    builds makes its canonical productions when they are first read.
    """

    __slots__ = ("alphabet", "_prods", "axiom", "_st", "_root")

    def __init__(self, alphabet: Iterable[str], productions, axiom: str):
        self.alphabet = frozenset(alphabet)
        items = productions.items() if isinstance(productions, dict) else productions
        self._prods = {name: tuple(rhs) for name, rhs in items}
        self.axiom = axiom
        self._st = self._root = None

    @property
    def productions(self) -> dict[str, tuple[str, ...]]:
        if self._prods is None:
            self._prods = self._st.canonical(self._root)
        return self._prods

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
        _anchor(p)
    except ValueError as err:
        return str(err)
    return None


def _toposort(p: Slp, roots) -> list[str]:
    """Children-first order of the productions reachable from roots; a
    cycle raises ValueError("cycle at X").

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


def _anchor(p: Slp) -> tuple[_Store, str]:
    """The store and the name of p's word.  A program given as productions
    is anchored on first use: ordered children first, which finds any cycle
    (ValueError), and written in that order into a store of its own."""
    if p._st is None:
        st, names = _Store(p.alphabet), {}
        for name in _toposort(p, p._prods):
            rhs = p._prods[name]
            names[name] = st.add(map(names.get, rhs, rhs))  # a terminal is itself
        p._st, p._root = st, names[p.axiom]
    return p._st, p._root


def length(p: Slp) -> int:
    """Length of the generated word, computed bottom-up without expansion."""
    st, root = _anchor(p)
    return st.lengths[root]


def expand(p: Slp, cap: int) -> str:
    """The generated word itself, provided it is no longer than cap."""
    st, root = _anchor(p)
    if st.lengths[root] > cap:
        raise CapExceeded(st.lengths[root])
    return st.spell(root, {t: t for t in st.alphabet})


def query(p: Slp, n: int) -> str:
    """The n-th symbol (0-indexed) of the generated word, by length-guided descent."""
    st, sym = _anchor(p)
    lens = st.lengths
    if not 0 <= n < lens[sym]:
        raise IndexOutOfRange(
            f"position {format_int(n)} outside word of length {format_int(lens[sym])}")
    while sym not in st.alphabet:
        for sym in st.productions[sym]:
            if n < lens[sym]:
                break
            n -= lens[sym]
    return sym


def first_symbol(p: Slp) -> str:
    st, root = _anchor(p)
    return st.first[root] or query(p, 0)  # the empty word: query raises


def last_symbol(p: Slp) -> str:
    st, root = _anchor(p)
    return st.last[root] or query(p, -1)  # the empty word: query raises


def count(p: Slp, symbol: str) -> int:
    """Number of occurrences of a terminal in the generated word."""
    st, root = _anchor(p)
    counts = {t: int(t == symbol) for t in st.alphabet}
    for name, rhs in st.rules(root):
        counts[name] = sum(map(counts.__getitem__, rhs))
    return counts[root]


def literal(word: str, alphabet: Iterable[str] | None = None) -> Slp:
    """A one-production program generating exactly the given word."""
    return Slp(set(word) if alphabet is None else alphabet, {"S": tuple(word)}, "S")


class _Store:
    """Append-only production store used to assemble derived programs.

    Names are generated fresh; identical right-hand sides are merged, and a
    right-hand side consisting of a single nonterminal collapses to that
    nonterminal, so chain productions never materialize.  Importing a
    program a second time therefore maps it to the same names and adds no
    production, which keeps repeated self-composition (as in the
    hardness-instance generators) polynomial in size.  A name is added
    after its children, so creation order is children first.

    `add` keeps each name's facts beside its rule, as every terminal's are
    kept: `lengths`, `masks` (the terminal set as bits over the sorted
    alphabet), and the `first` and `last` terminal (None for the empty word).
    """

    def __init__(self, alphabet: Iterable[str]):
        self.alphabet = frozenset(alphabet)
        self.productions: dict[str, tuple[str, ...]] = {}
        self.lengths = dict.fromkeys(self.alphabet, 1)
        self.masks = {t: 1 << i for i, t in enumerate(sorted(self.alphabet))}
        self.first: dict[str, str | None] = {t: t for t in self.alphabet}
        self.last = dict(self.first)
        self._memo: dict[tuple[str, ...], str] = {}
        self._next = 0

    def add(self, rhs) -> str:
        rhs = tuple(rhs)
        name = self._memo.get(rhs)
        if name is None:
            if len(rhs) == 1 and rhs[0] not in self.alphabet:
                return rhs[0]
            self._next += 1
            name = f"n{self._next}"
            self.productions[name] = rhs
            lengths, masks, first, last = self.lengths, self.masks, self.first, self.last
            # One loop is faster on the rules the translation and the word
            # algebra write (2 or 3 symbols).  Sums at C speed overtake it on
            # literal rules from about 20 symbols (33 ms against 82 ms at a
            # million); the mask is taken over the rule's distinct symbols.
            if len(rhs) < 20:
                n, mask, head, tail = 0, 0, None, None
                for s in rhs:
                    if k := lengths[s]:
                        n += k
                        mask |= masks[s]
                        tail = last[s]
                        if head is None:
                            head = first[s]
            else:
                n, mask = sum(map(lengths.__getitem__, rhs)), 0
                for s in set(rhs):
                    mask |= masks[s]
                head = next(filter(None, map(first.__getitem__, rhs)), None)
                tail = next(filter(None, map(last.__getitem__, reversed(rhs))), None)
            lengths[name], masks[name], first[name], last[name] = n, mask, head, tail
            self._memo[rhs] = name
        return name

    def rules(self, root: str) -> list[tuple[str, tuple[str, ...]]]:
        """The rules reachable from root, children first: in creation order,
        which each name's counter gives, so the cost is that of the rules."""
        prods, seen, todo = self.productions, set(), [root]
        while todo:
            if (name := todo.pop()) in prods and name not in seen:
                seen.add(name)
                todo += set(prods[name]) - seen
        return [(name, prods[name]) for name in sorted(seen, key=lambda name: int(name[1:]))]

    def spell(self, sym: str, texts: dict[str, str]) -> str:
        """sym's word, spelled into texts (every terminal and each word spelled
        so far) from the names sym reaches, children first, on an explicit
        stack: a grammar may be deeper than the recursion budget."""
        prods, stack = self.productions, [sym]
        while sym not in texts:
            top = stack[-1]
            if top in texts:  # pushed twice: spelled already
                stack.pop()
            elif todo := [k for k in prods[top] if k not in texts]:
                stack += todo
            else:
                texts[stack.pop()] = "".join(map(texts.__getitem__, prods[top]))
        return texts[sym]

    def imp(self, p: Slp, termmap: Mapping[str, str] | None = None) -> str:
        """Copy p's reachable productions in; return the local name for its word.

        With termmap, every terminal is replaced by its image word on the
        way in (the image must use this store's alphabet).
        """
        src, root = _anchor(p)
        # every symbol's word here: a terminal's image, a name's local name
        words = {t: (t,) if termmap is None else tuple(termmap[t]) for t in src.alphabet}
        for name, rhs in src.rules(root):
            words[name] = (self.add([s for sym in rhs for s in words[sym]]),)
        return words[root][0]

    def canonical(self, axiom_sym: str) -> dict[str, tuple[str, ...]]:
        """Productions of the grammar reachable from the name axiom_sym,
        renamed N0, N1, ... in first-visit order with the axiom first."""
        names = {axiom_sym: "N0"}
        queue = [axiom_sym]
        while queue:
            for s in self.productions[queue.pop()]:
                if s not in self.alphabet and s not in names:
                    names[s] = f"N{len(names)}"
                    queue.append(s)
        return {new: tuple(names.get(s, s) for s in self.productions[old])
                for old, new in names.items()}

    def build(self, axiom_sym: str) -> Slp:
        """axiom_sym's word as a program anchored here: equal builds give
        byte-identical programs, whose canonical productions are made when
        first read."""
        p = Slp(self.alphabet, (), "N0")
        p._prods, p._st, p._root = None, self, self.add((axiom_sym,))  # a terminal gets a name
        return p

    @classmethod
    def holding(cls, alphabet: Iterable[str], p: Slp) -> tuple[_Store, str]:
        """A new store over alphabet and its name for p's word.  When p's own
        store is over alphabet and holds no more rules than p has
        productions, as a program given as productions does, the new store
        starts as a copy of it, made at C speed: p's rules are not written
        a second time, and p's store does not grow."""
        src, root = _anchor(p)
        if src.alphabet == frozenset(alphabet) and len(src.productions) <= len(p._prods or ()):
            st = cls.__new__(cls)
            st.__dict__ = {k: dict(v) if type(v) is dict else v for k, v in vars(src).items()}
            return st, root
        st = cls(alphabet)
        return st, st.imp(p)


def _take_sym(st: _Store, sym: str, k: int) -> str:
    """Name for the first k symbols of sym's word.

    Iterative along the grammar spine: grammars can be deeper than the
    interpreter's recursion budget.
    """
    spine: list[list[str]] = []  # fully kept prefix children, outermost first
    while 0 < k < st.lengths[sym]:
        kept: list[str] = []
        child = sym
        for child in st.productions[sym]:
            n = st.lengths[child]
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
    while 0 < k < st.lengths[sym]:
        rhs = st.productions[sym]
        i = 0
        for i, child in enumerate(rhs):
            n = st.lengths[child]
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
    return st.add((acc,))


def concat(p1: Slp, p2: Slp) -> Slp:
    """Program generating str(p1) followed by str(p2)."""
    if p1.alphabet != p2.alphabet:
        raise AlphabetMismatch(f"{sorted(p1.alphabet)} vs {sorted(p2.alphabet)}")
    st, ax = _Store.holding(p1.alphabet, p1)
    return st.build(st.add((ax, st.imp(p2))))


def slice(p: Slp, a: int, b: int) -> Slp:  # noqa: A001 - deliberate, matches the operation
    """Program generating the subword at positions [a, b)."""
    n = length(p)
    if not 0 <= a <= b <= n:
        raise BadRange(f"[{format_int(a)}, {format_int(b)}) not within [0, {format_int(n)})")
    st, ax = _Store.holding(p.alphabet, p)
    return st.build(_take_sym(st, _drop_sym(st, ax, a), b - a))


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
    st, ax = _Store.holding(p.alphabet, p)
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
    st, ax = _Store.holding(p.alphabet, p)
    return st.build(st.add((_drop_sym(st, ax, s), _take_sym(st, ax, s))))


def substitute(p: Slp, images: Mapping[str, str], alphabet: Iterable[str] | None = None) -> Slp:
    """Homomorphic image: every terminal is replaced by its image word.

    The target alphabet defaults to the union of the image words' symbols.
    A terminal with no image, or an image symbol outside the given
    alphabet, raises AlphabetMismatch.
    """
    missing = p.alphabet - images.keys()
    if missing:
        raise AlphabetMismatch(f"no image for terminal(s) {sorted(missing)}")
    used = {ch for sym in p.alphabet for ch in images[sym]}
    alphabet = used if alphabet is None else set(alphabet)
    if not used <= alphabet:
        raise AlphabetMismatch(
            f"image symbol(s) {sorted(used - alphabet)} not in {sorted(alphabet)}")
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


def _cnf(src: _Store, root: str) -> tuple[_Store, str | None]:
    """A new store over src's alphabet and its name for root's word of src
    in Chomsky normal form; None for the empty word.

    Empty and chain productions are eliminated, longer right-hand sides are
    binarized by a left fold, and terminal wrappers are shared, so the result
    is deterministic.
    """
    st = _Store(src.alphabet)
    mapping: dict[str, str | None] = {s: st.add((s,)) for s in src.alphabet}
    for name, rhs in src.rules(root):
        parts = [m for m in map(mapping.__getitem__, rhs) if m]
        cur = parts[0] if parts else None
        for nxt in parts[1:]:
            cur = st.add((cur, nxt))
        mapping[name] = cur
    return st, mapping[root]


def to_cnf(p: Slp) -> Slp:
    """Equivalent program in Chomsky normal form (see _cnf)."""
    st, root = _cnf(*_anchor(p))
    if root is None:
        raise EmptyWord("the empty word has no Chomsky normal form")
    return st.build(root)


def size(p: Slp) -> int:
    """Number of nonterminals in the Chomsky normal form; 0 for the empty word.

    Counts the names reachable from the CNF's root in its store, so no
    program is built: the store also wraps alphabet symbols the word may
    not use."""
    st, root = _cnf(*_anchor(p))
    return 0 if root is None else len(st.rules(root))


# Exponents e of the Mersenne primes 2**e - 1 (OEIS A000043) above 64.
_MERSENNE = (89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
             9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049,
             216091)


def _fingerprint(p: Slp, digits: Mapping[str, int], base: int, mod: int) -> int:
    """Generated word read as a number in the given base, modulo mod."""
    # per nonterminal: (value, base ** length) modulo mod, bottom-up
    st, root = _anchor(p)
    vals: dict[str, tuple[int, int]] = {s: (d, base) for s, d in digits.items()}
    for name, rhs in st.rules(root):
        v, w = 0, 1
        for s in rhs:
            sv, sw = vals[s]
            v = (v * sw + sv) % mod
            w = w * sw % mod
        vals[name] = (v, w)
    return vals[root][0]


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


def parse_slp(text: str, first_line: int = 1) -> Slp:
    """Parse the .slp text format.

    First content line is `alphabet: <chars>`; each further line is
    `N -> tok tok ...` with `eps` denoting the empty right-hand side.
    `#` starts a comment.  The first production's left-hand side is the axiom,
    and a nonterminal with a second production is a FormatError.
    A program that breaks an invariant of :func:`validate` (a missing
    production, a cycle, ...) is a FormatError too.  Lines count from first_line.
    """
    alphabet: frozenset[str] | None = None
    productions: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=first_line):
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
        if parts[0] in productions:
            raise FormatError(f"line {lineno}: second production for {parts[0]}")
        productions[parts[0]] = () if parts[2:] == ["eps"] else tuple(parts[2:])
    if alphabet is None:
        raise FormatError("missing 'alphabet:' header")
    if not productions:
        raise FormatError("no productions")
    p = Slp(alphabet, productions, next(iter(productions)))
    problem = validate(p)
    if problem is not None:
        raise FormatError(problem)
    return p


def format_slp(p: Slp) -> str:
    """Render in the .slp text format (axiom production first).

    Raises FormatError naming the least alphabet symbol or nonterminal that
    the format cannot carry: one holding whitespace or '#' (or, for a
    nonterminal, no character).
    """
    lines = ["alphabet: " + "".join(sorted(p.alphabet))]
    names = [p.axiom] + [n for n in p.productions if n != p.axiom]
    bad = [(sym, "alphabet symbol") for sym in p.alphabet if sym.isspace() or sym == "#"]
    # a cheap test on the joined names; each name is looked at only if it fails
    joined = " ".join(names)
    if joined.split() != names or "#" in joined:
        bad += [(n, "nonterminal") for n in names if n.split() != [n] or "#" in n]
    if bad:
        name, kind = min(bad)
        raise FormatError(f"{kind} {name!r} cannot be written in the .slp format")
    for name in names:
        rhs = p.productions[name]
        lines.append(f"{name} -> " + (" ".join(rhs) if rhs else "eps"))
    return "\n".join(lines) + "\n"
