"""Translation between udpda and pairs of straight-line programs.

One direction builds machines: a program over {0,1} becomes a gadget-per-
nonterminal udpda whose characteristic sequence is 0.word.0^omega, and an
indicator pair (prefix, loop) becomes a machine for the language whose
characteristic sequence is prefix.loop^omega.

The other direction is the dynamic program over the machine's states: it
writes straight-line productions for the transcripts of return segments,
horizontal segments and input-free loops, chains them across bottom-symbol
moves, and finally turns the transcript pair over {a, f} into an indicator
pair over {0, 1}.
"""

from __future__ import annotations

from functools import cached_property
from typing import ClassVar

from . import slp
from .errors import BadRange, EmptyWord, FormatError, MalformedPair, format_int
from .slp import Slp
from .udpda import DEFAULT_BOTTOM, NormalUdpda, NormalView, RawUnpda

BIT_ALPHABET = frozenset("01")
EVENT_ALPHABET = frozenset("af")


def _import(alphabet: frozenset[str], p: Slp, st: slp._Store | None = None) -> tuple[slp._Store, str]:
    """p's word in st over alphabet, or in a new store over alphabet (see
    _Store.holding); p's alphabet must be within it."""
    if not p.alphabet <= alphabet:
        raise MalformedPair(f"alphabet {sorted(p.alphabet)} not within {sorted(alphabet)}")
    return slp._Store.holding(alphabet, p) if st is None else (st, st.imp(p))


def _cut(st: slp._Store, pre: str, loop: str, n: int, start: int) -> str:
    """Name for characters [start, start + n) of pre.loop^omega in a store:
    what is left of pre, then q copies of the loop and its first r
    characters, empty parts left out.  Past pre the loop is first rotated
    to start, so a cut of q whole copies is structurally a power of the
    rotated loop."""
    if min(n, start) < 0:
        raise BadRange(f"negative window: length {format_int(n)}, start {format_int(start)}")
    plen = st.lengths[pre]
    if start + n <= plen:
        return slp._take_sym(st, slp._drop_sym(st, pre, start), n)
    parts = [slp._drop_sym(st, pre, start)] if start < plen else []
    s = max(start - plen, 0) % st.lengths[loop]
    if s:
        loop = st.add((slp._drop_sym(st, loop, s), slp._take_sym(st, loop, s)))
    q, r = divmod(start + n - max(start, plen), st.lengths[loop])
    if q:
        parts.append(slp._pow_sym(st, loop, q))
    if r:
        parts.append(slp._take_sym(st, loop, r))
    return st.add(parts)


class _Pair:
    """The prefix and the loop of an eventually periodic word: two names in
    the pair's own grammar store, where windows are cut and read.  The
    programs `prefix`, `loop` and `window` are anchored there; only writing
    them and equality make canonical productions.  Subclasses fix the
    alphabet and the kind in the pair file format."""

    KIND: ClassVar[str]
    ALPHABET: ClassVar[frozenset[str]]

    def __init__(self, prefix: Slp, loop: Slp):
        st, self._pre = _import(self.ALPHABET, prefix)
        self._st, self._loop = _import(self.ALPHABET, loop, st)
        if not st.lengths[self._loop]:
            raise MalformedPair(f"{self.KIND} pair needs a nonempty loop")

    @classmethod
    def _of(cls, st: slp._Store, pre: str, loop: str):
        """The pair of names (a nonempty loop) a pipeline stage hands over."""
        pair = cls.__new__(cls)
        pair._st, pair._pre, pair._loop = st, pre, loop
        return pair

    @cached_property
    def prefix(self) -> Slp:
        return self._st.build(self._pre)

    @cached_property
    def loop(self) -> Slp:
        return self._st.build(self._loop)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.prefix, self.loop) == (other.prefix, other.loop)

    def __hash__(self):
        return hash((self.prefix, self.loop))

    @property
    def lengths(self) -> tuple[int, int]:
        return self._st.lengths[self._pre], self._st.lengths[self._loop]

    @property
    def symbols(self) -> set[str]:
        """The symbols of prefix.loop^omega: those of the prefix and the loop."""
        masks = self._st.masks
        return {t for t in self.ALPHABET if masks[t] & (masks[self._pre] | masks[self._loop])}

    def window(self, n: int, start: int = 0) -> Slp:
        """Program for characters [start, start + n) of prefix.loop^omega, cut in the store."""
        return self._st.build(_cut(self._st, self._pre, self._loop, n, start))

    def sequence(self, n: int) -> str:
        """First n characters of prefix.loop^omega."""
        return slp.expand(self.window(n), n)

    @property
    def size(self) -> int:
        return slp.size(self.prefix) + slp.size(self.loop)


class IndicatorPair(_Pair):
    """Programs for the prefix and the loop of a characteristic sequence."""

    KIND = "indicator"
    ALPHABET = BIT_ALPHABET


class TranscriptPair(_Pair):
    """Programs for the prefix and the loop of a computation's event stream."""

    KIND = "transcript"
    ALPHABET = EVENT_ALPHABET


# ---------------------------------------------------------------------------
# Programs to machines


def _reduce_fanout(prods: dict[str, tuple[str, ...]]) -> dict[str, tuple[str, ...]]:
    """Copy-tree pass: afterwards every nonterminal occurs at most twice
    on right-hand sides, at the cost of identity productions."""
    out = dict(prods)
    occ: dict[str, list[tuple[str, int]]] = {}
    for parent in sorted(out):
        for pos, sym in enumerate(out[parent]):
            if sym not in BIT_ALPHABET:
                occ.setdefault(sym, []).append((parent, pos))
    busy = {child: occ[child] for child in sorted(occ) if len(occ[child]) > 2}
    fresh = 0
    while busy:
        copies: dict[str, list[tuple[str, int]]] = {}
        for child, slots in busy.items():
            for i in range(0, len(slots), 2):
                fresh += 1
                copy = f"{child}~{fresh}"
                out[copy] = (child,)
                copies.setdefault(child, []).append((copy, 0))
                for parent, pos in slots[i : i + 2]:
                    out[parent] = out[parent][:pos] + (copy,) + out[parent][pos + 1 :]
        # a busy child now occurs only in its copies, taken next in name order
        busy = {child: sorted(slots) for child, slots in copies.items() if len(slots) > 2}
    return out


class _Gadgets:
    """Partially built machine: gadgets for one or more programs, whose
    pops are not yet total."""

    def __init__(self):
        self.internal: dict[str, str] = {}
        self.push: dict[str, tuple[str, str]] = {}
        self.pop: dict[tuple[str, str], str] = {}
        self.reading: set[str] = set()
        self.finals: set[str] = set()
        self.stack: set[str] = set()


def _slp_machine(g: _Gadgets, store: slp._Store, sym: str, ns: str) -> tuple[str, str]:
    """Add the gadget-per-nonterminal machine for the word of sym in a store
    over {0, 1} to g; returns the axiom's entry and exit states.

    Each nonterminal N gets an entry state and an exit state; the exit state
    only has outgoing pop moves.  A terminal production becomes a reading
    internal edge whose exit is final iff the symbol is 1; any other
    production pushes a return marker per child.  A fan-out reduction pass
    first makes every nonterminal occur at most twice, so the k-th
    occurrence pushes marker g{k} and the program needs two markers in all.
    The markers are the same in every namespace: the stack holds only the
    markers of the gadget that is running, which starts and ends at the
    bottom, so one pair serves every program of a machine.
    """
    cnf, root = slp._cnf(store, sym)
    if root is None:
        raise EmptyWord("cannot build a machine for the empty word")
    prods = _reduce_fanout(cnf.canonical(root))
    entry = {n: f"{ns}.i.{n}" for n in prods}
    exit_ = {n: f"{ns}.o.{n}" for n in prods}
    seen: dict[str, int] = {}
    for name in sorted(prods):
        rhs = prods[name]
        if len(rhs) == 1 and rhs[0] in BIT_ALPHABET:
            g.internal[entry[name]] = exit_[name]
            g.reading.add(entry[name])
            if rhs[0] == "1":
                g.finals.add(exit_[name])
            continue
        prev = entry[name]
        for pos, child in enumerate(rhs):
            seen[child] = seen.get(child, 0) + 1
            sym = f"g{seen[child]}"
            g.stack.add(sym)
            g.push[prev] = (entry[child], sym)
            landing = exit_[name] if pos == len(rhs) - 1 else f"{ns}.m.{name}.{pos}"
            g.pop[(exit_[child], sym)] = landing
            prev = landing
    axiom = next(iter(prods))  # build puts the axiom first
    return entry[axiom], exit_[axiom]


def _assemble(g: _Gadgets, initial: str, bottom: str = DEFAULT_BOTTOM) -> NormalUdpda:
    """Close a gadget bundle into a machine: add the dead state and make
    every state with a pop move total over the stack alphabet."""
    stack_alphabet = frozenset(g.stack) | {bottom}
    g.internal["dead"] = "dead"
    g.reading.add("dead")
    for q in sorted({q for q, _ in g.pop}):
        for gamma in sorted(stack_alphabet):
            g.pop.setdefault((q, gamma), "dead")
    return NormalUdpda(
        internal=g.internal,
        push=g.push,
        pop=g.pop,
        reading=frozenset(g.reading),
        initial=initial,
        finals=frozenset(g.finals),
        stack_alphabet=stack_alphabet,
        bottom=bottom,
    )


HALT_STATE = "halt"


def slp_to_udpda(p: Slp) -> NormalUdpda:
    """Machine whose characteristic sequence is 0.str(p).0^omega.

    The axiom's gadget starts and ends at the bottom of the stack; from its
    exit an internal edge leads to a non-accepting sink (HALT_STATE) that
    reads input forever, so the machine reaches it with an empty stack
    after exactly |str p| reads and accepts nothing beyond.  Both are
    internal states, so a machine over the bottom symbol alone has no pop
    state and reads back from its file as itself.
    """
    g = _Gadgets()
    entry, exit_ = _slp_machine(g, *_import(BIT_ALPHABET, p), "s")
    g.internal[exit_] = HALT_STATE
    g.internal[HALT_STATE] = HALT_STATE
    g.reading.add(HALT_STATE)
    return _assemble(g, entry)


def indicator_to_udpda(ip: IndicatorPair) -> NormalUdpda:
    """Machine for the language whose characteristic sequence the pair generates.

    The first bit is split off and carried by a fresh initial state; the
    machines for the rest of the first period (prefix, else loop) and for the
    loop are chained by input-free edges, the loop's exit wired to its entry.
    """
    (plen, k), st, loop = ip.lengths, ip._st, ip._loop
    tail = _cut(st, ip._pre, loop, (plen or k) - 1, 1)

    g = _Gadgets()
    loop_entry, loop_exit = _slp_machine(g, st, loop, "l")
    g.internal[loop_exit] = loop_entry
    entry = loop_entry
    if st.lengths[tail]:
        entry, tail_exit = _slp_machine(g, st, tail, "p")
        g.internal[tail_exit] = loop_entry
    g.internal["start"] = entry
    if ip.sequence(1) == "1":
        g.finals.add("start")
    return _assemble(g, "start")


# ---------------------------------------------------------------------------
# Machines to transcripts


class TranscriptWorkspace:
    """State of the transcript dynamic program.

    One map per domain: `exit` sends each returning state to its exit point
    and a nonterminal for the return segment's events; `edge` sends each
    state with a pending edge to the edge's target and events, where the
    states in `pushing` still have their push edge and the others a
    horizontal successor; `nonret` sends each state certified to never
    return to prefix/loop nonterminals for its infinite event stream.  The
    three domains partition the states entered so far, and every vertex
    keeps out-degree at most one.

    Resolution runs on demand: `transcript` resolves the states of the
    bottom-symbol chain from the initial state, and with them only what
    their values depend on.  A state enters the workspace, with its visit
    events `v` and its exit or pending edge, the first time the walk reads
    it; the workspace starts empty, and a state the computation never
    needs costs nothing.  A raw machine is read through a NormalView,
    where a uniform raw state is its own normal-form state and any other
    state's pair gets its chain when the walk first pops on that pair.
    """

    def __init__(self, machine: NormalUdpda | RawUnpda):
        if isinstance(machine, RawUnpda):
            machine = NormalView(machine)  # deterministic: checked when it was built
        self.machine = machine
        self.store = st = slp._Store(EVENT_ALPHABET)
        # events of one visit: f if the state is final, then a if it reads
        self.empty, f, a, fa = st.add(()), st.add(("f",)), st.add(("a",)), st.add(("f", "a"))
        self._visit = {(False, False): self.empty, (True, False): f, (False, True): a,
                       (True, True): fa}
        self.v: dict[str, str] = {}
        self.exit: dict[str, tuple[str, str]] = {}
        self.edge: dict[str, tuple[str, str]] = {}
        self.pushing: set[str] = set()
        self.nonret: dict[str, tuple[str, str]] = {}

    def _enter(self, q: str):
        """Give a new state its visit events and its exit or pending edge."""
        m = self.machine
        self.v[q] = v = self._visit[q in m.finals, q in m.reading]
        if q in m.internal:
            self.edge[q] = (m.internal[q], v)
        elif q in m.push:
            self.edge[q] = (m.push[q][0], v)
            self.pushing.add(q)
        else:
            self.exit[q] = (q, self.empty)

    def _cat(self, parts) -> str:
        """Store name for the concatenation of event names, empty ones left out."""
        empty = self.empty
        parts = [p for p in parts if p != empty]
        if len(parts) > 1:
            return self.store.add(parts)
        return parts[0] if parts else empty

    def _drop_edge(self, q: str) -> tuple[str, str]:
        """Remove q's pending edge; returns its target and event nonterminal."""
        self.pushing.discard(q)
        return self.edge.pop(q)

    # -- the four rules ----------------------------------------------------

    def apply_r1(self, q: str):
        """Edge into a non-returning state: q is non-returning as well."""
        target, nt = self._drop_edge(q)
        pre, loop = self.nonret[target]
        self.nonret[q] = (self._cat((nt, pre)), loop)

    def apply_r2(self, q: str):
        """Horizontal edge into a returning state: q returns through it."""
        target, nt = self._drop_edge(q)
        q2, seg = self.exit[target]
        self.exit[q] = (q2, self._cat((nt, seg)))

    def apply_r3(self, q: str):
        """Push edge into a returning state: q gets a horizontal successor,
        reached by pushing, returning, and popping the pushed symbol."""
        target, _nt = self._drop_edge(q)
        gamma = self.machine.push[q][1]
        q2, seg = self.exit[target]
        landing = self.machine.pop[(q2, gamma)]
        self.edge[q] = (landing, self._cat((self.v[q], seg, self.v[q2])))

    def apply_r4(self, cycle: list[str]):
        """A simple cycle of pending edges, given from its least state:
        everything on it loops forever.  The loop is the cycle's events from
        the least state, which gets an empty prefix; each later state's
        prefix is the events from it back to the least state."""
        nts = [self._drop_edge(q)[1] for q in cycle]
        loop_nt = self._cat(nts)
        self.nonret[cycle[0]] = (self.empty, loop_nt)
        pre = self.empty
        for i in range(len(cycle) - 1, 0, -1):
            pre = self._cat((nts[i], pre))
            self.nonret[cycle[i]] = (pre, loop_nt)

    # -- resolution -------------------------------------------------------

    def resolve(self, start: str):
        """Resolve start, and everything its value depends on, by walking
        its pending edge.

        Every state has out-degree at most one, so from a pending state the
        edges form a single path.  It is followed until a resolved state,
        each state entering the workspace as the walk first reaches it;
        unwinding applies R1, R2 or R3 to each state on it, and after R3
        the walk goes on from the new target.  A path that meets itself
        closes a cycle of pending edges, resolved by R4 from its least
        state.  Each state is resolved once, from its target's final value,
        so the values do not depend on which states are resolved or in
        what order.
        """
        path: list[str] = []
        on_path: dict[str, int] = {}
        q = start
        while True:
            if q not in self.v:
                self._enter(q)
            if q in self.edge and q not in on_path:
                on_path[q] = len(path)
                path.append(q)
                q = self.edge[q][0]
                continue
            if q in on_path:
                cycle = path[on_path[q]:]
                del path[on_path[q]:]
                for s in cycle:
                    del on_path[s]
                pivot = cycle.index(min(cycle))
                self.apply_r4(cycle[pivot:] + cycle[:pivot])
            if not path:
                return
            q = path[-1]  # its target is resolved
            if self.edge[q][0] in self.nonret:
                self.apply_r1(q)
            elif q not in self.pushing:
                self.apply_r2(q)
            else:
                self.apply_r3(q)  # q is now horizontal: walk on from its landing
                q = self.edge[q][0]
                continue
            path.pop()
            del on_path[q]

    def bottom_stage(self) -> tuple[str, str]:
        """Chain return segments across bottom-symbol moves from the initial
        state, resolving each state on the chain first; returns store names
        for the transcript's prefix and loop."""
        machine, st = self.machine, self.store
        segs: list[str] = []
        index: dict[str, int] = {}
        q = machine.initial
        self.resolve(q)
        while q not in self.nonret and q not in index:
            index[q] = len(segs)
            q2, seg = self.exit[q]
            segs.append(self._cat((seg, self.v[q2])))
            q = machine.pop[(q2, machine.bottom)]
            self.resolve(q)
        if q in self.nonret:
            pre, loop = self.nonret[q]
            return self._cat((*segs, pre)), loop
        return self._cat(segs[: index[q]]), self._cat(segs[index[q]:])

    def transcript(self) -> TranscriptPair:
        """The transcript pair in the workspace's store, resolving only the
        states the bottom chain needs; an empty loop becomes 'a'."""
        pre, loop = self.bottom_stage()
        if not self.store.lengths[loop]:
            loop = self.store.add(("a",))
        return TranscriptPair._of(self.store, pre, loop)


def udpda_to_transcript(a: NormalUdpda | RawUnpda) -> TranscriptPair:
    """Pair of programs generating the event stream of the machine's unique
    infinite computation ('a' per consumed letter, 'f' per final-state visit).

    If the computation eventually stops producing events (an input-free loop
    through non-final states), the stream is padded with 'a's; this leaves
    the induced characteristic sequence unchanged.
    """
    return TranscriptWorkspace(a).transcript()


# ---------------------------------------------------------------------------
# Transcripts to characteristic sequences


class _FusedImage:
    """Bottom-up image of words over {a, f} under af -> 1, a -> 0 and
    f -> empty, from the rules of a store over {a, f} into one over {0, 1}.

    A rule's nonempty children are folded left, pair by pair: the fold so
    far fuses with the next child when the child before ends with a and
    that one starts with f, by the source store's first and last facts.  A
    variant that drops a trailing a is produced on demand, the way the
    trimmed nonterminal N a^-1 is defined alongside the original; no
    variant drops a leading f, since an f maps to the empty word anyway.
    """

    def __init__(self, src: slp._Store, st: slp._Store):
        self.src, self.st = src, st
        empty = st.add(())
        self.memo = {("a", False): st.add(("0",)), ("a", True): empty, ("f", False): empty}

    def image(self, root: str, drop_a: bool = False) -> str:
        # explicit work stack: grammars may be deeper than the recursion budget
        memo, plans, st = self.memo, {}, self.st
        prods, first, last = self.src.productions, self.src.first, self.src.last
        stack = [(root, drop_a)]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
            elif key not in plans:
                # the nonempty children: each drops a trailing a iff it fuses
                # with the next one, the last iff key drops one
                keys, prev = [], None
                for s in prods[key[0]]:
                    if first[s]:
                        if prev is not None:
                            keys.append((prev, last[prev] == "a" and first[s] == "f"))
                        prev = s
                plans[key] = keys = keys if prev is None else [*keys, (prev, key[1])]
                stack.extend(k for k in keys if k not in memo)
            else:
                stack.pop()
                cur = None
                for k in plans[key]:
                    part = memo[k]
                    cur = part if cur is None else st.add((cur, "1", part) if fuse else (cur, part))
                    fuse = k[1]
                memo[key] = st.add(()) if cur is None else cur
        return memo[root, drop_a]


def _characteristic(src: slp._Store, prefix: str, loop: str, st: slp._Store) -> IndicatorPair:
    """Indicator pair, written into st, for the transcript pair (prefix,
    loop), the loop nonempty, of a store over {a, f}; see below."""
    if not src.masks[loop] & src.masks["a"]:
        # every a yields one bit, so the loop has none: the machine stops
        # reading; pad with a's, keeping one f of the loop
        return _characteristic(src, src.add((prefix, "f")), src.add(("a",)), st)
    img = _FusedImage(src, st)
    first, last = src.first, src.last
    u, w = img.image(prefix), img.image(loop)
    if first[loop] == "f" and last[loop] == "a":
        # every junction fuses: the loop loses its leading f and trailing a
        w = st.add((img.image(loop, drop_a=True), "1"))
        if last[prefix] == "a":
            u = st.add((img.image(prefix, drop_a=True), "1"))
    elif first[loop] == "f" and last[prefix] == "a":
        # only the first junction can fuse
        u = st.add((img.image(prefix, drop_a=True), "1"))

    head = st.add(("1" if (first[prefix] or first[loop]) == "f" else "0",))
    return IndicatorPair._of(st, st.add((head, u)), w)


def transcript_to_characteristic(tp: TranscriptPair) -> IndicatorPair:
    """Indicator pair for the characteristic sequence the transcript defines.

    The bit for length i is 1 iff an f occurs between the i-th and the
    (i+1)-th a of the stream.  The first bit is computed separately; the
    rest is the image of the stream under af -> 1, then a -> 0, f -> empty,
    with the fusion applied across the prefix/loop junctions.  A loop
    without any a (the machine stops reading) is first replaced by a plain
    'a' loop, moving its single meaningful f, if any, into the prefix.
    """
    return _characteristic(tp._st, tp._pre, tp._loop, slp._Store(BIT_ALPHABET))


def udpda_to_indicator(a: RawUnpda | NormalUdpda) -> IndicatorPair:
    """Indicator pair for the machine's language (the full pipeline); a raw
    machine is normalized on demand."""
    return _indicator_pairs(a)[0]


def _indicator_pairs(*machines: RawUnpda | NormalUdpda) -> list[IndicatorPair]:
    """udpda_to_indicator of each machine, all in one store."""
    st = slp._Store(BIT_ALPHABET)
    return [_characteristic(tp._st, tp._pre, tp._loop, st)
            for tp in (TranscriptWorkspace(a).transcript() for a in machines)]


# ---------------------------------------------------------------------------
# Pair file format


_PAIR_KINDS = {cls.KIND: cls for cls in (IndicatorPair, TranscriptPair)}


def parse_pair(text: str) -> IndicatorPair | TranscriptPair:
    """Parse a pair file: a `kind: indicator|transcript` header, the prefix
    program, a `---` separator line, and the loop program.  An error in a
    program names its block and counts lines from the start of the file."""
    kind = None
    blocks: list[tuple[int, list[str]]] = []  # (first line number, lines)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if kind is None:
            if not stripped:
                continue
            if not stripped.startswith("kind:"):
                raise FormatError(f"line {lineno}: expected 'kind:' header")
            kind = stripped[len("kind:"):].strip()
            if kind not in _PAIR_KINDS:
                raise FormatError(f"line {lineno}: unknown kind {kind!r}")
            blocks.append((lineno + 1, []))
        elif stripped == "---":
            blocks.append((lineno + 1, []))
        else:
            blocks[-1][1].append(raw)
    if kind is None:
        raise FormatError("missing 'kind:' header")
    if len(blocks) != 2:
        raise FormatError("expected exactly one '---' separator")
    programs = []
    for name, (first, lines) in zip(("prefix", "loop"), blocks):
        try:
            programs.append(slp.parse_slp("\n".join(lines), first))
        except FormatError as err:
            raise FormatError(f"{name}: {err}") from None
    return _PAIR_KINDS[kind](*programs)


def format_pair(pair: IndicatorPair | TranscriptPair) -> str:
    return (
        f"kind: {pair.KIND}\n"
        + slp.format_slp(pair.prefix)
        + "---\n"
        + slp.format_slp(pair.loop)
    )
