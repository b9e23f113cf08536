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

from dataclasses import dataclass
from typing import ClassVar

from . import slp
from .errors import BadRange, EmptyWord, FormatError, MalformedPair, format_int
from .slp import Slp
from .udpda import DEFAULT_BOTTOM, NormalUdpda, NormalView, RawUnpda

BIT_ALPHABET = frozenset("01")
EVENT_ALPHABET = frozenset("af")


def _import(st: slp._Store, p: Slp) -> str:
    """Copy p into a store over a possibly larger alphabet (names are refreshed)."""
    if not p.alphabet <= st.alphabet:
        raise MalformedPair(
            f"alphabet {sorted(p.alphabet)} not within {sorted(st.alphabet)}"
        )
    return st.imp(p)


def _widen(p: Slp, alphabet: frozenset[str]) -> Slp:
    """The same word over a possibly larger alphabet."""
    if p.alphabet == alphabet:
        return p
    st = slp._Store(alphabet)
    return st.build(_import(st, p))


@dataclass(frozen=True)
class _Pair:
    """Programs for the prefix and the loop of an eventually periodic word;
    subclasses fix its alphabet and its kind in the pair file format."""

    KIND: ClassVar[str]
    ALPHABET: ClassVar[frozenset[str]]

    prefix: Slp
    loop: Slp

    def __post_init__(self):
        object.__setattr__(self, "prefix", _widen(self.prefix, self.ALPHABET))
        object.__setattr__(self, "loop", _widen(self.loop, self.ALPHABET))
        if slp.length(self.loop) == 0:
            raise MalformedPair(f"{self.KIND} pair needs a nonempty loop")

    def window(self, n: int) -> Slp:
        """Program for the first n characters of prefix.loop^omega: the
        prefix cut at n, or the prefix, loop^q and the first r characters
        of the loop, where q, r = divmod(n - |prefix|, |loop|); empty parts
        are left out."""
        if n < 0:
            raise BadRange(f"window of negative length {format_int(n)}")
        st = slp._Store(self.ALPHABET)
        pre = st.imp(self.prefix)
        plen = st.sym_length(pre)
        if n <= plen:
            return st.build(slp._take_sym(st, pre, n))
        loop = st.imp(self.loop)
        q, r = divmod(n - plen, st.sym_length(loop))
        parts = [pre] if plen else []
        if q:
            parts.append(slp._pow_sym(st, loop, q))
        if r:
            parts.append(slp._take_sym(st, loop, r))
        return st.build(st.add(parts))

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
    occurrence pushes marker k and the program needs two markers in all.
    """
    cnf = slp._Store(BIT_ALPHABET)
    root = slp._cnf(store, sym, cnf)
    if root is None:
        raise EmptyWord("cannot build a machine for the empty word")
    prods = _reduce_fanout(cnf.build(root).productions)
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
            sym = f"{ns}.g{seen[child]}"
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

    Past the axiom's exit sits a non-accepting sink (HALT_STATE) that reads
    input and pops the bottom symbol forever, so the machine reaches it with
    an empty stack after exactly |str p| reads and accepts nothing beyond.
    """
    st = slp._Store(BIT_ALPHABET)
    g = _Gadgets()
    entry, exit_ = _slp_machine(g, st, _import(st, p), "s")
    g.pop[(exit_, DEFAULT_BOTTOM)] = HALT_STATE
    g.reading.add(HALT_STATE)
    g.pop[(HALT_STATE, DEFAULT_BOTTOM)] = HALT_STATE
    return _assemble(g, entry)


def indicator_to_udpda(ip: IndicatorPair) -> NormalUdpda:
    """Machine for the language whose characteristic sequence the pair generates.

    The first bit is split off and carried by a fresh initial state; the
    machines for the rest of the prefix and for the loop are chained with
    input-free edges, with the loop machine's exit wired back to its entry.
    """
    head = ip.prefix if slp.length(ip.prefix) else ip.loop
    b = slp.query(head, 0) == "1"
    st = slp._Store(BIT_ALPHABET)
    loop = st.imp(ip.loop)
    tail = slp._drop_sym(st, st.imp(head), 1)

    g = _Gadgets()
    loop_entry, loop_exit = _slp_machine(g, st, loop, "l")
    g.internal[loop_exit] = loop_entry
    entry = loop_entry
    if st.sym_length(tail):
        entry, tail_exit = _slp_machine(g, st, tail, "p")
        g.internal[tail_exit] = loop_entry
    g.internal["start"] = entry
    if b:
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
    which builds a pair's chain when the walk first pops on that pair.
    """

    def __init__(self, machine: NormalUdpda | RawUnpda):
        if isinstance(machine, RawUnpda):
            machine = NormalView(machine)  # raises NotDeterministic on bad input
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

    def _drop_edge(self, q: str) -> tuple[str, str]:
        """Remove q's pending edge; returns its target and event nonterminal."""
        self.pushing.discard(q)
        return self.edge.pop(q)

    # -- the four rules ----------------------------------------------------

    def apply_r1(self, q: str):
        """Edge into a non-returning state: q is non-returning as well."""
        target, nt = self._drop_edge(q)
        pre, loop = self.nonret[target]
        self.nonret[q] = (self.store.add((nt, pre)), loop)

    def apply_r2(self, q: str):
        """Horizontal edge into a returning state: q returns through it."""
        target, nt = self._drop_edge(q)
        q2, seg = self.exit[target]
        self.exit[q] = (q2, self.store.add((nt, seg)))

    def apply_r3(self, q: str):
        """Push edge into a returning state: q gets a horizontal successor,
        reached by pushing, returning, and popping the pushed symbol."""
        target, _nt = self._drop_edge(q)
        gamma = self.machine.push[q][1]
        q2, seg = self.exit[target]
        landing = self.machine.pop[(q2, gamma)]
        self.edge[q] = (landing, self.store.add((self.v[q], seg, self.v[q2])))

    def apply_r4(self, cycle: list[str]):
        """A simple cycle of pending edges: everything on it loops forever."""
        nts = [self._drop_edge(q)[1] for q in cycle]
        loop_nt = self.store.add(tuple(nts))
        pre = nts[-1]
        self.nonret[cycle[-1]] = (pre, loop_nt)
        for i in range(len(cycle) - 2, -1, -1):
            pre = self.store.add((nts[i], pre))
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
            segs.append(st.add((seg, self.v[q2])))
            q = machine.pop[(q2, machine.bottom)]
            self.resolve(q)
        if q in self.nonret:
            pre, loop = self.nonret[q]
            return st.add((*segs, pre)), loop
        return st.add(segs[: index[q]]), st.add(segs[index[q]:])

    def transcript(self) -> TranscriptPair:
        """Build the transcript pair, resolving only the states the bottom
        chain needs."""
        pre_name, loop_name = self.bottom_stage()
        prefix = self.store.build(pre_name)
        loop = self.store.build(loop_name)
        if slp.length(loop) == 0:
            loop = slp.literal("a", EVENT_ALPHABET)
        return TranscriptPair(prefix, loop)


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
    f -> empty, written into a store over {0, 1}.

    Works on a store in Chomsky normal form; a production N -> A B fuses
    when A's word ends with a and B's starts with f.  A variant that drops a
    trailing a is produced on demand, the way the trimmed nonterminal N a^-1
    is defined alongside the original; no variant drops a leading f, since
    an f maps to the empty word anyway.
    """

    def __init__(self, store: slp._Store, cnf: slp._Store, roots):
        self.st = store
        self.prods = cnf.productions
        self.first: dict[str, str] = {}
        self.last: dict[str, str] = {}
        for name in slp._toposort(cnf, roots):
            rhs = self.prods[name]
            if len(rhs) == 1:
                self.first[name] = self.last[name] = rhs[0]
            else:
                self.first[name] = self.first[rhs[0]]
                self.last[name] = self.last[rhs[1]]
        self.memo: dict[tuple[str, bool], str] = {}

    def image(self, root: str, drop_a: bool = False) -> str:
        # explicit work stack: grammars may be deeper than the recursion budget
        goal = (root, drop_a)
        memo = self.memo
        stack = [goal]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            name, drop = key
            rhs = self.prods[name]
            if len(rhs) == 1:
                sym = rhs[0]
                assert not (drop and sym != "a")
                memo[key] = self.st.add(("0",) if sym == "a" and not drop else ())
                stack.pop()
                continue
            fused = self.last[rhs[0]] == "a" and self.first[rhs[1]] == "f"
            children = ((rhs[0], fused), (rhs[1], drop))
            pending = [c for c in children if c not in memo]
            if pending:
                stack.extend(pending)
                continue
            if fused:
                memo[key] = self.st.add((memo[children[0]], "1", memo[children[1]]))
            else:
                memo[key] = self.st.add((memo[children[0]], memo[children[1]]))
            stack.pop()
        return memo[goal]


def _characteristic(src: slp._Store, prefix: str, loop: str) -> IndicatorPair:
    """Indicator pair for the transcript pair (prefix, loop) of a store over
    {a, f}; see transcript_to_characteristic."""
    cnf = slp._Store(EVENT_ALPHABET)
    pre_c, loop_c = slp._cnf(src, prefix, cnf), slp._cnf(src, loop, cnf)
    st = slp._Store(BIT_ALPHABET)
    img = _FusedImage(st, cnf, [r for r in (pre_c, loop_c) if r])
    w = img.image(loop_c) if loop_c else st.add(())
    if not st.sym_length(w):
        # every a yields one bit, so the loop has none: the machine stops
        # reading; pad with a's, keeping one f of a non-empty loop
        if loop_c:
            prefix = src.add((prefix, "f"))
        return _characteristic(src, prefix, src.add(("a",)))

    loop_first, loop_last = img.first[loop_c], img.last[loop_c]
    pre_last = img.last[pre_c] if pre_c else None
    first_bit = img.first[pre_c or loop_c] == "f"
    u = img.image(pre_c) if pre_c else st.add(())
    if loop_first == "f" and loop_last == "a":
        # every junction fuses: the loop loses its leading f and trailing a
        w = st.add((img.image(loop_c, drop_a=True), "1"))
        if pre_last == "a":
            u = st.add((img.image(pre_c, drop_a=True), "1"))
    elif loop_first == "f" and pre_last == "a":
        # only the first junction can fuse
        u = st.add((img.image(pre_c, drop_a=True), "1", w))

    head = st.add(("1" if first_bit else "0",))
    return IndicatorPair(st.build(st.add((head, u))), st.build(w))


def transcript_to_characteristic(tp: TranscriptPair) -> IndicatorPair:
    """Indicator pair for the characteristic sequence the transcript defines.

    The bit for length i is 1 iff an f occurs between the i-th and the
    (i+1)-th a of the stream.  The first bit is computed separately; the
    rest is the image of the stream under af -> 1, then a -> 0, f -> empty,
    with the fusion applied across the prefix/loop junctions.  A loop
    without any a (the machine stops reading) is first replaced by a plain
    'a' loop, moving its single meaningful f, if any, into the prefix.
    """
    st = slp._Store(EVENT_ALPHABET)
    return _characteristic(st, st.imp(tp.prefix), st.imp(tp.loop))


def udpda_to_indicator(a: RawUnpda | NormalUdpda) -> IndicatorPair:
    """Indicator pair for the machine's language (the full pipeline); a raw
    machine is normalized on demand."""
    ws = TranscriptWorkspace(a)
    return _characteristic(ws.store, *ws.bottom_stage())


# ---------------------------------------------------------------------------
# Pair file format


_PAIR_KINDS = {cls.KIND: cls for cls in (IndicatorPair, TranscriptPair)}


def parse_pair(text: str) -> IndicatorPair | TranscriptPair:
    """Parse a pair file: a `kind: indicator|transcript` header, the prefix
    program, a `---` separator line, and the loop program."""
    kind = None
    blocks: list[list[str]] = [[]]
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
            continue
        if stripped == "---":
            blocks.append([])
        else:
            blocks[-1].append(raw)
    if kind is None:
        raise FormatError("missing 'kind:' header")
    if len(blocks) != 2:
        raise FormatError("expected exactly one '---' separator")
    prefix = slp.parse_slp("\n".join(blocks[0]))
    loop = slp.parse_slp("\n".join(blocks[1]))
    return _PAIR_KINDS[kind](prefix, loop)


def format_pair(pair: IndicatorPair | TranscriptPair) -> str:
    return (
        f"kind: {pair.KIND}\n"
        + slp.format_slp(pair.prefix)
        + "---\n"
        + slp.format_slp(pair.loop)
    )
