"""Unary pushdown automata: raw form, the normal form, and a step simulator.

A :class:`RawUnpda` is the textbook machine: transitions rewrite the top of
the stack by a word of length at most two, with the bottom symbol kept at
the bottom.  A :class:`NormalUdpda` is the restricted shape the translation
algorithm works on: every control state performs exactly one of {internal,
push-one, pop-one}, pops are total over the stack alphabet, and reads are a
property of the state.  A :class:`NormalView` builds the normal form as
the translation reaches it: a uniform raw state is its own normal-form
state, and any other state's chain is built one (state, top) pair at a
time.  The simulator
(:func:`run_prefix`, :func:`membership_sim`) is the ground-truth oracle for
everything else.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable

from .errors import BadRange, FormatError, FuelExhausted, NotDeterministic, format_int

DEFAULT_BOTTOM = "_"
DEFAULT_FUEL = 1_000_000


class RawUnpda:
    """Unary deterministic pushdown automaton over input alphabet {a}.

    Built from transitions, tuples (q, sigma, gamma, q2, s): in state q with
    gamma on top of the stack, read sigma ('a' or '' for an epsilon move),
    replace gamma by the symbol sequence s (top first) and go to q2.  Bottom
    discipline: when gamma is not the bottom symbol, s avoids it; when gamma
    is the bottom, s is empty or ends with it.  len(s) <= 2 throughout (the
    size convention).

    The machine is one move map, `moves`: (q, gamma) -> (sigma, q2, s),
    built and checked once here; a repeated transition counts once.  A
    malformed transition is a ValueError naming the least by printed form;
    then two moves on one pair raise NotDeterministic naming the least pair.
    """

    __slots__ = ("states", "stack_alphabet", "bottom", "initial", "finals", "moves")

    def __init__(self, states: frozenset[str], stack_alphabet: frozenset[str], bottom: str,
                 initial: str, finals: frozenset[str], transitions: Iterable[tuple]):
        self.states, self.stack_alphabet, self.bottom = states, stack_alphabet, bottom
        self.initial, self.finals = initial, finals
        if bottom not in stack_alphabet:
            raise ValueError("bottom symbol missing from the stack alphabet")
        if initial not in states:
            raise ValueError(f"initial state {initial} not a state")
        if not finals <= states:
            raise ValueError("final states must be states")
        self.moves = moves = {}
        bad = []
        clashes: dict[tuple[str, str], set] = {}
        for t in transitions:
            q1, sigma, gamma, q2, s = t
            if q1 not in states or q2 not in states:
                bad.append((t, f"transition {t} uses unknown states"))
            elif sigma not in ("a", ""):
                bad.append((t, f"transition {t}: input must be 'a' or ''"))
            elif gamma not in stack_alphabet:
                bad.append((t, f"transition {t}: unknown stack symbol {gamma}"))
            elif not isinstance(s, tuple):
                bad.append((t, f"transition {t}: push word must be a tuple of symbols"))
            elif len(s) > 2:
                bad.append((t, f"transition {t}: pushes more than two symbols"))
            elif not stack_alphabet.issuperset(s):
                bad.append((t, f"transition {t}: push word uses unknown symbols"))
            elif gamma != bottom and bottom in s:
                bad.append((t, f"transition {t}: bottom symbol re-pushed"))
            elif gamma == bottom and s and (s[-1] != bottom or bottom in s[:-1]):
                bad.append((t, f"transition {t}: bottom symbol must stay at the bottom"))
            else:
                move = sigma, q2, s
                first = moves.setdefault((q1, gamma), move)
                if first != move:
                    clashes.setdefault((q1, gamma), {first}).add(move)
        if bad:
            # name the least bad transition (by its printed form, which orders
            # whatever a tuple holds), not the first in input order
            raise ValueError(min(bad, key=lambda tb: repr(tb[0]))[1])
        if clashes:
            (q, gamma), clash = min(clashes.items())
            what = ("mixes a reading move with an epsilon move"
                    if len({sigma for sigma, _, _ in clash}) > 1 else f"offers {len(clash)} moves")
            raise NotDeterministic(f"state {q} on top {gamma} {what}")

    @property
    def transitions(self) -> frozenset[tuple[str, str, str, str, tuple[str, ...]]]:
        return frozenset((q, sigma, gamma, q2, s)
                         for (q, gamma), (sigma, q2, s) in self.moves.items())

    @property
    def size(self) -> int:
        return len(self.states) * len(self.stack_alphabet)


@dataclass(frozen=True)
class NormalUdpda:
    """Udpda in the shape assumed by the translation algorithm.

    internal, push and pop are total maps whose domains partition the state
    set; pop is keyed by (state, stack symbol) and is total over the stack
    alphabet for every pop state.  Popping the bottom symbol leaves the
    stack unchanged.  States in `reading` consume one input letter on every
    outgoing move.
    """

    internal: dict[str, str]
    push: dict[str, tuple[str, str]]
    pop: dict[tuple[str, str], str]
    reading: frozenset[str]
    initial: str
    finals: frozenset[str]
    stack_alphabet: frozenset[str]
    bottom: str
    states: frozenset[str] = field(init=False)

    def __post_init__(self):
        pop_states = {q for q, _ in self.pop}
        states = frozenset(self.internal) | frozenset(self.push) | pop_states
        object.__setattr__(self, "states", states)
        if len(self.internal) + len(self.push) + len(pop_states) != len(states):
            raise ValueError("internal/push/pop domains must be disjoint")
        if self.bottom not in self.stack_alphabet:
            raise ValueError("bottom symbol missing from the stack alphabet")
        missing = [(q, gamma) for q in pop_states for gamma in self.stack_alphabet
                   if (q, gamma) not in self.pop]
        if missing:
            raise ValueError("pop state {} lacks a move for {}".format(*min(missing)))
        targets = list(self.internal.values())
        targets += [q for q, _ in self.push.values()]
        targets += list(self.pop.values())
        if any(t not in states for t in targets):
            raise ValueError("transition target is not a state")
        for q, (_, gamma) in self.push.items():
            if gamma == self.bottom:
                raise ValueError(f"push state {q} pushes the bottom symbol")
            if gamma not in self.stack_alphabet:
                raise ValueError(f"push state {q} pushes unknown symbol {gamma}")
        if self.initial not in states:
            raise ValueError(f"initial state {self.initial} not a state")
        if not self.finals <= states:
            raise ValueError("final states must be states")
        if not self.reading <= states:
            raise ValueError("reading states must be states")

    @property
    def size(self) -> int:
        return len(self.states) * len(self.stack_alphabet)


def _uniquify(name: str, taken: set[str]) -> str:
    candidate = name
    while candidate in taken:
        candidate += "'"
    taken.add(candidate)
    return candidate


def _pushes(a: RawUnpda, gamma: str, s: tuple[str, ...]) -> tuple[str, ...]:
    """The symbols, top first, that a move on top gamma pushes after popping
    gamma; the bottom symbol is never popped, so above it at most one."""
    if gamma != a.bottom:
        return s
    return () if s in ((), (a.bottom,)) else s[:1]


def _shape(a: RawUnpda, q: str) -> tuple[bool, str, str | tuple[str, str] | None] | None:
    """What a uniform raw state is in the normal form; None if q is not uniform.

    q is uniform when it has a move on every top and all its moves share
    one input.  If every move goes to one target t and keeps its top under
    one pushed word, (gamma,) or (X, gamma), q is internal (reads, "internal",
    t) or pushes X (reads, "push", (t, X)).  If every move pops its top, ()
    and on the bottom () or (bottom,), q is a pop state (reads, "pop", None)
    whose pops go straight to their targets.  With the bottom the only
    stack symbol, a move that keeps it is internal.
    """
    moves, bottom = a.moves, a.bottom
    first = moves.get((q, bottom))
    if first is None:
        return None
    sigma, target, s = first
    above = _pushes(a, bottom, s)
    same, pops = True, not above
    for gamma in a.stack_alphabet:
        if gamma == bottom:
            continue
        move = moves.get((q, gamma))
        if move is None or move[0] != sigma:
            return None
        s = move[2]
        same = same and move[1] == target and s == (*above, gamma)
        pops = pops and not s
        if not (same or pops):
            return None
    reads = sigma == "a"
    if same:
        return (reads, "push", (target, above[0])) if above else (reads, "internal", target)
    return reads, "pop", None


class NormalView:
    """The normal form of a raw machine, built as the transcript walk and the
    simulator reach it.

    It has the attributes of a NormalUdpda that the transcript walk and the
    simulator read.  A raw state is classified the first time the view
    hands it out: as the initial state, as a chain's target or as a uniform
    state's target.  A uniform state (see _shape) is its own normal-form
    state, internal, pushing or popping, and reads iff its moves do; so a
    machine written from a NormalUdpda reads back with the same states.
    Every other raw state is a pop state, and reading pop[(q, gamma)] for
    the first time builds that pair's chain, as `normalize` does: an
    isolated reading state if the move consumes input, then one push state
    per pushed symbol.  `states` holds the raw states and the chain states
    built so far; `internal`, `push`, `pop` and `reading` what is built.
    Chain names are those of `normalize`: they can depend on the order
    pairs are read only when two pairs share a name q.gamma.*, which needs a
    stack symbol ending with '.' and another stack symbol, and then every
    pair is read up front in sorted order.  A pair's chain comes from the
    raw machine's move map, which its constructor has checked deterministic.
    """

    def __init__(self, a: RawUnpda):
        self.pop = chains = _Chains(a)
        self.states, self.internal = chains.states, chains.internal
        self.push, self.reading = chains.push, chains.reading
        self.initial, self.finals = chains.classify(a.initial), a.finals
        self.stack_alphabet, self.bottom = a.stack_alphabet, a.bottom
        gammas = a.stack_alphabet
        if any(g[i + 1:] in gammas for g in gammas for i, c in enumerate(g) if c == "."):
            self.read_all()

    def read_all(self):
        """Classify every raw state, then build every pop state's pairs,
        both in sorted order."""
        states = sorted(self.pop.raw.states)
        for q in states:
            self.pop.classify(q)
        for q in states:
            if q not in self.internal and q not in self.push:
                for gamma in sorted(self.stack_alphabet):
                    self.pop[(q, gamma)]


class _Chains(dict):
    """The pop map of a NormalView, which classifies raw states and builds
    the states it maps to from the raw machine's move map.

    It refers to no view, so a view is freed as soon as its last user drops
    it rather than at the next cycle collection.
    """

    def __init__(self, a: RawUnpda):
        super().__init__()
        self.raw = a
        self.states = set(a.states)  # also the names taken
        self.dead = dead = _uniquify("dead", self.states)
        self.internal: dict[str, str] = {dead: dead}
        self.push: dict[str, tuple[str, str]] = {}
        self.reading = {dead}
        # each classified raw state: whether it is a uniform pop state,
        # whose pops go straight to their targets
        self.direct: dict[str, bool] = {}

    def classify(self, q: str) -> str:
        """Classify q, and the target of each uniform internal or push state
        it leads to, as the maps hand those targets out at once; returns q."""
        start, direct = q, self.direct
        while q not in direct:
            shape = _shape(self.raw, q)
            direct[q] = shape is not None and shape[1] == "pop"
            if shape is not None:
                reads, kind, value = shape
                if reads:
                    self.reading.add(q)
                if kind == "internal":
                    self.internal[q] = q = value
                elif kind == "push":
                    self.push[q] = value
                    q = value[0]
        return start

    def __missing__(self, key: tuple[str, str]) -> str:
        """Map a pop state's pair to its target, building its chain if the
        state is not uniform; a missing move leads to the non-final reading
        dead state."""
        q, gamma = key
        direct = self.direct
        if q not in direct:
            self.classify(q)
        move = self.raw.moves.get(key)
        if direct[q]:
            target = move[1]
            if target not in direct:
                self.classify(target)
        elif q in self.internal or q in self.push:
            raise KeyError(key)
        elif move is None:
            target = self.dead
        else:
            sigma, target, s = move
            self.classify(target)
            # Chain: [read] then pushes applied bottom-up, landing at the target.
            for i, sym in enumerate(_pushes(self.raw, gamma, s)):
                node = _uniquify(f"{q}.{gamma}.push{i}", self.states)
                self.push[node] = (target, sym)
                target = node
            if sigma == "a":
                node = _uniquify(f"{q}.{gamma}.read", self.states)
                self.internal[node] = target
                self.reading.add(node)
                target = node
        self[key] = target
        return target


def normalize(a: RawUnpda) -> NormalUdpda:
    """Language-equivalent machine in the normal shape.

    A uniform raw state (see _shape) keeps its name and becomes an
    internal, push or pop state of its own; every other raw state becomes a
    pop state dispatching on the top symbol, and each of its moves unfolds
    into a short chain (an isolated reading state if it consumes input,
    then one push state per pushed symbol).  Missing moves lead to a
    non-final reading dead state that loops on itself.  So normalize is a
    fixed point on normal machines written as raw ones, up to one unused
    dead state, and the result has at most 6 * |Q| * |Gamma| states.  This
    is a NormalView with every state classified and every pair read, in
    sorted order.
    """
    view = NormalView(a)
    view.read_all()
    return NormalUdpda(
        internal=view.internal,
        push=view.push,
        pop=dict(view.pop),
        reading=frozenset(view.reading),
        initial=a.initial,
        finals=frozenset(a.finals),
        stack_alphabet=a.stack_alphabet,
        bottom=a.bottom,
    )


def normal_size(a: RawUnpda) -> int:
    """normalize(a).size, counted from the moves without building chains:
    the raw states, the dead state, and the chain states of the moves of
    states that are not uniform."""
    uniform = {q for q in a.states if _shape(a, q)}
    chains = sum(len(_pushes(a, gamma, s)) + (sigma == "a")
                 for (q, gamma), (sigma, _, s) in a.moves.items() if q not in uniform)
    return (len(a.states) + 1 + chains) * len(a.stack_alphabet)


def _moves(a: NormalUdpda):
    """Yield the one move of each (state, top) pair as a raw transition, by
    sorted state and then sorted stack symbol: the order of the sorted
    transitions, since all moves of a state share one input field."""
    for q in sorted(a.states):
        sigma = "a" if q in a.reading else ""
        for gamma in sorted(a.stack_alphabet):
            if q in a.internal:
                yield q, sigma, gamma, a.internal[q], (gamma,)
            elif q in a.push:
                yield q, sigma, gamma, a.push[q][0], (a.push[q][1], gamma)
            else:
                yield q, sigma, gamma, a.pop[(q, gamma)], (gamma,) if gamma == a.bottom else ()


def to_raw(a: NormalUdpda) -> RawUnpda:
    """The same machine as a RawUnpda (one transition per state and top symbol)."""
    return RawUnpda(
        states=a.states,
        stack_alphabet=a.stack_alphabet,
        bottom=a.bottom,
        initial=a.initial,
        finals=a.finals,
        transitions=_moves(a),
    )


def steps(a: NormalUdpda, q: str):
    """Yield (state, stack) for every configuration of the computation from
    (q, bottom), without end.

    The stack (top at the end) is one live list that the next step mutates:
    read what you need of it before resuming the generator.
    """
    internal, push, pop, bottom = a.internal, a.push, a.pop, a.bottom
    stack = [bottom]
    while True:
        yield q, stack
        nxt = internal.get(q)
        if nxt is not None:
            q = nxt
        elif q in push:
            q, sym = push[q]
            stack.append(sym)
        else:
            top = stack[-1]
            q = pop[(q, top)]
            if top != bottom:
                stack.pop()


def _trace(a: NormalUdpda, max_reads: int, fuel: int):
    """Yield (state, letters consumed) for every configuration visited.

    Stops after max_reads letters have been consumed, or as soon as the
    machine is certified to never read again: a state revisited without an
    intervening read replays the same input-free segment forever when the
    stack never dipped below its height h at the first visit (so the
    segment never looked below its own pushes) and, if h is 1, the revisit
    is at height 1 too (the segment may have inspected the bottom symbol,
    so only the identical configuration repeats).  Raises FuelExhausted if
    `fuel` epsilon moves pass without a read or a certificate (a backstop;
    the certificate fires on every genuine loop).
    """
    reading = a.reading
    warmup = 4 * len(a.states) + 16

    consumed = 0
    eps_run = 0
    tracker: dict[str, list[int]] | None = None
    prev = None
    for q, stack in steps(a, a.initial):
        if prev in reading:
            consumed += 1
            if consumed >= max_reads:
                return
            eps_run = 0
            tracker = None
        elif prev is not None:
            eps_run += 1
            if eps_run == warmup:
                tracker = {}
            if tracker is not None:
                h = len(stack)
                for entry in tracker.values():
                    if h < entry[1]:
                        entry[1] = h
                entry = tracker.get(q)
                if entry is not None:
                    if entry[1] >= entry[0] and (entry[0] > 1 or h == 1):
                        return  # certified: no further input is ever read
                    entry[0] = entry[1] = h
                else:
                    tracker[q] = [h, h]
            if eps_run > fuel:
                raise FuelExhausted(
                    f"{fuel} epsilon moves without a read or a loop certificate"
                )
        yield q, consumed
        prev = q


def run_prefix(a: NormalUdpda, n: int, fuel: int = DEFAULT_FUEL) -> str:
    """First n characteristic bits: bit i is 1 iff a final state is visited
    at some configuration reached after consuming exactly i letters.

    Raises FuelExhausted, as membership_sim does, if `fuel` epsilon moves
    pass without a read or a loop certificate, and BadRange if n cannot be
    the length of a string or no memory holds that many bits.
    """
    if not 0 <= n <= sys.maxsize:
        raise BadRange(f"prefix length {format_int(n)} is not between 0 and {sys.maxsize}")
    try:
        bits = bytearray(n)
    except MemoryError:
        raise BadRange(f"prefix length {format_int(n)} is too long to allocate") from None
    if n == 0:
        return ""
    finals = a.finals
    for q, consumed in _trace(a, n, fuel):
        if q in finals:
            bits[consumed] = 1
    return "".join("1" if b else "0" for b in bits)


def membership_sim(a: NormalUdpda, n: int, fuel: int = DEFAULT_FUEL) -> bool:
    """Whether a**n is accepted, by direct stepping of the unique computation.

    Raises BadRange if n is negative.
    """
    if n < 0:
        raise BadRange(f"word length {format_int(n)} is negative")
    finals = a.finals
    for q, consumed in _trace(a, n + 1, fuel):
        if consumed == n and q in finals:
            return True
    return False


def parse_udpda(text: str) -> RawUnpda:
    """Parse the .updpa text format.

    Header lines `states:`, `stack:` (bottom spelled `_`, listed first),
    `initial:`, `final:`; then transition lines `q <a|-> gamma -> q' <s|->`
    where `-` stands for an epsilon read / an empty push word and a push
    word of two symbols is written comma-joined.  `#` starts a comment.
    """
    headers = dict.fromkeys(("states", "stack", "initial", "final"))
    pushes = {"-": ()}  # each push word's tuple, made once
    transitions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        parts = line.split()
        if not parts:
            continue
        if ":" in parts[0]:  # a header line starts with its name and a colon
            name, _, rest = line.lstrip().partition(":")
            if name in headers:
                headers[name] = rest  # a repeated header: the last one wins
                continue
        if len(parts) != 6 or parts[3] != "->":
            raise FormatError(f"line {lineno}: expected 'q <a|-> g -> q2 <s|->'")
        q1, sigma, gamma, _, q2, s = parts
        if sigma not in ("a", "-"):
            raise FormatError(f"line {lineno}: input field must be 'a' or '-'")
        pushed = pushes.get(s)
        if pushed is None:
            pushed = pushes[s] = tuple(s.split(","))
        transitions.append((q1, "" if sigma == "-" else "a", gamma, q2, pushed))
    if None in headers.values():
        raise FormatError("missing states:/stack:/initial:/final: header")
    stack = headers["stack"].split()
    if not stack:
        raise FormatError("stack alphabet must at least contain the bottom symbol")
    try:
        return RawUnpda(
            states=frozenset(headers["states"].split()),
            stack_alphabet=frozenset(stack),
            bottom=stack[0],
            initial=headers["initial"].strip(),
            finals=frozenset(headers["final"].split()),
            transitions=transitions,
        )
    except ValueError as e:
        raise FormatError(str(e)) from e


def format_udpda(a: RawUnpda | NormalUdpda) -> str:
    """Render either machine form in the .updpa text format (bottom symbol first).

    Raises FormatError naming the least state or stack symbol that the
    format cannot carry: one holding whitespace or '#' (or no character), a
    state that starts like a header line ('final:x'), or a stack symbol
    that is '-' or holds ',' (it would read back as another push word).
    """
    states = sorted(a.states)
    stack = [a.bottom] + sorted(a.stack_alphabet - {a.bottom})
    lines = [
        "states: " + " ".join(states),
        "stack: " + " ".join(stack),
        "initial: " + a.initial,
        "final: " + " ".join(sorted(a.finals)),
    ]
    # a cheap test on the header lines; the names are looked at only if it fails
    if (lines[0].split()[1:] != states or lines[1].split()[1:] != stack or "#" in lines[0]
            or "#" in lines[1] or ":" in lines[0][7:] or "," in lines[1] or "-" in stack):
        headers = tuple(line.split(" ", 1)[0] for line in lines)
        bad = [(q, "state") for q in states
               if q.split() != [q] or "#" in q or q.startswith(headers)]
        bad += [(g, "stack symbol") for g in stack
                if g.split() != [g] or "#" in g or g == "-" or "," in g]
        if bad:
            name, kind = min(bad)
            raise FormatError(f"{kind} {name!r} cannot be written in the .updpa format")
    moves = sorted(a.transitions) if isinstance(a, RawUnpda) else _moves(a)
    for q1, sigma, gamma, q2, s in moves:
        lines.append(f"{q1} {sigma or '-'} {gamma} -> {q2} {','.join(s) or '-'}")
    return "\n".join(lines) + "\n"
