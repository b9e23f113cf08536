"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's compressed-word paths: words
are expanded and checked symbol by symbol, machines are stepped directly
from the textbook semantics.
"""

from __future__ import annotations

import random

from pdapress import slp, udpda
from pdapress.slp import Slp
from pdapress.translate import TranscriptPair, TranscriptWorkspace
from pdapress.udpda import NormalUdpda, RawUnpda

BOTTOM = "_"

# No selection of these weights sums to HARD_TARGET (the weights left out
# would have to sum to 2), yet the comparison words of the instance take
# about 15.7k aligned blocks to walk even with recurring clean pairs
# skipped (about 197k without): a budget of 10,000 still runs out.
HARD_WEIGHTS = (4, 4, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 8, 8, 9, 9)
HARD_TARGET = 100


# ---------------------------------------------------------------------------
# Random inputs


def random_slp(rng: random.Random, alphabet="01", max_prods=8, max_arity=4,
               min_len=0, max_len=10_000) -> Slp:
    """A random valid program; regenerates until the word length fits."""
    alphabet = "".join(alphabet)
    while True:
        count = rng.randint(1, max_prods)
        names = [f"X{i}" for i in range(count)]
        prods = {}
        for i, name in enumerate(names):
            pool = list(alphabet) + names[i + 1:]
            arity = rng.randint(0 if i else 1, max_arity)
            prods[name] = tuple(rng.choice(pool) for _ in range(arity))
        p = Slp(alphabet, prods, names[0])
        if min_len <= slp.length(p) <= max_len:
            return p


def random_normal_udpda(rng: random.Random, max_states=12, max_stack=4) -> NormalUdpda:
    """A random machine already in the normal shape (always deterministic)."""
    nq = rng.randint(1, max_states)
    ngam = rng.randint(1, max_stack)
    states = [f"q{i}" for i in range(nq)]
    gammas = [BOTTOM] + [f"g{i}" for i in range(ngam - 1)]
    internal, push, pop = {}, {}, {}
    for q in states:
        kind = rng.choice(["int", "push", "pop"]) if ngam > 1 else rng.choice(["int", "pop"])
        if kind == "int":
            internal[q] = rng.choice(states)
        elif kind == "push":
            push[q] = (rng.choice(states), rng.choice(gammas[1:]))
        else:
            for g in gammas:
                pop[(q, g)] = rng.choice(states)
    return NormalUdpda(
        internal=internal,
        push=push,
        pop=pop,
        reading=frozenset(q for q in states if rng.random() < 0.6),
        initial="q0",
        finals=frozenset(q for q in states if rng.random() < 0.4),
        stack_alphabet=frozenset(gammas),
        bottom=BOTTOM,
    )


def random_raw_udpda(rng: random.Random, max_states=8, max_stack=3) -> RawUnpda:
    """A random deterministic raw machine with possibly missing moves."""
    nq = rng.randint(1, max_states)
    ngam = rng.randint(1, max_stack)
    states = [f"q{i}" for i in range(nq)]
    gammas = [BOTTOM] + [f"g{i}" for i in range(ngam - 1)]
    nonbottom = gammas[1:]
    transitions = set()
    for q in states:
        for gamma in gammas:
            if rng.random() < 0.15:
                continue  # missing move: the machine halts here
            sigma = "a" if rng.random() < 0.6 else ""
            q2 = rng.choice(states)
            if gamma == BOTTOM:
                choices = [(), (BOTTOM,)]
                if nonbottom:
                    choices.append((rng.choice(nonbottom), BOTTOM))
            else:
                choices = [(), (rng.choice(nonbottom),),
                           (rng.choice(nonbottom), rng.choice(nonbottom))]
            transitions.add((q, sigma, gamma, q2, rng.choice(choices)))
    return RawUnpda(
        states=frozenset(states),
        stack_alphabet=frozenset(gammas),
        bottom=BOTTOM,
        initial="q0",
        finals=frozenset(q for q in states if rng.random() < 0.4),
        transitions=frozenset(transitions),
    )


# ---------------------------------------------------------------------------
# Independent machine oracle (textbook semantics, raw machines)


def raw_run_prefix(a: RawUnpda, n: int, fuel: int = 4000) -> str:
    """Characteristic bits of a raw machine by direct stepping.

    Moves follow the raw semantics: the unique applicable transition
    rewrites the top of the stack; no applicable transition halts the
    machine.  `fuel` bounds input-free stretches (generous for tiny
    machines).
    """
    moves = {(t[0], t[2]): t for t in a.transitions}
    bits = bytearray(n)
    q = a.initial
    stack = [a.bottom]  # top at the end
    consumed = 0
    eps = 0
    while consumed < n:
        if q in a.finals:
            bits[consumed] = 1
        t = moves.get((q, stack[-1]))
        if t is None:
            break
        _, sigma, gamma, q2, s = t
        if gamma == a.bottom and s == ():
            pass  # bottom "pop": the stack stays at the bottom symbol
        else:
            stack.pop()
            stack.extend(reversed(s))
        q = q2
        if sigma == "a":
            consumed += 1
            eps = 0
        else:
            eps += 1
            if eps > fuel:
                break
    if consumed < n and q in a.finals and (eps <= fuel):
        bits[consumed] = 1
    return "".join("1" if b else "0" for b in bits)


def step_normal(a: NormalUdpda, q: str, stack: list[str]) -> tuple[str, bool]:
    """One move of a normal machine in place; returns (state, consumed?)."""
    reads = q in a.reading
    if q in a.internal:
        return a.internal[q], reads
    if q in a.push:
        q2, sym = a.push[q]
        stack.append(sym)
        return q2, reads
    top = stack[-1]
    q2 = a.pop[(q, top)]
    if top != a.bottom:
        stack.pop()
    return q2, reads


def collect_events(a: NormalUdpda, max_events: int, max_steps: int = 100_000) -> str:
    """Event log ('f' per final visit, 'a' per consumed letter) of the
    computation's first steps; for machines that keep consuming this is a
    true prefix of the transcript."""
    events = []
    q = a.initial
    stack = [a.bottom]
    for _ in range(max_steps):
        if len(events) >= max_events:
            break
        if q in a.finals:
            events.append("f")
        if q in a.reading:
            events.append("a")
        q, _ = step_normal(a, q, stack)
    return "".join(events[:max_events])


# ---------------------------------------------------------------------------
# The transcript dynamic program, re-checked after every rule


def _events(machine: NormalUdpda, state: str) -> str:
    """Events of one visit to a state: f if it is final, then a if it reads."""
    return ("f" if state in machine.finals else "") + ("a" if state in machine.reading else "")


def _segment_events(machine: NormalUdpda, q: str, stop: str, cap: int = 20000):
    """Events of the computation from (q, bottom) until a stop condition.

    stop "return": until the first pop state with the stack at the bottom;
    stop "height": until the first return to the starting height after at
    least one move.  Returns (end state, events) or None if cap is reached.
    """
    events: list[str] = []
    for step, (state, stack) in enumerate(udpda.steps(machine, q)):
        if step == cap:
            return None
        at_floor = len(stack) == 1
        if stop == "return" and at_floor and (state, machine.bottom) in machine.pop:
            return state, "".join(events)
        if stop == "height" and step > 0 and at_floor:
            return state, "".join(events)
        events.append(_events(machine, state))


def _stream_events(machine: NormalUdpda, q: str, limit: int, cap: int = 20000):
    """First `limit` events of the infinite computation from (q, bottom),
    plus whether a pop state was ever seen at the bottom (i.e. q returns)."""
    events = ""
    returned = False
    for _, (state, stack) in zip(range(cap), udpda.steps(machine, q)):
        if len(events) >= limit:
            break
        if len(stack) == 1 and (state, machine.bottom) in machine.pop:
            returned = True
        events += _events(machine, state)
    return events[:limit], returned


def check_workspace_invariants(ws: TranscriptWorkspace, rule: str):
    """Assert the documented invariants of the dynamic program.

    Verified by bounded simulation, so this is only run on small machines;
    segment checks that exceed the simulation cap are skipped.
    """
    machine = ws.machine
    st = ws.store
    dom_e, dom_w = set(ws.exit), ws.pushing
    dom_h = set(ws.edge) - dom_w
    # I1: the four domains partition the states entered so far, which are
    # states of the machine
    entered = set(ws.v)
    assert entered <= machine.states, rule
    assert dom_e | set(ws.edge) | set(ws.nonret) == entered, rule
    assert len(dom_e) + len(ws.edge) + len(ws.nonret) == len(entered), rule
    assert dom_w <= set(ws.edge), rule
    # Monotonicity: exits only grow, and a push that had entered before the
    # last rule and was no longer pending then is not pending again now
    if ws._watch is not None:
        old_e, old_w, old_v = ws._watch
        assert old_e <= dom_e and dom_w & old_v <= old_w, rule
    ws._watch = (dom_e, set(dom_w), entered)
    # I2: exit points and return-segment transcripts
    for q in sorted(dom_e):
        got = _segment_events(machine, q, "return")
        if got is None:
            continue
        end, events = got
        assert end == ws.exit[q][0], (rule, q)
        assert events == slp.expand(st.build(ws.exit[q][1]), len(events) + 1), (rule, q)
    # I3: horizontal successors and segment transcripts
    for q in sorted(dom_h):
        got = _segment_events(machine, q, "height")
        if got is None:
            continue
        end, events = got
        assert end == ws.edge[q][0], (rule, q)
        assert events == slp.expand(st.build(ws.edge[q][1]), len(events) + 1), (rule, q)
    # I4: pending pushes point at the pushed-to state
    for q in sorted(dom_w):
        assert machine.push[q][0] == ws.edge[q][0], (rule, q)
    # I5: non-returning states and their infinite transcripts
    for q in sorted(ws.nonret):
        pre = slp.expand(st.build(ws.nonret[q][0]), 10**6)
        loop = slp.expand(st.build(ws.nonret[q][1]), 10**6)
        limit = min(len(pre) + 3 * max(len(loop), 1), 200)
        events, returned = _stream_events(machine, q, limit)
        assert not returned, (rule, q)
        want = pre + loop * ((limit - len(pre)) // max(len(loop), 1) + 1) if loop else pre
        assert events == want[: len(events)], (rule, q)


class CheckedWorkspace(TranscriptWorkspace):
    """The library's workspace, with invariants I1-I5 and the monotonicity
    of its domains re-checked by simulation after every rule."""

    _watch = None  # (exits, pending pushes, entered states) after the last rule

    def apply_r1(self, q: str):
        super().apply_r1(q)
        check_workspace_invariants(self, "R1")

    def apply_r2(self, q: str):
        super().apply_r2(q)
        check_workspace_invariants(self, "R2")

    def apply_r3(self, q: str):
        super().apply_r3(q)
        check_workspace_invariants(self, "R3")

    def apply_r4(self, cycle: list[str]):
        super().apply_r4(cycle)
        check_workspace_invariants(self, "R4")


def main_stage(ws: TranscriptWorkspace):
    """Resolve every state of the machine, entering each; the library
    itself enters and resolves only what the transcript needs, on demand."""
    for q in sorted(ws.machine.states):
        ws.resolve(q)


def checked_transcript(a: NormalUdpda) -> TranscriptPair:
    """udpda_to_transcript on the checked workspace (small machines only).

    Every state is resolved first, so I1-I5 are re-checked on every rule
    for every state, not only for those the computation reaches, and at
    the end the domains partition the whole state set; the on-demand
    transcript of a fresh workspace must give the same pair.
    """
    ws = CheckedWorkspace(a)
    main_stage(ws)
    assert set(ws.v) == a.states
    tp = ws.transcript()
    assert TranscriptWorkspace(a).transcript() == tp
    return tp


# ---------------------------------------------------------------------------
# Handcrafted machines


def machine_loop(final=True) -> NormalUdpda:
    """One reading state looping on itself (universal language if final)."""
    return NormalUdpda(
        internal={"q0": "q0"}, push={}, pop={},
        reading=frozenset({"q0"}), initial="q0",
        finals=frozenset({"q0"} if final else set()),
        stack_alphabet=frozenset({BOTTOM}), bottom=BOTTOM,
    )


def machine_even() -> NormalUdpda:
    """Accepts words of even length."""
    return NormalUdpda(
        internal={"q0": "q1", "q1": "q0"}, push={}, pop={},
        reading=frozenset({"q0", "q1"}), initial="q0",
        finals=frozenset({"q0"}),
        stack_alphabet=frozenset({BOTTOM}), bottom=BOTTOM,
    )


def machine_mod(k: int, residues) -> NormalUdpda:
    """Accepts a^n with n mod k in residues."""
    states = [f"q{i}" for i in range(k)]
    return NormalUdpda(
        internal={states[i]: states[(i + 1) % k] for i in range(k)},
        push={}, pop={},
        reading=frozenset(states), initial="q0",
        finals=frozenset(states[r] for r in residues),
        stack_alphabet=frozenset({BOTTOM}), bottom=BOTTOM,
    )


def machine_eps_loop(reads: int, loop_final: bool) -> NormalUdpda:
    """Consumes `reads` letters, then loops forever on silent moves."""
    internal = {f"q{i}": f"q{i+1}" for i in range(reads)}
    internal[f"q{reads}"] = f"q{reads}"
    return NormalUdpda(
        internal=internal, push={}, pop={},
        reading=frozenset(f"q{i}" for i in range(reads)),
        initial="q0",
        finals=frozenset({f"q{reads}"} if loop_final else set()),
        stack_alphabet=frozenset({BOTTOM}), bottom=BOTTOM,
    )


def machine_push_loop(reading=False, final=False) -> NormalUdpda:
    """Pushes forever; optionally reads or visits a final state meanwhile."""
    return NormalUdpda(
        internal={}, push={"q0": ("q0", "x")}, pop={},
        reading=frozenset({"q0"} if reading else set()),
        initial="q0",
        finals=frozenset({"q0"} if final else set()),
        stack_alphabet=frozenset({BOTTOM, "x"}), bottom=BOTTOM,
    )


def machine_dead() -> NormalUdpda:
    """No final states at all."""
    return NormalUdpda(
        internal={"q0": "q0"}, push={}, pop={},
        reading=frozenset({"q0"}), initial="q0", finals=frozenset(),
        stack_alphabet=frozenset({BOTTOM}), bottom=BOTTOM,
    )


def machine_bottom_cycle(k: int, finals) -> NormalUdpda:
    """k pop states chained through bottom moves (a pure bottom cycle)."""
    states = [f"q{i}" for i in range(k)]
    pop = {}
    for i, q in enumerate(states):
        pop[(q, BOTTOM)] = states[(i + 1) % k]
    return NormalUdpda(
        internal={}, push={}, pop=pop,
        reading=frozenset(states[::2]), initial="q0",
        finals=frozenset(states[r] for r in finals),
        stack_alphabet=frozenset({BOTTOM}), bottom=BOTTOM,
    )


def machine_updown(k: int) -> NormalUdpda:
    """Pushes k symbols while reading, pops them back, accepts at the bottom,
    and repeats: accepts multiples of k (k reads per excursion)."""
    internal = {}
    push = {}
    pop = {}
    reading = set()
    up = [f"u{i}" for i in range(k)]
    down = [f"d{i}" for i in range(k)]
    for i in range(k):
        push[up[i]] = (up[i + 1] if i + 1 < k else down[0], "x")
        reading.add(up[i])
    for i in range(k):
        pop[(down[i], "x")] = down[i + 1] if i + 1 < k else "acc"
        pop[(down[i], BOTTOM)] = "acc"
    internal["acc"] = up[0]
    return NormalUdpda(
        internal=internal, push=push, pop=pop,
        reading=frozenset(reading), initial="acc",
        finals=frozenset({"acc"}),
        stack_alphabet=frozenset({BOTTOM, "x"}), bottom=BOTTOM,
    )


def handcrafted_machines() -> list[tuple[str, NormalUdpda]]:
    machines = [
        ("loop", machine_loop()),
        ("loop-nonfinal", machine_loop(final=False)),
        ("even", machine_even()),
        ("dead", machine_dead()),
        ("push-loop", machine_push_loop()),
        ("push-loop-reading", machine_push_loop(reading=True)),
        ("push-loop-final", machine_push_loop(final=True)),
        ("push-loop-reading-final", machine_push_loop(reading=True, final=True)),
    ]
    for reads in (0, 1, 2, 5):
        for fin in (False, True):
            machines.append((f"eps-loop-{reads}-{fin}", machine_eps_loop(reads, fin)))
    for k, res in [(3, (0,)), (3, (1, 2)), (5, (0, 2, 4)), (7, (1,)), (4, ())]:
        machines.append((f"mod-{k}-{res}", machine_mod(k, res)))
    for k in (1, 2, 3, 4):
        machines.append((f"updown-{k}", machine_updown(k)))
    for k, res in [(1, (0,)), (2, (1,)), (3, (0, 2)), (4, ())]:
        machines.append((f"bottom-cycle-{k}-{res}", machine_bottom_cycle(k, res)))
    return machines
