"""Seeded inputs and independent expected answers for the benchmark.

Nothing in this module imports pdapress.  Inputs are written in the
package's text formats by hand, and every expected answer comes from an
oracle that shares no code with the program under measurement:

* closed forms (subset-sum word layout, coprime-loop witnesses, the GSS
  bound and least witness),
* brute force over selections (subset-sum and GSS truth),
* a direct stepper of the raw machine semantics, with a sound loop
  certificate, for random machines only,
* a small reader of the .slp / .pair formats for checking written words.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

BOTTOM = "_"


# ---------------------------------------------------------------------------
# Straight-line programs, written and read without the package


class Grammar:
    """Collects productions; every helper returns the name of a nonterminal."""

    def __init__(self, alphabet: str, tag: str):
        self.alphabet = alphabet
        self.tag = tag
        self.prods: dict[str, tuple[str, ...]] = {}
        self._memo: dict[tuple[str, ...], str] = {}

    def add(self, rhs: tuple[str, ...]) -> str:
        name = self._memo.get(rhs)
        if name is None:
            name = f"{self.tag}{len(self.prods)}"
            self.prods[name] = rhs
            self._memo[rhs] = name
        return name

    def power(self, sym: str, k: int) -> str:
        """Nonterminal for sym repeated k >= 1 times, by binary powering."""
        acc = None
        cur = sym if sym not in self.alphabet else self.add((sym,))
        while k:
            if k & 1:
                acc = cur if acc is None else self.add((acc, cur))
            k >>= 1
            if k:
                cur = self.add((cur, cur))
        return acc

    def word(self, text: str) -> str:
        return self.add(tuple(text))

    def text(self, axiom: str) -> str:
        lines = [f"alphabet: {self.alphabet}", f"{axiom} -> {' '.join(self.prods[axiom])}"]
        lines += [f"{n} -> {' '.join(r)}" for n, r in self.prods.items() if n != axiom]
        return "\n".join(lines) + "\n"


def pair_text(prefix: str, loop: str) -> str:
    """A .pair file from two .slp texts."""
    return "kind: indicator\n" + prefix + "---\n" + loop


class Word:
    """A program read back from text: exact length, bit queries, capped expansion."""

    def __init__(self, text: str):
        prods: dict[str, tuple[str, ...]] = {}
        alphabet = ""
        axiom = None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("alphabet:"):
                alphabet = line[len("alphabet:"):].strip()
                continue
            parts = line.split()
            rhs = () if parts[2:] == ["eps"] else tuple(parts[2:])
            prods[parts[0]] = rhs
            if axiom is None:
                axiom = parts[0]
        self.alphabet = set(alphabet)
        self.prods = prods
        self.axiom = axiom
        self.lens = self._lengths()
        self.length = self.lens[axiom]

    def _lengths(self) -> dict[str, int]:
        lens: dict[str, int] = {}
        stack = [self.axiom]
        while stack:
            name = stack[-1]
            if name in lens:
                stack.pop()
                continue
            todo = [s for s in self.prods[name] if s not in self.alphabet and s not in lens]
            if todo:
                stack.extend(todo)
                continue
            lens[name] = sum(1 if s in self.alphabet else lens[s] for s in self.prods[name])
            stack.pop()
        return lens

    def at(self, n: int) -> str:
        sym = self.axiom
        while sym not in self.alphabet:
            for child in self.prods[sym]:
                k = 1 if child in self.alphabet else self.lens[child]
                if n < k:
                    sym = child
                    break
                n -= k
        return sym

    def head(self, cap: int) -> str:
        """The first min(cap, length) symbols."""
        out: list[str] = []
        stack = [iter(self.prods[self.axiom])]
        while stack and len(out) < cap:
            for sym in stack[-1]:
                if sym in self.alphabet:
                    out.append(sym)
                else:
                    stack.append(iter(self.prods[sym]))
                break
            else:
                stack.pop()
        return "".join(out)


class Sequence:
    """An eventually periodic bit sequence prefix . loop^omega."""

    def __init__(self, prefix, loop):
        self.prefix = prefix
        self.loop = loop
        self.plen = prefix.length if isinstance(prefix, Word) else len(prefix)
        self.llen = loop.length if isinstance(loop, Word) else len(loop)

    def at(self, n: int) -> str:
        if n < self.plen:
            return self.prefix.at(n) if isinstance(self.prefix, Word) else self.prefix[n]
        i = (n - self.plen) % self.llen
        return self.loop.at(i) if isinstance(self.loop, Word) else self.loop[i]

    def head(self, n: int) -> str:
        """The first n bits, expanding no more of either program than needed."""
        pre = self.prefix.head(n) if isinstance(self.prefix, Word) else self.prefix[:n]
        need = n - len(pre)
        if need <= 0:
            return pre
        cap = min(self.llen, need)
        body = self.loop.head(cap) if isinstance(self.loop, Word) else self.loop[:cap]
        if self.llen >= need:
            return pre + body
        return pre + body * (need // self.llen) + body[: need % self.llen]


def read_pair(text: str) -> Sequence:
    """Parse a .pair file into its sequence (format errors raise ValueError)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("kind: indicator"):
        raise ValueError("not an indicator pair")
    try:
        cut = lines.index("---")
    except ValueError:
        raise ValueError("missing '---' separator") from None
    return Sequence(Word("\n".join(lines[1:cut])), Word("\n".join(lines[cut + 1:])))


def sequence_mismatch(got: Sequence, want: Sequence, rng: random.Random,
                      exact_limit: int = 1 << 18, samples: int = 64) -> str | None:
    """Compare two sequences; None when they agree.

    When max(prefixes) + lcm(loops) is at most exact_limit the comparison
    covers that whole window and is exact.  Otherwise it checks the first
    4096 positions and `samples` seeded positions across the window.
    """
    window = max(got.plen, want.plen) + math.lcm(got.llen, want.llen)
    if window <= exact_limit:
        a, b = got.head(window), want.head(window)
        if len(a) == len(b) == window:
            if a != b:
                i = next(i for i in range(window) if a[i] != b[i])
                return f"bit {i}: got {a[i]}, want {b[i]}"
            return None
    head = min(window, 4096)
    a, b = got.head(head), want.head(head)
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            return f"bit {i}: got {a[i]}, want {b[i]}"
    for _ in range(samples):
        n = rng.randrange(window)
        if got.at(n) != want.at(n):
            return f"bit {n}: got {got.at(n)}, want {want.at(n)}"
    return None


def random_cnf(rng: random.Random, n: int, tag: str) -> Grammar:
    """A random program over {0, 1} in Chomsky normal form with n productions.

    Every production reuses its predecessor, so all are reachable and the
    word length grows exponentially with n.
    """
    g = Grammar("01", tag)
    names = [g.add(("0",)), g.add(("1",))]
    while len(g.prods) < n:
        a = names[-1]
        b = names[rng.randrange(len(names))]
        if rng.random() < 0.5:
            a, b = b, a
        name = f"{tag}{len(g.prods)}"
        g.prods[name] = (a, b)
        names.append(name)
    return g


def random_pair(rng: random.Random, n: int) -> tuple[str, Sequence]:
    """A random indicator pair with about n productions in total."""
    pre, loop = random_cnf(rng, n // 2, "P"), random_cnf(rng, n - n // 2, "L")
    pre_text = pre.text(f"P{len(pre.prods) - 1}")
    loop_text = loop.text(f"L{len(loop.prods) - 1}")
    return pair_text(pre_text, loop_text), Sequence(Word(pre_text), Word(loop_text))


# ---------------------------------------------------------------------------
# Raw machines and the independent stepper


@dataclass
class RawMachine:
    states: list[str]
    stack: list[str]  # bottom first
    initial: str
    finals: set[str]
    moves: dict[tuple[str, str], tuple[str, str, tuple[str, ...]]]  # -> (read, q2, push)

    def text(self) -> str:
        lines = [
            "states: " + " ".join(self.states),
            "stack: " + " ".join(self.stack),
            "initial: " + self.initial,
            "final: " + " ".join(sorted(self.finals)),
        ]
        for (q, gamma), (sigma, q2, push) in self.moves.items():
            lines.append(f"{q} {sigma or '-'} {gamma} -> {q2} {','.join(push) or '-'}")
        return "\n".join(lines) + "\n"

    def renamed(self, rng: random.Random) -> "RawMachine":
        """The same machine under shuffled state names plus one unreachable state."""
        names = [f"r{i}" for i in range(len(self.states) + 1)]
        rng.shuffle(names)
        ren = dict(zip(self.states, names))
        spare = names[-1]
        moves = {(ren[q], g): (s, ren[q2], p) for (q, g), (s, q2, p) in self.moves.items()}
        moves[(spare, BOTTOM)] = ("a", spare, ())
        items = list(moves.items())
        rng.shuffle(items)
        return RawMachine(list(ren.values()) + [spare], list(self.stack), ren[self.initial],
                          {ren[q] for q in self.finals}, dict(items))


def random_raw_machine(rng: random.Random, n_states: int, n_stack: int,
                       missing: float = 0.15) -> RawMachine:
    """A deterministic raw machine; about `missing` of the moves are absent."""
    states = [f"q{i}" for i in range(n_states)]
    gammas = [BOTTOM] + [f"g{i}" for i in range(n_stack - 1)]
    nonbottom = gammas[1:]
    moves = {}
    for q in states:
        for gamma in gammas:
            if rng.random() < missing:
                continue
            sigma = "a" if rng.random() < 0.6 else ""
            q2 = rng.choice(states)
            if gamma == BOTTOM:
                choices = [(), (BOTTOM,)]
                if nonbottom:
                    choices.append((rng.choice(nonbottom), BOTTOM))
            elif nonbottom:
                choices = [(), (rng.choice(nonbottom),),
                           (rng.choice(nonbottom), rng.choice(nonbottom))]
            moves[(q, gamma)] = (sigma, q2, rng.choice(choices))
    finals = {q for q in states if rng.random() < 0.4}
    return RawMachine(states, gammas, "q0", finals, moves)


def raw_sequence(m: RawMachine, max_steps: int) -> Sequence | None:
    """The machine's exact characteristic sequence, or None if undecided.

    Bit i is 1 iff a final state is visited while exactly i letters have
    been read.  Stepping stops at a missing move (nothing is read again) or
    at a certified loop: two visits s < t of the same state with the same
    top symbol, where the stack never drops below its height at s in
    between.  The segment s..t then never inspects anything below that
    top symbol and repeats forever.
    """
    moves, finals, bottom = m.moves, m.finals, BOTTOM
    q, stack, consumed = m.initial, [bottom], 0
    bits = [0]
    last: dict[tuple[str, str], tuple[int, int, int]] = {}
    # increasing (step, height) pairs: the minimum height over [s, now] is the
    # height of the first entry whose step is at least s
    mono_steps: list[int] = []
    mono_heights: list[int] = []
    cycle_end = None  # consumed count at which the loop was certified, and its period
    for step in range(max_steps):
        if q in finals:
            bits[consumed] = 1
        h = len(stack)
        while mono_heights and mono_heights[-1] >= h:
            mono_steps.pop()
            mono_heights.pop()
        mono_steps.append(step)
        mono_heights.append(h)
        top = stack[-1]
        if cycle_end is None:
            key = (q, top)
            prev = last.get(key)
            if prev is not None:
                s, hs, cs = prev
                low = mono_heights[bisect.bisect_left(mono_steps, s)]
                if low >= hs and h >= hs:
                    period = consumed - cs
                    if period == 0:
                        return Sequence("".join(map(str, bits)), "0")
                    cycle_end = (consumed, period)
            last[key] = (step, h, consumed)
        move = moves.get((q, top))
        if move is None:
            return Sequence("".join(map(str, bits)), "0")
        sigma, q2, push = move
        if top == bottom:
            if push and push != (bottom,):
                stack.append(push[0])
        else:
            stack.pop()
            stack.extend(reversed(push))
        q = q2
        if sigma:
            consumed += 1
            bits.append(0)
            if cycle_end is not None and consumed == cycle_end[0] + cycle_end[1] + 1:
                c, period = cycle_end
                text = "".join(map(str, bits))
                return Sequence(text[: c + 1], text[c + 1: c + 1 + period])
    return None


def machine_with_sequence(rng: random.Random, n_states: int, n_stack: int,
                          max_steps: int) -> tuple[RawMachine, Sequence]:
    """Draw machines until the stepper decides one's sequence within max_steps.

    Draws are discarded only when the oracle cannot decide them, never on
    the program's answer.
    """
    while True:
        m = random_raw_machine(rng, n_states, n_stack)
        seq = raw_sequence(m, max_steps)
        if seq is not None:
            return m, seq


def parse_machine(text: str) -> RawMachine:
    """Read a .updpa file back (for checking machines the program writes)."""
    states, stack, initial, finals = [], [], "", set()
    moves = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("states:"):
            states = line[7:].split()
        elif line.startswith("stack:"):
            stack = line[6:].split()
        elif line.startswith("initial:"):
            initial = line[8:].strip()
        elif line.startswith("final:"):
            finals = set(line[6:].split())
        else:
            q, sigma, gamma, _, q2, push = line.split()
            moves[(q, gamma)] = ("" if sigma == "-" else "a", q2,
                                 () if push == "-" else tuple(push.split(",")))
    if stack and stack[0] != BOTTOM:
        raise ValueError(f"bottom symbol {stack[0]!r} is not {BOTTOM!r}")
    return RawMachine(states, stack, initial, finals, moves)


def machine_head(m: RawMachine, n: int, max_steps: int) -> str | None:
    """First n characteristic bits by plain stepping; None if max_steps run
    out first.  A missing move ends reading, so the remaining bits are 0."""
    moves, finals, bottom = m.moves, m.finals, BOTTOM
    q, stack, consumed = m.initial, [bottom], 0
    bits = bytearray(n)
    for _ in range(max_steps):
        if q in finals:
            bits[consumed] = 1
        top = stack[-1]
        move = moves.get((q, top))
        if move is None:
            break
        sigma, q2, push = move
        if top == bottom:
            if push and push != (bottom,):
                stack.append(push[0])
        else:
            stack.pop()
            stack.extend(reversed(push))
        q = q2
        if sigma:
            consumed += 1
            if consumed == n:
                break
    else:
        return None
    return "".join("1" if b else "0" for b in bits)


# ---------------------------------------------------------------------------
# Subset sum, coprime loops, generalized subset sum


def first_hits(weights: list[int]) -> dict[int, int]:
    """Least selection index reaching each subset sum.

    Selections are indexed in the order the generator lays out factors:
    bit n-1-j of the index selects weights[j] (the first weight is the most
    significant bit).
    """
    n = len(weights)
    hits: dict[int, int] = {}
    for i in range(1 << n):
        s = sum(w for j, w in enumerate(weights) if i >> (n - 1 - j) & 1)
        hits.setdefault(s, i)
    return hits


def subset_sum_witness(weights: list[int], target: int) -> int | None:
    """Least violating position of the comparison instance, or None if unsolvable.

    Both words are 2^n blocks of length sum+1.  Block i of the first word
    has its single 1 at offset x_i . w; every block of the second has its
    single 0 at offset target; the first shared spot is the violation.
    """
    i = first_hits(weights).get(target)
    return None if i is None else i * (sum(weights) + 1) + target


def subset_sum_bit(weights: list[int], target: int, word: int, pos: int) -> str:
    """Closed form of the comparison words: bit `pos` of word 1 or 2."""
    n, s = len(weights), sum(weights)
    block, off = divmod(pos, s + 1)
    if word == 1:
        x = sum(w for j, w in enumerate(weights) if block >> (n - 1 - j) & 1)
        return "1" if off == x else "0"
    return "0" if off == target else "1"


def gss_truth(u: list[int], v: list[int], target: int) -> tuple[int, int | None]:
    """(bound, least witness or None) for the GSS gadget, by brute force.

    With M = max(sum(u) + sum(v), target) + 1 the gadget is checked up to
    bound 2^|v| * M, and the least missing number is k*M + target for the
    least selection k of v that no selection of u completes.
    """
    big = max(sum(u) + sum(v), target) + 1
    x_sums = {0}
    for w in u:
        x_sums |= {s + w for s in x_sums}
    for k in range(1 << len(v)):
        y = sum(w for j, w in enumerate(v) if k >> j & 1)
        if target - y not in x_sums:
            return (1 << len(v)) * big, k * big + target
    return (1 << len(v)) * big, None
