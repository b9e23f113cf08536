"""The three workloads: their seeded operation lists and expected answers.

Every operation is one `pda-press` command line run in process.  Its
expected exit code, standard output and, where it writes a file, a check
of that file are fixed when the workload is built, before anything is
timed.  All expected answers come from the independent oracles in
inputs.py.

Why these workloads:

* roundtrip -- the paper's core translation run both ways on a few large
  machines at three sizes (each at least 4x the previous), where per-call
  overhead is negligible and anything superlinear shows.  Family a is
  random raw machines (dynamic-program heavy, tiny output); family b is
  random indicator pairs with exponentially long words, taken through
  pair -> machine -> pair -> machine -> `decide equal`.  The smallest
  tier also builds one pair without --tight-stack, so the pop
  totalization blow-up is measured at a bounded cost.  Every layer but
  compare runs.
* compare -- long compressed comparisons on tiny machines: subset-sum
  words (half of them unsolvable, so the walk covers the whole word) and
  inclusion of machines with coprime loop lengths.  This is the coNP-hard
  core, whose work grows with window positions; translation is
  negligible.
* small-mix -- many short requests across every verb, where per-call
  fixed costs dominate (grammar copying per slp operation, pop
  totalization, argument parsing and formatting).  It is the only
  workload that runs the simulator, integer expressions and the
  generators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs as I

ORDER = "0<=1"


@dataclass
class Op:
    """One command line with its expected answer."""

    verb: str
    argv: list[str]
    tier: str
    code: int
    stdout: str | None = None  # expected standard output, stripped
    check: Callable[[], str | None] | None = None  # inspects written files
    outputs: tuple[Path, ...] = ()  # .updpa / .pair files counted in output_bytes


@dataclass
class Workload:
    tiers: list[str]  # smallest first; the last is the large tier
    ops: list[Op]
    warmup: list[Op] = field(default_factory=list)
    # short requests run after the operations in every pass; only the
    # latency percentiles use them (see PROBE)
    probe: list[Op] = field(default_factory=list)


def verdict(yes: bool, witness: int | None = None) -> tuple[int, str]:
    if yes:
        return 0, "yes"
    return 1, "no" if witness is None else f"no (witness n={witness})"


def machine_check(path: Path, want: I.Sequence, bits: int = 64) -> Callable[[], str | None]:
    """The written machine's first bits, by the independent stepper."""

    def check():
        head = I.machine_head(I.parse_machine(path.read_text()), bits, 4_000_000)
        if head is None:
            return f"{path.name}: stepper ran out of steps"
        if head != want.head(bits):
            return f"{path.name}: first bits {head[:24]}..., want {want.head(bits)[:24]}..."
        return None

    return check


def pair_check(path: Path, want: I.Sequence, seed: int) -> Callable[[], str | None]:
    def check():
        problem = I.sequence_mismatch(I.read_pair(path.read_text()), want, random.Random(seed))
        return None if problem is None else f"{path.name}: {problem}"

    return check


# ---------------------------------------------------------------------------
# roundtrip

ROUNDTRIP = {
    # raw states of family a (normalized: about 5.9x), productions of family b,
    # and the production count of the pair built without --tight-stack
    "full": {"raw_states": (1125, 4500, 18000), "prods": (125, 500, 2000), "loose": 32},
    "tiny": {"raw_states": (40, 160, 640), "prods": (16, 64, 128), "loose": 12},
}


def roundtrip(seed: int, work: Path, scale: str) -> Workload:
    cfg = ROUNDTRIP[scale]
    rng = random.Random(seed)
    tiers = ["t1", "t2", "t3"]
    ops: list[Op] = []
    for tier, n_raw, n_prods in zip(tiers, cfg["raw_states"], cfg["prods"]):
        ops.append(family_a(rng, work, tier, n_raw, seed))
        ops += chain(rng, work, f"b-{tier}-{n_prods}", n_prods, True, tier, seed)
        if tier == "t1":
            ops += chain(rng, work, f"b-{tier}-{cfg['loose']}", cfg["loose"], False, tier, seed)
    # The warm-up runs the smallest tier's verbs on inputs that are the same
    # for every seed: a random pair's conversion cost has a long tail (one
    # seed's t1 pair took 6x another's), and set-up should not inherit it.
    fixed, base = random.Random("warm-up"), work / "warm-up"
    base.mkdir()
    warmup = [family_a(fixed, base, "t1", cfg["raw_states"][0], 0),
              *chain(fixed, base, "b", cfg["prods"][0], True, "t1", 0)]
    return with_probe(Workload(tiers, ops, warmup), work, scale)


def family_a(rng, work: Path, tier: str, n_raw: int, seed: int) -> Op:
    """A random raw machine through udpda-to-indicator."""
    m, seq = I.machine_with_sequence(rng, n_raw, 4, 4 * n_raw + 100_000)
    src = work / f"a-{tier}.updpa"
    src.write_text(m.text())
    out = work / f"a-{tier}.pair"
    return Op("convert udpda-to-indicator",
              ["convert", "udpda-to-indicator", str(src), "-o", str(out)],
              tier, 0, "", pair_check(out, seq, seed), (out,))


def chain(rng, work: Path, base: str, n_prods: int, tight: bool, tier: str, seed: int) -> list[Op]:
    """pair -> machine -> pair -> machine, then the two machines must be equal."""
    text, seq = I.random_pair(rng, n_prods)
    src = work / f"{base}.pair"
    src.write_text(text)
    m1, p1, m2 = (work / f"{base}{suffix}" for suffix in (".updpa", ".out.pair", ".re.updpa"))
    flag = ["--tight-stack"] if tight else []
    return [
        Op("convert indicator-to-udpda",
           ["convert", "indicator-to-udpda", str(src), "-o", str(m1)] + flag,
           tier, 0, "", machine_check(m1, seq), (m1,)),
        Op("convert udpda-to-indicator",
           ["convert", "udpda-to-indicator", str(m1), "-o", str(p1)],
           tier, 0, "", pair_check(p1, seq, seed), (p1,)),
        Op("convert indicator-to-udpda",
           ["convert", "indicator-to-udpda", str(p1), "-o", str(m2)] + flag,
           tier, 0, "", machine_check(m2, seq), (m2,)),
        Op("decide equal", ["decide", "equal", str(m1), str(m2)], tier, *verdict(True)),
    ]


# ---------------------------------------------------------------------------
# compare

COMPARE = {
    # (subset-sum weights, coprime loop lengths) per tier.  The seed shuffles
    # the weights; a fixed multiset keeps the word length and the grammar
    # shape, and with them the comparison cost, nearly equal across seeds.
    "full": [([4, 5, 5, 6, 6, 6, 6, 7, 7, 8], (211, 223)),
             ([4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 8, 8], (503, 509)),
             ([4, 4, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 8, 8], (1009, 1013))],
    "tiny": [([2, 3, 4], (5, 7)), ([2, 3, 3, 4], (11, 13)), ([2, 3, 3, 3, 4], (17, 19))],
}


def compare(seed: int, work: Path, scale: str) -> Workload:
    rng = random.Random(seed)
    tiers = ["t1", "t2", "t3"]
    ops: list[Op] = []
    for tier, (multiset, loops) in zip(tiers, COMPARE[scale]):
        weights = list(multiset)
        rng.shuffle(weights)
        n = len(weights)
        hits = I.first_hits(weights)
        # unsolvable targets: no selection reaches them, so the walk covers the word
        unsolvable = [t for t in range(1, sum(weights)) if t not in hits]
        # solvable targets first hit in the last 1/16 of the selections, so
        # this walk too covers nearly the whole word
        late = sorted(t for t, i in hits.items() if 16 * i >= 15 * ((1 << n) - 1))
        for kind, target in (("u", rng.choice(unsolvable)), ("s", rng.choice(late))):
            ops += subset_sum_ops(work / f"ss-{tier}-{kind}", weights, target, tier, rng)
        ops += coprime_ops(work / f"cp-{tier}", loops, tier, rng)
    return with_probe(Workload(tiers, ops, [op for op in ops if op.tier == "t1"]), work, scale)


def subset_sum_ops(base: Path, weights: list[int], target: int, tier: str,
                   rng: random.Random) -> list[Op]:
    w1, w2 = Path(f"{base}.1.slp"), Path(f"{base}.2.slp")
    length = (1 << len(weights)) * (sum(weights) + 1)
    positions = [rng.randrange(length) for _ in range(32)]

    def check_words():
        for word, path in ((1, w1), (2, w2)):
            w = I.Word(path.read_text())
            if w.length != length:
                return f"{path.name}: length {w.length}, want {length}"
            for pos in positions:
                if w.at(pos) != I.subset_sum_bit(weights, target, word, pos):
                    return f"{path.name}: wrong bit at {pos}"
        return None

    witness = I.subset_sum_witness(weights, target)
    return [
        Op("gen subsetsum-compslp",
           ["gen", "subsetsum-compslp", "--weights", ",".join(map(str, weights)),
            "--target", str(target), "-o", str(base)],
           tier, 0, f"{w1} {w2}", check_words),
        Op("slp compare", ["slp", "compare", str(w1), str(w2), "--order", ORDER],
           tier, *verdict(witness is None, witness)),
    ]


def coprime_ops(base: Path, loops: tuple[int, int], tier: str, rng: random.Random) -> list[Op]:
    """Inclusion of prefix.(1 0^(p-1))^omega in prefix'.(1^r 0 1^(q-r-1))^omega.

    With p and q coprime the first machine accepts |prefix| + k*p for every
    k, and the second rejects exactly the residue r = k0*p mod q, so the
    least counterexample is |prefix| + k0*p.  k0 sits just below q, so the
    walk covers almost the whole window of |prefix| + p*q positions.
    """
    p, q = loops
    k0 = q - 1 - rng.randrange(min(6, q - 1))
    r = k0 * p % q
    bits = [rng.choice("01") for _ in range(8)]
    dominant = ["1" if b == "1" or rng.random() < 0.5 else "0" for b in bits]

    def pair(prefix: list[str], loop_parts: list[tuple[str, int]], tag: str) -> tuple[str, I.Sequence]:
        g = I.Grammar("01", tag)
        pre = g.word("".join(prefix))
        pre_text = g.text(pre)
        g = I.Grammar("01", tag)
        parts = [g.power(sym, k) for sym, k in loop_parts if k]
        loop = parts[0] if len(parts) == 1 else g.add(tuple(parts))
        loop_text = g.text(loop)
        loop_bits = "".join(sym * k for sym, k in loop_parts)
        return I.pair_text(pre_text, loop_text), I.Sequence("".join(prefix), loop_bits)

    left, left_seq = pair(bits, [("1", 1), ("0", p - 1)], "A")
    right, right_seq = pair(dominant, [("1", r), ("0", 1), ("1", q - r - 1)], "B")
    ops = []
    machines = []
    for side, text, seq in (("1", left, left_seq), ("2", right, right_seq)):
        src, machine = Path(f"{base}.{side}.pair"), Path(f"{base}.{side}.updpa")
        src.write_text(text)
        machines.append(machine)
        ops.append(Op("convert indicator-to-udpda",
                      ["convert", "indicator-to-udpda", str(src), "-o", str(machine),
                       "--tight-stack"],
                      tier, 0, "", machine_check(machine, seq, 32), (machine,)))
    ops.append(Op("decide included", ["decide", "included", *map(str, machines)],
                  tier, *verdict(False, len(bits) + k0 * p)))
    return ops


# ---------------------------------------------------------------------------
# small-mix

SMALL_MIX = {
    # instances per pass: subset-sum (4 ops each), machines (6 ops each), GSS (2 ops each)
    "full": {"subset_sum": 12, "machines": 36, "gss": 28},
    "tiny": {"subset_sum": 3, "machines": 6, "gss": 4},
}
SIM_BITS = 200
EXACT = 1 << 20  # longest window compared bit by bit for an exact answer


# The latency probe of roundtrip and compare: a small-mix sample of 100
# short requests (20 on the tiny scale).  Their own few, very unequal
# operations would put op_p50_ms and op_p90_ms on whichever operation
# happens to sit at that rank, so those two metrics are taken from short
# requests on every workload.  The probe is the same for every seed, so
# these percentiles see the process and the host, not a new request mix.
PROBE = {
    "full": {"subset_sum": 3, "machines": 12, "gss": 8},
    "tiny": {"subset_sum": 1, "machines": 2, "gss": 2},
}


def small_mix(seed: int, work: Path, scale: str) -> Workload:
    ops = short_requests(random.Random(seed), work, SMALL_MIX[scale])
    return Workload(["t1", "t2"], ops, first_of_each_verb(ops))


def with_probe(wl: Workload, work: Path, scale: str) -> Workload:
    (work / "probe").mkdir()
    wl.probe = short_requests(random.Random("probe"), work / "probe", PROBE[scale])
    wl.warmup += first_of_each_verb(wl.probe)
    return wl


def first_of_each_verb(ops: list[Op]) -> list[Op]:
    first: dict[str, Op] = {}
    for op in ops:
        first.setdefault(op.verb, op)
    return list(first.values())


def short_requests(rng: random.Random, work: Path, cfg: dict[str, int]) -> list[Op]:
    """Subset-sum, random-machine and GSS requests through every short verb."""
    zero = work / "zero.slp"
    zero.write_text("alphabet: 01\nZ -> 0\n")
    ops: list[Op] = []

    for i in range(cfg["subset_sum"]):
        # n weights of at most 5, the same in every run (the seed picks the
        # target): the generated machines, whose size grows with the square
        # of the words' grammars, then write the same bytes for every seed
        n = 1 + i % 3
        weights, spread = [0] * n, random.Random(i)
        for _ in range(n * (1 + i // 3 % 4)):
            weights[spread.choice([j for j in range(n) if weights[j] < 5])] += 1
        target = rng.randrange(sum(weights) + 1)
        tier = "t1" if n < 3 else "t2"
        base = work / f"ss{i}"
        ops += subset_sum_ops(base, weights, target, tier, rng)
        length = (1 << n) * (sum(weights) + 1)
        # closed-form bits of both words; the shared loop is "0"
        first = "".join(I.subset_sum_bit(weights, target, 1, pos) for pos in range(length))
        second = "".join(I.subset_sum_bit(weights, target, 2, pos) for pos in range(length))
        inc = work / f"inc{i}"
        m1, m2 = Path(f"{inc}.1.updpa"), Path(f"{inc}.2.updpa")
        witness = I.subset_sum_witness(weights, target)
        ops.append(Op("gen compslp-inclusion",
                      ["gen", "compslp-inclusion", f"{base}.1.slp", f"{base}.2.slp", str(zero),
                       "-o", str(inc)],
                      tier, 0, f"{m1} {m2}",
                      both(machine_check(m1, I.Sequence(first, "0"), length + 4),
                           machine_check(m2, I.Sequence(second, "0"), length + 4)),
                      (m1, m2)))
        ops.append(Op("decide included", ["decide", "included", str(m1), str(m2)],
                      tier, *verdict(witness is None, witness)))

    machines = []
    for i in range(cfg["machines"]):
        n_states = 1 + i % 8
        m, seq = I.machine_with_sequence(rng, n_states, 1 + i % 3, 50_000)
        path = work / f"m{i}.updpa"
        path.write_text(m.text())
        machines.append((m, seq, path, "t1" if n_states <= 4 else "t2"))
    for i, (m, seq, path, tier) in enumerate(machines):
        big = rng.getrandbits(80) | 1 << 79
        ops.append(Op("decide member", ["decide", "member", str(path), bin(big)],
                      tier, *verdict(seq.at(big) == "1")))
        ops.append(Op("decide empty", ["decide", "empty", str(path)],
                      tier, *verdict(set(seq.prefix + seq.loop) == {"0"})))
        ops.append(Op("decide universal", ["decide", "universal", str(path)],
                      tier, *verdict(set(seq.prefix + seq.loop) == {"1"})))
        # odd machines are compared with their predecessor when the exact
        # window is small enough to expand, otherwise with a renamed copy
        twin, twin_seq = m.renamed(rng), seq
        if i % 2:
            prev, prev_seq = machines[i - 1][:2]
            if max(seq.plen, prev_seq.plen) + math.lcm(seq.llen, prev_seq.llen) <= EXACT:
                twin, twin_seq = prev, prev_seq
        twin_path = work / f"m{i}.twin.updpa"
        twin_path.write_text(twin.text())
        same = I.sequence_mismatch(seq, twin_seq, rng, exact_limit=EXACT) is None
        ops.append(Op("decide equal", ["decide", "equal", str(path), str(twin_path)],
                      tier, *verdict(same)))
        out = work / f"m{i}.pair"
        ops.append(Op("convert udpda-to-indicator",
                      ["convert", "udpda-to-indicator", str(path), "-o", str(out)],
                      tier, 0, "", pair_check(out, seq, i), (out,)))
        ops.append(Op("sim prefix", ["sim", "prefix", str(path), str(SIM_BITS)],
                      tier, 0, seq.head(SIM_BITS)))

    for i in range(cfg["gss"]):
        u = [rng.randrange(4) for _ in range(rng.randrange(3))]
        v = [rng.randrange(4) for _ in range(rng.randrange(3))]
        target = rng.randrange(4)
        bound, witness = I.gss_truth(u, v, target)
        tier = "t1" if len(u) + len(v) <= 2 else "t2"
        expr = work / f"g{i}.expr"
        ops.append(Op("gen gss",
                      ["gen", "gss", "--u", ",".join(map(str, u)), "--v", ",".join(map(str, v)),
                       "--target", str(target), "-o", str(expr)],
                      tier, 0, f"bound: {bound}"))
        ops.append(Op("intexpr universal",
                      ["intexpr", "universal", str(expr), "--bound", str(bound)],
                      tier, *verdict(witness is None, witness)))

    return ops


def both(*checks):
    def check():
        for c in checks:
            problem = c()
            if problem:
                return problem
        return None

    return check


BUILDERS = {"roundtrip": roundtrip, "compare": compare, "small-mix": small_mix}
