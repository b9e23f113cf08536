"""Decision procedures over indicator pairs."""

import math
import random

import pytest

from pdapress import compare, decide, slp, translate, udpda
from pdapress.errors import BadRange
from pdapress.reductions import (
    SubsetSumInstance,
    gen_compslp_to_inclusion,
    gen_subsetsum_to_compslp,
)
from pdapress.translate import IndicatorPair, indicator_to_udpda, slp_to_udpda

from helpers import (
    HARD_TARGET,
    HARD_WEIGHTS,
    machine_dead,
    machine_even,
    machine_loop,
    machine_mod,
    random_normal_udpda,
    random_raw_udpda,
    random_slp,
)


def bits(word):
    return slp.literal(word, "01")


class TestMembership:
    def test_examples(self):
        m = slp_to_udpda(bits("101"))
        assert decide.compressed_membership(m, 3)
        assert not decide.compressed_membership(m, 0)
        assert decide.compressed_membership(machine_even(), 10**100)
        assert not decide.compressed_membership(machine_even(), 10**100 + 1)

    def test_matches_simulation(self):
        rng = random.Random(60)
        for _ in range(25):
            m = random_normal_udpda(rng)
            pair = None
            for n in (0, 1, 2, 3, 17, 64, 301):
                assert decide.compressed_membership(m, n) == udpda.membership_sim(m, n)

    def test_negative_length_is_a_bad_range(self):
        # not a position of the prefix: the message names the length given
        m = slp_to_udpda(bits("10"))
        for member in (decide.compressed_membership, udpda.membership_sim):
            with pytest.raises(BadRange, match="word length -1 is negative"):
                member(m, -1)


class TestEmptinessUniversality:
    def test_examples(self):
        assert decide.emptiness(machine_dead())
        assert not decide.emptiness(machine_even())
        assert decide.universality(machine_loop())
        assert not decide.universality(machine_even())
        assert decide.emptiness(slp_to_udpda(bits("000")))
        m101 = slp_to_udpda(bits("101"))
        assert not decide.emptiness(m101) and not decide.universality(m101)

    def test_long_words_are_exact(self):
        # 2^40 zeros, far beyond any expansion: the answer comes from
        # counting ones, not from comparing words
        zeros = slp.power(bits("0"), 2**40)
        m = slp_to_udpda(zeros)
        assert decide.emptiness(m) and not decide.universality(m)
        m = slp_to_udpda(slp.concat(zeros, bits("1")))
        assert not decide.emptiness(m) and not decide.universality(m)
        assert decide.compressed_membership(m, 2**40 + 1)

    def test_cross_checks(self):
        rng = random.Random(61)
        loop = machine_loop()
        dead = machine_dead()
        for _ in range(20):
            m = random_normal_udpda(rng, max_states=8)
            assert decide.universality(m) == decide.equivalence(m, loop)
            assert decide.emptiness(m) == decide.inclusion(m, dead).holds


class TestEquivalence:
    def test_distinct_pairs_same_language(self):
        a = indicator_to_udpda(IndicatorPair(bits("1"), bits("01")))
        b = indicator_to_udpda(IndicatorPair(bits("10"), bits("10")))
        assert decide.equivalence(a, b)

    def test_inequivalent(self):
        assert not decide.equivalence(machine_even(), machine_loop())
        # Fine-Wilf boundary: each pair first differs at N - 1, the last
        # position of the window N = P + k1 + k2 - gcd(k1, k2)
        for (p1, l1), (p2, l2), last in [
            (("", "01"), ("", "010"), 3),
            (("1", "01"), ("1", "0100"), 4),
        ]:
            x, y = IndicatorPair(bits(p1), bits(l1)), IndicatorPair(bits(p2), bits(l2))
            assert x.sequence(last) == y.sequence(last)
            assert x.sequence(last + 1) != y.sequence(last + 1)
            assert not decide._pair_equal(x, y)
            assert not decide.equivalence(indicator_to_udpda(x), indicator_to_udpda(y))

    def test_reflexive_symmetric(self):
        rng = random.Random(62)
        for _ in range(15):
            m1 = random_normal_udpda(rng, max_states=7)
            m2 = random_normal_udpda(rng, max_states=7)
            assert decide.equivalence(m1, m1)
            assert decide.equivalence(m1, m2) == decide.equivalence(m2, m1)

    def test_loop_rotations(self):
        base = IndicatorPair(bits("110"), bits("0110"))
        variants = [
            IndicatorPair(bits("1100"), bits("1100")),
            IndicatorPair(bits("11001"), bits("1001")),
            IndicatorPair(slp.concat(bits("110"), bits("0110")), bits("0110")),
            IndicatorPair(bits("110"), slp.power(bits("0110"), 3)),
        ]
        a = indicator_to_udpda(base)
        for v in variants:
            assert v.sequence(40) == base.sequence(40)
            assert decide.equivalence(a, indicator_to_udpda(v))


class TestInclusion:
    def test_examples(self):
        assert decide.inclusion(machine_even(), machine_loop()).holds
        res = decide.inclusion(machine_loop(), machine_even())
        assert res.verdict == compare.FAILS and res.witness == 1

    def test_witness_is_shortest(self):
        a = machine_mod(6, (0, 3))
        b = machine_mod(6, (0,))
        res = decide.inclusion(a, b)
        assert res.witness == 3

    def test_matches_equivalence_on_corpus(self):
        rng = random.Random(63)
        for _ in range(25):
            m1 = random_normal_udpda(rng, max_states=7)
            m2 = random_normal_udpda(rng, max_states=7)
            r12 = decide.inclusion(m1, m2)
            r21 = decide.inclusion(m2, m1)
            if compare.BUDGET_EXCEEDED in (r12.verdict, r21.verdict):
                continue
            assert decide.equivalence(m1, m2) == (r12.holds and r21.holds)

    def test_budget_exceeded_possible(self):
        # the comparison of an unsolvable 16-weight subset-sum instance,
        # routed through the inclusion reduction: the walk needs far more
        # blocks than the budget allows
        def machines(target):
            p1, p2 = gen_subsetsum_to_compslp(SubsetSumInstance(HARD_WEIGHTS, target))
            return p1, p2, gen_compslp_to_inclusion(p1, p2, bits("0"))

        _, _, (a, b) = machines(HARD_TARGET)
        res = decide.inclusion(a, b, budget=10_000)
        assert res.verdict == compare.BUDGET_EXCEEDED
        # a violation inside the budget is still reported
        p1, p2, (a, b) = machines(50)
        res = decide.inclusion(a, b, budget=10_000)
        assert res.verdict == compare.FAILS
        assert res.witness == compare.comp_slp(p1, p2, compare.ZERO_LEQ_ONE).witness

    def test_no_copy_after_translation(self, monkeypatch):
        # the pairs are built first; from then on every decision reads them
        # where their grammars live, with no store copy and no canonical build
        rng = random.Random(64)
        machines = [random_normal_udpda(rng, max_states=8) for _ in range(30)]
        pairs = [translate.udpda_to_indicator(m) for m in machines]
        pairs += [IndicatorPair(random_slp(rng, max_len=200), random_slp(rng, min_len=1, max_len=90))
                  for _ in range(10)]
        cases = list(zip(pairs, pairs[1:] + pairs[:1]))
        want = [(decide._pair_included(x, y, compare.DEFAULT_BUDGET), decide._pair_equal(x, y),
                 udpda.format_udpda(indicator_to_udpda(x))) for x, y in cases]
        verdicts = [(decide.emptiness(m), decide.universality(m),
                     decide.compressed_membership(m, 1 << 70), decide.equivalence(m, n),
                     decide.inclusion(m, n)) for m, n in zip(machines, machines[1:])]

        def refuse(*args, **kwargs):
            raise AssertionError("a store copy or a canonical build")

        monkeypatch.setattr(slp._Store, "imp", refuse)
        # no program makes its canonical productions (on first read); the
        # machine builder still names its own CNF copy by _Store.canonical
        productions = slp.Slp.productions.fget
        monkeypatch.setattr(slp.Slp, "productions",
                            property(lambda p: refuse() if p._prods is None else productions(p)))
        got = [(decide._pair_included(x, y, compare.DEFAULT_BUDGET), decide._pair_equal(x, y),
                udpda.format_udpda(indicator_to_udpda(x))) for x, y in cases]
        assert [(r.verdict, r.witness, r.visited) for r, *_ in got] == \
            [(r.verdict, r.witness, r.visited) for r, *_ in want]
        assert [rest for _, *rest in got] == [rest for _, *rest in want]
        # the translation itself copies nothing either
        assert [(decide.emptiness(m), decide.universality(m),
                 decide.compressed_membership(m, 1 << 70), decide.equivalence(m, n),
                 decide.inclusion(m, n)) for m, n in zip(machines, machines[1:])] == verdicts

    def test_walks_the_cuts_in_place(self, monkeypatch):
        # both pairs are written into one store and their cuts walked there:
        # no topological pass, no store copy and no canonical build
        rng = random.Random(67)
        machines = [(random_normal_udpda(rng, max_states=10) if i % 2 else
                     random_raw_udpda(rng, max_states=8)) for i in range(40)]

        def answers():
            return [(decide.inclusion(m, n), decide.inclusion(n, m), decide.emptiness(m),
                     decide.universality(m), decide.compressed_membership(m, i * 37))
                    for i, (m, n) in enumerate(zip(machines, machines[1:] + machines[:1]))]

        def refuse(*args, **kwargs):
            raise AssertionError("a topological pass, a store copy or a canonical build")

        want = answers()
        monkeypatch.setattr(slp, "_toposort", refuse)
        monkeypatch.setattr(slp._Store, "imp", refuse)
        monkeypatch.setattr(slp._Store, "canonical", refuse)
        got = answers()
        assert [[(r.verdict, r.witness, r.visited, r.checked, r.period) for r in row[:2]]
                for row in got] == \
            [[(r.verdict, r.witness, r.visited, r.checked, r.period) for r in row[:2]]
             for row in want]
        assert [row[2:] for row in got] == [row[2:] for row in want]
        # a machine against itself: every name is shared, so each of the two
        # windows is one block and equivalence needs no fingerprint
        for m in machines:
            res = decide.inclusion(m, m)
            assert res.holds and res.visited <= 2
            assert decide.equivalence(m, m)

    def test_long_coprime_loops(self):
        # loops of coprime lengths near 10^4 give a window of ~10^8
        # positions; the blocks of zeros are skipped whole
        def long_loop_machine(p):
            loop = slp.concat(slp.power(bits("0"), p - 1), bits("1"))
            return indicator_to_udpda(IndicatorPair(bits(""), loop))

        res = decide.inclusion(long_loop_machine(10_007), long_loop_machine(10_009),
                               budget=10_000)
        assert res.verdict == compare.FAILS and res.witness == 10_006
        assert res.visited <= 100


def residue_pair(rng, g):
    """Indicator pairs (x, y) whose loops have gcd g and whose periodic parts
    hold class by class: each residue class mod g is all 0 in x's loop or
    all 1 in y's, the other side's bits there drawn at random (a third of
    the time one bit per class, so the loops repeat g bits).  The prefix
    bits mostly hold too; sometimes one bit anywhere is flipped."""
    m1 = rng.randint(1, 40)
    m2 = rng.choice([m for m in range(1, 41) if math.gcd(m, m1) == 1])
    free = [rng.choice("xy") for _ in range(g)]
    per_class = rng.random() < 1 / 3

    def loop(side, plen, k):
        drawn = [rng.choice("01") if free[c] == side else "0" if side == "x" else "1"
                 for c in range(g)]
        return [drawn[(plen + i) % g] if per_class else
                rng.choice("01") if free[(plen + i) % g] == side else drawn[(plen + i) % g]
                for i in range(k)]

    py = rng.randint(0, 12)
    y_prefix, y_loop = [rng.choice("01") for _ in range(py)], loop("y", py, g * m2)
    px = rng.randint(0, 12)
    y_seq = (y_prefix + y_loop * px)[:px]
    x_prefix = [b if rng.random() < 0.5 else "0" for b in y_seq]
    x_loop = loop("x", px, g * m1)
    if rng.random() < 0.3:
        flip = rng.choice([x_prefix, x_loop, y_prefix, y_loop])
        if flip:
            i = rng.randrange(len(flip))
            flip[i] = "1" if flip[i] == "0" else "0"

    def program(word):
        word = "".join(word)
        if len(word) > g and word == word[:g] * (len(word) // g):
            return slp.power(slp.literal(word[:g], "01"), len(word) // g)
        p = slp.literal(word, "01")
        return slp.to_cnf(p) if word and rng.random() < 0.5 else p

    return (IndicatorPair(program(x_prefix), program(x_loop)),
            IndicatorPair(program(y_prefix), program(y_loop)))


class TestResidueInclusion:
    """Inclusion past the prefixes compares the loops' powers, which a short
    loop lets the comparison decide by residues."""

    def test_agrees_with_the_whole_window_walk(self, monkeypatch):
        rng = random.Random(64)
        by_residues = only_by_residues = 0
        for i in range(400):
            x, y = residue_pair(rng, [1, 2, 3, 6][i % 4])
            got = decide._pair_included(x, y, compare.DEFAULT_BUDGET)
            k1, k2 = slp.length(x.loop), slp.length(y.loop)
            n = max(slp.length(x.prefix), slp.length(y.prefix)) + math.lcm(k1, k2)
            with monkeypatch.context() as m:
                m.setattr(compare, "PERIOD_CAP", 0)  # one walk over P + lcm
                walked = compare.comp_slp(x.window(n), y.window(n), compare.ZERO_LEQ_ONE)
            assert walked.period == 0
            assert (got.verdict, got.witness, got.checked) == (
                walked.verdict, walked.witness, walked.checked)
            # brute force over the expanded sequences
            want = next((i for i, (a, b) in enumerate(zip(x.sequence(n), y.sequence(n)))
                         if a > b), None)
            assert got.witness == want and got.holds == (want is None)
            assert got.visited <= (n if want is None else want + 1)
            by_residues += got.period > 0
            # holds though x's loop has a 1 and y's loop a 0
            only_by_residues += got.holds and slp.count(x.loop, "1") > 0 < slp.count(y.loop, "0")
        assert by_residues >= 20 and only_by_residues >= 100

    def test_through_machines(self, monkeypatch):
        rng = random.Random(65)
        for i in range(12):
            a, b = map(indicator_to_udpda, residue_pair(rng, [1, 2, 3, 6][i % 4]))
            got = decide.inclusion(a, b)
            monkeypatch.setattr(compare, "PERIOD_CAP", 0)
            walked = decide.inclusion(a, b)
            monkeypatch.undo()
            assert (got.verdict, got.witness, got.checked) == (
                walked.verdict, walked.witness, walked.checked)

    def test_budget_past_the_lookup_threshold(self):
        # 1 0^210 against 1^24 0 1^198: y's one 0 per loop first meets x's 1
        # after 221 copies of x's loop.  The walk over the loops looks for a
        # short power after as many blocks as the two windows' grammars
        # have symbols, whatever else their store holds, so a budget just
        # past that still decides by residues.
        x = IndicatorPair(bits("10011001"), slp.concat(bits("1"), slp.power(bits("0"), 210)))
        y = IndicatorPair(bits("11111001"), slp.concat(
            slp.concat(slp.power(bits("1"), 24), bits("0")), slp.power(bits("1"), 198)))
        a, b = map(indicator_to_udpda, (x, y))
        for budget in (106, 110, compare.DEFAULT_BUDGET):
            res = decide.inclusion(a, b, budget)
            assert (res.verdict, res.witness, res.visited, res.period) == (
                compare.FAILS, 8 + 221 * 211, 106, 211)
        assert decide.inclusion(a, b, 105).verdict == compare.BUDGET_EXCEEDED

    @pytest.mark.parametrize("p, q", [(1009, 1013), (4001, 4003), (10007, 10009),
                                      (30011, 30013)])
    def test_long_joint_periods(self, p, q):
        # windows of 3.07M, 48.0M and 300M positions; the walk alone takes
        # 16.2k, 66.9k and 264k blocks.  The last loops are longer than
        # PERIOD_CAP but powers of a base of 3.
        x, y = (IndicatorPair(bits("0"), slp.power(bits("100"), k)) for k in (p, q))
        res = decide._pair_included(x, y, compare.DEFAULT_BUDGET)
        assert res.holds and res.checked == 1 + 3 * p * q and res.period == 3
        assert res.visited <= 1000
        # a bit flipped in one copy of y's loop fails at its first meeting with x
        flipped = IndicatorPair(bits("0"), slp.concat(slp.power(bits("100"), q - 1),
                                                      bits("000")))
        res = decide._pair_included(x, flipped, compare.DEFAULT_BUDGET)
        assert res.verdict == compare.FAILS
        # x has a 1 at every 1 + 3t; the flipped one sits at 1 + 3(q - 1) + 3 q s
        s = next(s for s in range(p) if (3 * (q - 1) + 3 * q * s) % (3 * p) % 3 == 0)
        assert res.witness == 1 + 3 * (q - 1) + 3 * q * s
