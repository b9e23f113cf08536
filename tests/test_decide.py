"""Decision procedures over indicator pairs."""

import random

import pytest

from pdapress import compare, decide, slp, udpda
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
