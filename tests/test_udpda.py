"""Machines: raw validation, determinism, normalization, simulation."""

import random

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from pdapress import slp, translate, udpda
from pdapress.errors import FormatError, FuelExhausted, NotDeterministic
from pdapress.udpda import NormalUdpda, RawUnpda

from helpers import (
    BOTTOM,
    machine_even,
    machine_loop,
    machine_push_loop,
    random_raw_udpda,
    raw_run_prefix,
    step_normal,
)


def raw(states, transitions, finals=(), initial="q0", stack=(BOTTOM,)):
    return RawUnpda(
        states=frozenset(states),
        stack_alphabet=frozenset(stack),
        bottom=BOTTOM,
        initial=initial,
        finals=frozenset(finals),
        transitions=frozenset(transitions),
    )


class TestRawValidation:
    def test_bottom_discipline(self):
        with pytest.raises(ValueError):
            raw(["q0"], [("q0", "a", BOTTOM, "q0", ("x",))], stack=(BOTTOM, "x"))
        with pytest.raises(ValueError):
            raw(["q0"], [("q0", "a", "x", "q0", (BOTTOM,))], stack=(BOTTOM, "x"))

    def test_push_limit(self):
        with pytest.raises(ValueError):
            raw(["q0"], [("q0", "a", "x", "q0", ("x", "x", "x"))], stack=(BOTTOM, "x"))

    def test_ok(self):
        a = raw(["q0"], [("q0", "a", BOTTOM, "q0", ("x", BOTTOM))], stack=(BOTTOM, "x"))
        assert a.size == 2


class TestDeterminism:
    def test_single_loop_ok(self):
        a = raw(["q0"], [("q0", "a", BOTTOM, "q0", (BOTTOM,))], finals=["q0"])
        assert udpda.check_deterministic(a) is None

    def test_mixed_eps_and_read(self):
        a = raw(["q0", "q1"], [("q0", "a", BOTTOM, "q1", (BOTTOM,)),
                               ("q0", "", BOTTOM, "q0", (BOTTOM,))])
        assert "mixes" in udpda.check_deterministic(a)

    def test_two_reading_moves(self):
        a = raw(["q0", "q1"], [("q0", "a", BOTTOM, "q1", (BOTTOM,)),
                               ("q0", "a", BOTTOM, "q0", (BOTTOM,))])
        assert "offers 2 moves" in udpda.check_deterministic(a)

    @staticmethod
    def conflicts():
        """Conflicts at three (state, top) pairs; the least offers 3 moves."""
        return raw(["q0", "q1"], [("q1", "a", BOTTOM, "q1", (BOTTOM,)),
                                  ("q1", "a", BOTTOM, "q0", (BOTTOM,)),
                                  ("q1", "a", "x", "q0", ()),
                                  ("q1", "", "x", "q1", ()),
                                  ("q0", "a", "x", "q0", ()),
                                  ("q0", "a", "x", "q1", ()),
                                  ("q0", "a", "x", "q1", ("x",)),
                                  ("q0", "a", BOTTOM, "q0", (BOTTOM,))],
                   stack=(BOTTOM, "x"))

    def test_least_conflict_is_reported(self):
        assert udpda.check_deterministic(self.conflicts()) == "state q0 on top x offers 3 moves"

    def test_normalize_rejects(self):
        a = raw(["q0", "q1"], [("q0", "a", BOTTOM, "q1", (BOTTOM,)),
                               ("q0", "a", BOTTOM, "q0", (BOTTOM,))])
        with pytest.raises(NotDeterministic):
            udpda.normalize(a)
        # the message is check_deterministic's, least conflict first
        a = self.conflicts()
        with pytest.raises(NotDeterministic) as err:
            udpda.normalize(a)
        assert str(err.value) == udpda.check_deterministic(a)


class TestNormalize:
    def test_push_two_split(self):
        a = raw(
            ["q0", "q1"],
            [("q0", "a", BOTTOM, "q1", ("x", BOTTOM)),
             ("q1", "a", "x", "q1", ("x", "x"))],
            finals=["q1"],
            stack=(BOTTOM, "x"),
        )
        m = udpda.normalize(a)
        assert udpda.run_prefix(m, 200) == raw_run_prefix(a, 200)

    def test_missing_moves_reject_longer_words(self):
        a = raw(["q0", "q1"], [("q0", "a", BOTTOM, "q1", (BOTTOM,))], finals=["q1"])
        m = udpda.normalize(a)
        assert udpda.run_prefix(m, 6) == "010000"

    def test_state_budget(self):
        rng = random.Random(33)
        for _ in range(60):
            a = random_raw_udpda(rng)
            m = udpda.normalize(a)
            assert len(m.states) <= 6 * len(a.states) * len(a.stack_alphabet)

    def test_preserves_prefix_on_random_raw(self):
        rng = random.Random(34)
        for i in range(300):
            a = random_raw_udpda(rng)
            m = udpda.normalize(a)
            want = raw_run_prefix(a, 500, fuel=20000)
            assert udpda.run_prefix(m, 500) == want, f"instance {i}"

    def test_already_normal_round_trip(self):
        m = machine_even()
        again = udpda.normalize(udpda.to_raw(m))
        assert udpda.run_prefix(again, 50) == udpda.run_prefix(m, 50)
        assert len(again.states) <= 6 * len(m.states) * len(m.stack_alphabet)


class TestSimulation:
    def test_loop_prefix(self):
        assert udpda.run_prefix(machine_loop(), 4) == "1111"

    def test_even_prefix(self):
        assert udpda.run_prefix(machine_even(), 5) == "10101"

    def test_final_eps_loop(self):
        m = NormalUdpda(
            internal={"q0": "q1", "q1": "q1"}, push={}, pop={},
            reading=frozenset({"q0"}), initial="q0", finals=frozenset({"q1"}),
            stack_alphabet=frozenset({BOTTOM}), bottom=BOTTOM,
        )
        assert udpda.run_prefix(m, 6) == "010000"

    def test_membership(self):
        m = machine_even()
        assert udpda.membership_sim(m, 4)
        assert not udpda.membership_sim(m, 3)
        assert udpda.membership_sim(machine_loop(), 0)

    def test_membership_matches_prefix(self):
        rng = random.Random(35)
        from helpers import random_normal_udpda
        for _ in range(40):
            m = random_normal_udpda(rng)
            bits = udpda.run_prefix(m, 60)
            for n in range(0, 60, 7):
                assert udpda.membership_sim(m, n) == (bits[n] == "1")

    def test_exactly_one_successor(self):
        rng = random.Random(36)
        from helpers import random_normal_udpda
        for _ in range(25):
            m = random_normal_udpda(rng)
            q, stack = m.initial, [m.bottom]
            for _ in range(50):
                q, _ = step_normal(m, q, stack)
                assert q in m.states

    def test_push_loop_terminates_via_certificate(self):
        # the stack grows forever; the certificate must fire, not the fuel
        m = machine_push_loop()
        assert udpda.run_prefix(m, 50, fuel=10**9) == "0" * 50

    def test_certificate_needs_the_bottom_height_kept(self):
        # a 2^8-step input-free prelude (longer than the certificate's
        # warm-up) ends in a trap: q pops the bottom to p, p pushes G and
        # returns to q, which now pops G into a final reading loop.  The
        # revisit of q one symbol higher is no loop: its first visit saw
        # the bottom symbol, the second sees G.
        g = translate._Gadgets()
        st = slp._Store("01")
        entry, exit_ = translate._slp_machine(g, st, st.imp(slp.power(slp.literal("0"), 2**8)), "s")
        g.reading.clear()
        g.pop[(exit_, BOTTOM)] = "q"
        g.pop[("q", BOTTOM)] = "p"
        g.push["p"] = ("q", "G")
        g.stack.add("G")
        g.pop[("q", "G")] = "r"
        g.internal["r"] = "r"
        g.reading.add("r")
        g.finals.add("r")
        m = translate._assemble(g, entry)
        assert udpda.run_prefix(m, 12) == "1" * 12
        assert translate.udpda_to_indicator(m).sequence(12) == "1" * 12

    @pytest.mark.parametrize("k", [8, 12, 16])
    @pytest.mark.parametrize("reading, final, expected", [
        (True, True, "1" * 12),
        (True, False, "0" * 12),
        (False, True, "1" + "0" * 11),
        (False, False, "0" * 12),
    ])
    def test_long_silent_prelude(self, k, reading, final, expected):
        # the gadget walk of 0^(2^k) with its reads cleared is an input-free
        # prelude of more than 2^k moves; it ends in a reading or a silent,
        # final or non-final loop at the bottom
        g = translate._Gadgets()
        st = slp._Store("01")
        entry, exit_ = translate._slp_machine(g, st, st.imp(slp.power(slp.literal("0"), 2**k)), "s")
        g.reading.clear()
        g.pop[(exit_, BOTTOM)] = "r"
        g.internal["r"] = "r"
        if reading:
            g.reading.add("r")
        if final:
            g.finals.add("r")
        m = translate._assemble(g, entry)
        assert udpda.run_prefix(m, 12) == expected
        assert translate.udpda_to_indicator(m).sequence(12) == expected
        with pytest.raises(FuelExhausted):
            udpda.run_prefix(m, 12, fuel=500)

    def test_fuel_backstop(self):
        # a 300-step silent chain ending at a final reading state, with fuel
        # below its length: both simulators report the exhausted fuel
        internal = {f"q{i}": f"q{i+1}" for i in range(300)}
        internal["q300"] = "q300"
        m = NormalUdpda(
            internal=internal, push={}, pop={},
            reading=frozenset({"q300"}), initial="q0", finals=frozenset({"q300"}),
            stack_alphabet=frozenset({BOTTOM}), bottom=BOTTOM,
        )
        with pytest.raises(FuelExhausted):
            udpda.run_prefix(m, 5, fuel=10)
        with pytest.raises(FuelExhausted):
            udpda.membership_sim(m, 3, fuel=10)
        # with enough fuel the chain is walked and the truth comes out
        assert udpda.run_prefix(m, 5, fuel=5000) == "11111"


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.randoms(use_true_random=False))
def test_three_semantics_agree(rng):
    # the textbook stepper, the simulator on the normalized machine, and the
    # compressed pipeline give the same characteristic bits; hypothesis
    # drives the generator's choices, so a failure shrinks to a machine with
    # few states, few stack symbols and missing moves
    a = random_raw_udpda(rng)
    note(a)
    want = raw_run_prefix(a, 300, fuel=20000)
    assert udpda.run_prefix(udpda.normalize(a), 300) == want
    assert translate.udpda_to_indicator(a).sequence(300) == want


class TestFormat:
    def test_round_trip(self):
        a = udpda.to_raw(udpda.normalize(random_raw_udpda(random.Random(37))))
        text = udpda.format_udpda(a)
        back = udpda.parse_udpda(text)
        assert udpda.run_prefix(udpda.normalize(back), 100) == \
            udpda.run_prefix(udpda.normalize(a), 100)
        assert udpda.format_udpda(back) == text

    def test_two_symbol_push(self):
        text = (
            "states: q0\nstack: _ x\ninitial: q0\nfinal: q0\n"
            "q0 a _ -> q0 x,_\nq0 - x -> q0 -\n"
        )
        a = udpda.parse_udpda(text)
        assert ("q0", "a", BOTTOM, "q0", ("x", BOTTOM)) in a.transitions

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            udpda.parse_udpda("states: q0\ninitial: q0\nfinal:\n")
        with pytest.raises(FormatError):
            udpda.parse_udpda("states: q0\nstack: _\ninitial: q0\nfinal:\nq0 b _ -> q0 -\n")
