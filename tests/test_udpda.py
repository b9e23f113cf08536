"""Machines: raw validation, determinism, normalization, simulation."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from pdapress import slp, translate, udpda
from pdapress.errors import FormatError, FuelExhausted, NotDeterministic
from pdapress.udpda import NormalUdpda, RawUnpda

from helpers import (
    BOTTOM,
    check_fixed_point,
    machine_even,
    machine_loop,
    machine_push_loop,
    random_raw_udpda,
    random_uniform_raw_udpda,
    raw_configurations,
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
    # a RawUnpda is deterministic by construction: its constructor raises
    # NotDeterministic, naming the least (state, top) pair with two moves
    def test_single_loop_ok(self):
        a = raw(["q0"], [("q0", "a", BOTTOM, "q0", (BOTTOM,))], finals=["q0"])
        assert a.moves == {("q0", BOTTOM): ("a", "q0", (BOTTOM,))}

    def test_mixed_eps_and_read(self):
        with pytest.raises(NotDeterministic, match="mixes"):
            raw(["q0", "q1"], [("q0", "a", BOTTOM, "q1", (BOTTOM,)),
                               ("q0", "", BOTTOM, "q0", (BOTTOM,))])

    def test_two_reading_moves(self):
        with pytest.raises(NotDeterministic, match="offers 2 moves"):
            raw(["q0", "q1"], [("q0", "a", BOTTOM, "q1", (BOTTOM,)),
                               ("q0", "a", BOTTOM, "q0", (BOTTOM,))])

    @staticmethod
    def conflicts():
        """Conflicts at three (state, top) pairs; the least offers 3 moves."""
        return dict(states=["q0", "q1"], stack=(BOTTOM, "x"),
                    transitions=[("q1", "a", BOTTOM, "q1", (BOTTOM,)),
                                 ("q1", "a", BOTTOM, "q0", (BOTTOM,)),
                                 ("q1", "a", "x", "q0", ()),
                                 ("q1", "", "x", "q1", ()),
                                 ("q0", "a", "x", "q0", ()),
                                 ("q0", "a", "x", "q1", ()),
                                 ("q0", "a", "x", "q1", ("x",)),
                                 ("q0", "a", BOTTOM, "q0", (BOTTOM,))])

    def test_least_conflict_is_reported(self):
        with pytest.raises(NotDeterministic) as err:
            raw(**self.conflicts())
        assert str(err.value) == "state q0 on top x offers 3 moves"

    def test_normalize_rejects(self):
        # no machine reaches normalize: building it raises, least conflict first
        with pytest.raises(NotDeterministic):
            udpda.normalize(raw(["q0", "q1"], [("q0", "a", BOTTOM, "q1", (BOTTOM,)),
                                               ("q0", "a", BOTTOM, "q0", (BOTTOM,))]))
        with pytest.raises(NotDeterministic) as err:
            udpda.normalize(raw(**self.conflicts()))
        assert str(err.value) == "state q0 on top x offers 3 moves"


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


class TestNormalView:
    @staticmethod
    def with_decoys(a: RawUnpda) -> RawUnpda:
        """a with move-less states named as normalize names its chains, so
        chain names collide with raw names and need primes."""
        decoys = {"dead", "q0._.read", "q0._.push0", "q0.g0.push0", "q0.g0.push1"}
        return RawUnpda(states=a.states | decoys, stack_alphabet=a.stack_alphabet,
                        bottom=a.bottom, initial=a.initial, finals=a.finals,
                        transitions=a.transitions)

    @staticmethod
    def frozen(m):
        return (dict(m.internal), dict(m.push), dict(m.pop), set(m.reading))

    def test_any_read_order_gives_the_names_of_normalize(self):
        rng = random.Random(38)
        for i in range(150):
            a = random_raw_udpda(rng)
            if i % 2:
                a = self.with_decoys(a)
            eager = udpda.normalize(a)
            pairs = list(eager.pop)  # the pairs of pop states
            rng.shuffle(pairs)
            view = udpda.NormalView(a)
            assert len(view.pop) == 0
            for pair in pairs:
                view.pop[pair]
            assert view.states == eager.states
            assert dict(view.pop) == eager.pop
            view.read_all()  # classifies the uniform states no pair led to
            assert self.frozen(view) == self.frozen(eager), i

    def test_colliding_names_read_every_pair_up_front(self):
        # (q, x.g) and (q.x, g) both name their chains q.x.g.*, so the names
        # depend on the order the pairs are read: the view reads all of them
        # at once, in the order of normalize
        a = raw(["q", "q.x"], [("q", "a", BOTTOM, "q.x", ("x.g", BOTTOM)),
                               ("q.x", "a", "x.g", "q", ("g",)),
                               ("q", "a", "g", "q.x", ("x.g", "g")),
                               ("q.x", "a", "g", "q", ("x.g", "x.g")),
                               ("q", "", "x.g", "q", ("g", "x.g"))],
                finals=["q.x"], initial="q", stack=(BOTTOM, "g", "x.g"))
        view = udpda.NormalView(a)
        assert len(view.pop) == len(a.states) * len(a.stack_alphabet)
        assert self.frozen(view) == self.frozen(udpda.normalize(a))
        assert {"q.x.g.push0", "q.x.g.push0'"} <= view.states
        for convert in (translate.udpda_to_transcript, translate.udpda_to_indicator):
            assert translate.format_pair(convert(a)) == \
                translate.format_pair(convert(udpda.normalize(a)))
        assert translate.udpda_to_indicator(a).sequence(200) == raw_run_prefix(a, 200)

    def test_unreached_conflict_is_rejected(self):
        # u is never entered, yet its two moves on the bottom make the
        # machine nondeterministic: building it raises, before any conversion
        with pytest.raises(NotDeterministic) as err:
            raw(["q0", "u"], [("q0", "a", BOTTOM, "q0", (BOTTOM,)),
                              ("u", "a", BOTTOM, "q0", ()),
                              ("u", "", BOTTOM, "u", ())])
        assert str(err.value) == "state u on top _ mixes a reading move with an epsilon move"

    def test_uniform_states_against_the_raw_stepper(self):
        # uniform states are their own normal-form states; spoilt ones get
        # chains as before: normalize, the view, the simulator and the
        # translation all follow the textbook semantics
        rng = random.Random(41)
        kinds = set()
        for i in range(400):
            a = random_uniform_raw_udpda(rng)
            m = udpda.normalize(a)
            kinds |= {(len(a.stack_alphabet) == 1, q in m.reading, q in m.internal, q in m.push)
                      for q in a.states}
            # the normal form visits the raw states in the raw order, with
            # the same stacks; a raw move takes it at most four steps
            configs = raw_configurations(a, 200)
            for normal in (m, udpda.NormalView(a)):
                got = [(q, tuple(stack)) for q, stack in
                       itertools.islice(udpda.steps(normal, normal.initial), 4 * len(configs))
                       if q in a.states]
                assert got[:len(configs)] == configs and (len(configs) == 200 or got == configs), i
            want = raw_run_prefix(a, 300, fuel=20000)
            assert udpda.run_prefix(m, 300) == want, i
            assert udpda.run_prefix(udpda.NormalView(a), 300) == want, i
            assert translate.udpda_to_indicator(a).sequence(300) == want, i
            assert translate.udpda_to_indicator(a) == translate.udpda_to_indicator(m), i
            assert udpda.normal_size(a) == m.size, i
            if len(a.stack_alphabet) > 1:
                check_fixed_point(m)
        # internal, push and pop states, reading or not, over one stack
        # symbol and more
        assert kinds >= {(one, reads, True, False) for one in (True, False)
                         for reads in (True, False)}
        assert kinds >= {(False, reads, internal, push) for reads in (True, False)
                         for internal, push in ((False, True), (False, False))}

    def test_normal_size_counts_the_chains(self):
        rng = random.Random(39)
        for _ in range(200):
            a = random_raw_udpda(rng)
            assert udpda.normal_size(a) == udpda.normalize(a).size


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
    # the raw machine went through the on-demand view; the eager form agrees
    assert translate.format_pair(translate.udpda_to_indicator(a)) == \
        translate.format_pair(translate.udpda_to_indicator(udpda.normalize(a)))


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

    def test_headers(self):
        head = "states: q0\nstack: _\ninitial: q0\n"
        # a repeated header: the last one wins; an empty final: is allowed
        a = udpda.parse_udpda("states: x\n" + head + "final: q0\nfinal:\n")
        assert (a.states, a.finals) == (frozenset({"q0"}), frozenset())
        with pytest.raises(FormatError, match=r"^missing states:/stack:/initial:/final: header$"):
            udpda.parse_udpda(head)
        # a state named with ':' still starts a transition line
        a = udpda.parse_udpda("states: q:0\nstack: _\ninitial: q:0\nfinal: q:0\n"
                              "q:0 a _ -> q:0 _\n")
        assert a.transitions == frozenset({("q:0", "a", BOTTOM, "q:0", (BOTTOM,))})
        # a header name without its colon is not a header
        with pytest.raises(FormatError, match="line 1: expected"):
            udpda.parse_udpda("states q0\n" + head + "final: q0\n")

    def test_bad_transition_before_conflict(self):
        # q0 has two moves on _, and a later line pushes an unknown symbol
        text = ("states: q0\nstack: _\ninitial: q0\nfinal:\n"
                "q0 a _ -> q0 _\nq0 - _ -> q0 -\nq0 a _ -> q0 y,_\n")
        with pytest.raises(FormatError, match="push word uses unknown symbols"):
            udpda.parse_udpda(text)

    def test_repeated_lines(self):
        # a repeated line is one move; a clash counts its distinct moves
        head = "states: q0 q1\nstack: _\ninitial: q0\nfinal:\n"
        once = udpda.parse_udpda(head + "q0 a _ -> q1 _\n")
        assert udpda.parse_udpda(head + "q0 a _ -> q1 _\n" * 3).moves == once.moves
        with pytest.raises(NotDeterministic, match="^state q0 on top _ offers 2 moves$"):
            udpda.parse_udpda(head + "q0 a _ -> q0 _\nq0 a _ -> q1 _\nq0 a _ -> q1 _\n")

    @pytest.mark.parametrize("states, stack, name", [
        (["q0"], ["-"], "stack symbol '-'"),  # a push of '-' alone reads as the empty push
        (["q0"], ["x,y"], "stack symbol 'x,y'"),
        (["q0", "final:x"], [], "state 'final:x'"),  # reads as a header line
        (["q0", "states:"], [], "state 'states:'"),
        (["q0", "q 1"], [], "state 'q 1'"),
        (["q0", "q#1"], [], "state 'q#1'"),
        (["q0"], ["x y"], "stack symbol 'x y'"),
        # the least unwritable name is named
        (["q0", "q\n1", "initial:z"], ["-", "x,y"], "stack symbol '-'"),
    ])
    def test_unwritable_names_are_refused(self, states, stack, name):
        # q0 pushes each stack symbol g alone on g
        a = raw(states, [("q0", "a", g, "q0", (g,)) for g in [BOTTOM, *stack]],
                stack=[BOTTOM, *stack])
        with pytest.raises(FormatError) as err:
            udpda.format_udpda(a)
        assert str(err.value) == f"{name} cannot be written in the .updpa format"

    def test_names_with_colons_are_written(self):
        a = raw(["q:0", "final"], [("q:0", "a", BOTTOM, "final", ("s:", BOTTOM)),
                                   ("final", "", "s:", "q:0", ("s:",))],
                initial="q:0", stack=(BOTTOM, "s:"))
        assert udpda.parse_udpda(udpda.format_udpda(a)).moves == a.moves


# a machine file with four transitions to unknown states, and a normal
# machine whose three pop states lack six moves between them
ERRORS = """
from pdapress import udpda
from pdapress.errors import FormatError
try:
    udpda.parse_udpda("states: q0 q1\\nstack: _ x\\ninitial: q0\\nfinal: q0\\n"
                      "q0 a _ -> u3 _\\nq1 a _ -> u1 _\\nq1 - x -> u2 -\\nq0 - x -> u0 -\\n")
except FormatError as e:
    print(e)
try:
    udpda.NormalUdpda(internal={}, push={}, reading=frozenset(), initial="p1",
                      finals=frozenset(), stack_alphabet=frozenset({"_", "x", "y"}), bottom="_",
                      pop={("p3", "_"): "p3", ("p1", "x"): "p1", ("p2", "y"): "p1"})
except ValueError as e:
    print(e)
"""


def test_errors_do_not_follow_hash_order():
    # the least bad transition and the least pop state lacking a move are
    # named, whatever order the string hash seed gives the sets
    path = str(Path(udpda.__file__).parents[1])
    want = ("transition ('q0', '', 'x', 'u0', ()) uses unknown states\n"
            "pop state p1 lacks a move for _\n")
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", ERRORS], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout == want, seed
