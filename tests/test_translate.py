"""The translation theorem, both directions, against the simulator."""

import math
import random

import pytest

from pdapress import compare, slp, translate, udpda
from pdapress.errors import BadRange, EmptyWord, MalformedPair, NotDeterministic
from pdapress.slp import Slp
from pdapress.translate import (
    HALT_STATE,
    IndicatorPair,
    TranscriptPair,
    indicator_to_udpda,
    slp_to_udpda,
    transcript_to_characteristic,
    udpda_to_indicator,
    udpda_to_transcript,
)

from helpers import (
    BOTTOM,
    CheckedWorkspace,
    checked_transcript,
    collect_events,
    events_to_bits,
    handcrafted_machines,
    machine_even,
    machine_loop,
    machine_push_loop,
    main_stage,
    random_normal_udpda,
    random_raw_udpda,
    random_slp,
    raw_run_prefix,
    step_normal,
)


def bits(word):
    return slp.literal(word, "01")


def events(word):
    return slp.literal(word, "af")


class TestSlpToUdpda:
    @pytest.mark.parametrize("word", ["101", "1", "0", "0110", "111000111"])
    def test_characteristic_is_padded_word(self, word):
        m = slp_to_udpda(bits(word))
        want = "0" + word + "0" * 5
        assert udpda.run_prefix(m, len(want)) == want

    def test_membership_examples(self):
        m = slp_to_udpda(bits("101"))
        got = [udpda.membership_sim(m, n) for n in range(5)]
        assert got == [False, True, False, True, False]

    def test_rejects_empty_word(self):
        with pytest.raises(EmptyWord):
            slp_to_udpda(Slp("01", {"S": ()}, "S"))

    def test_nonterminal_named_like_a_bit_is_renamed(self):
        # over the alphabet {0}, "1" names a nonterminal; widening the
        # program to {0, 1} must rename it, not read it as the bit
        p = Slp("0", {"S": ("1", "1", "0"), "1": ("0", "0")}, "S")
        assert slp.validate(p) is None
        assert udpda.run_prefix(slp_to_udpda(p), 8) == "0" * 8
        pair = IndicatorPair(p, bits("1"))
        assert pair.sequence(8) == "00000111"
        assert udpda.run_prefix(indicator_to_udpda(pair), 8) == "00000111"

    def test_reaches_halt_after_exactly_word_length_reads(self):
        rng = random.Random(40)
        for _ in range(25):
            p = random_slp(rng, "01", min_len=1, max_len=500)
            n = slp.length(p)
            m = slp_to_udpda(p)
            q, stack, reads = m.initial, [m.bottom], 0
            for _ in range(100_000):
                if q == HALT_STATE:
                    break
                q, consumed = step_normal(m, q, stack)
                reads += consumed
            assert q == HALT_STATE
            assert reads == n
            assert stack == [m.bottom]

    def test_state_count_linear(self):
        rng = random.Random(41)
        for _ in range(40):
            p = random_slp(rng, "01", min_len=1, max_len=2000)
            m = slp_to_udpda(p)
            assert len(m.states) <= 8 * slp.size(p) + 8

    def test_stack_alphabet_is_constant(self):
        rng = random.Random(42)
        for _ in range(25):
            p = random_slp(rng, "01", min_len=1, max_len=2000)
            m = slp_to_udpda(p)
            assert len(m.stack_alphabet) <= 3
            assert m.size <= 24 * slp.size(p) + 24  # |Q| x |Gamma| stays linear
            want = "0" + slp.expand(p, 2000) + "000"
            assert udpda.run_prefix(m, len(want)) == want
        for _ in range(25):
            pair = IndicatorPair(random_slp(rng, "01", max_prods=30, max_len=10**6),
                                 random_slp(rng, "01", max_prods=30, min_len=1, max_len=10**6))
            m = indicator_to_udpda(pair)
            assert len(m.stack_alphabet) <= 3  # one marker pair for both programs, the bottom
            assert m.size <= 80 * pair.size + 80
            assert udpda.run_prefix(m, 3000) == pair.sequence(3000)

    def test_fanout_reduction_over_several_rounds(self):
        # 21 occurrences of X take four rounds of copies (11, 6, 3, 2); each
        # round after the first pairs the last round's copies in name order,
        # so X~10 goes with X~1
        prods = {f"P{i:02}": ("X", "X") for i in range(10)} | {"P10": ("X", "1"), "X": ("0",)}
        want = {f"P{i:02}": (f"X~{i + 1}",) * 2 for i in range(10)} | {
            "P10": ("X~11", "1"), "X": ("0",), "X~21": ("X",), "X~22": ("X",)}
        links = {1: 12, 10: 12, 11: 13, 2: 13, 3: 14, 4: 14, 5: 15, 6: 15, 7: 16, 8: 16,
                 9: 17, 12: 18, 13: 18, 14: 19, 15: 19, 16: 20, 17: 20, 18: 21, 19: 21, 20: 22}
        want |= {f"X~{copy}": (f"X~{parent}",) for copy, parent in links.items()}
        assert translate._reduce_fanout(prods) == want


class TestIndicatorToUdpda:
    @pytest.mark.parametrize(
        "prefix,loop,want",
        [
            ("1", "01", "101010101010"),
            ("", "1", "111111111111"),
            ("0", "0", "000000000000"),
            ("", "10", "101010101010"),
            ("0011", "010", "001101001001"[:12]),
            ("1", "1", "111111111111"),
        ],
    )
    def test_examples(self, prefix, loop, want):
        pair = IndicatorPair(bits(prefix), bits(loop))
        m = indicator_to_udpda(pair)
        assert udpda.run_prefix(m, 12) == pair.sequence(12) == want

    def test_random_pairs(self):
        rng = random.Random(43)
        for _ in range(60):
            prefix = random_slp(rng, "01", max_len=300)
            loop = random_slp(rng, "01", min_len=1, max_len=300)
            pair = IndicatorPair(prefix, loop)
            m = indicator_to_udpda(pair)
            n = slp.length(prefix) + 3 * slp.length(loop) + 2
            assert udpda.run_prefix(m, n) == pair.sequence(n)

    def test_loop_must_be_nonempty(self):
        with pytest.raises(MalformedPair):
            IndicatorPair(bits("1"), Slp("01", {"S": ()}, "S"))


class TestUdpdaToTranscript:
    def test_loop_machine(self):
        tp = checked_transcript(machine_loop())
        assert tp.sequence(20) == "fa" * 10
        assert tp.sequence(20) == collect_events(machine_loop(), 20)

    def test_even_machine(self):
        m = machine_even()
        tp = checked_transcript(m)
        assert tp.sequence(50) == collect_events(m, 50)

    def test_consuming_machines_match_event_log(self):
        rng = random.Random(44)
        done = 0
        while done < 30:
            m = random_normal_udpda(rng, max_states=8)
            # only compare when the machine is still consuming at the horizon
            log = collect_events(m, 50, max_steps=5000)
            if log.count("a") < 12:
                continue
            tp = checked_transcript(m)
            assert tp.sequence(len(log)) == log
            done += 1

    def test_push_loop_pair_is_well_formed(self):
        tp = checked_transcript(machine_push_loop())
        assert slp.length(tp.loop) >= 1
        assert transcript_to_characteristic(tp).sequence(6) == "000000"

    def test_invariants_on_small_machines(self):
        rng = random.Random(45)
        for _ in range(40):
            m = random_normal_udpda(rng, max_states=10, max_stack=3)
            checked_transcript(m)

    def test_transcript_size_linear(self):
        rng = random.Random(46)
        for _ in range(60):
            m = random_normal_udpda(rng)
            tp = udpda_to_transcript(m)
            assert tp.size <= 64 * len(m.states) + 64


def normal(internal=(), push=(), pop=(), reading=(), finals=(), initial="q0"):
    return udpda.NormalUdpda(
        internal=dict(internal), push=dict(push), pop=dict(pop),
        reading=frozenset(reading), initial=initial, finals=frozenset(finals),
        stack_alphabet=frozenset({BOTTOM, "x"}), bottom=BOTTOM,
    )


class TestTranscriptWalk:
    """Shapes of the pending-edge graph the resolution walk follows."""

    def check(self, m, n=60):
        tp = checked_transcript(m)
        assert tp.sequence(n) == collect_events(m, n)

    def test_long_tail_into_cycle(self):
        tail = [f"t{i}" for i in range(12)]
        ring = ["c0", "c1", "c2"]
        path = tail + ring
        internal = dict(zip(path, path[1:]))
        internal["c2"] = "c0"
        m = normal(internal, reading=path, finals={"t3", "t7", "c1"}, initial="t0")
        self.check(m)

    def test_cycle_closed_by_a_horizontal_edge(self):
        # q0 pushes into the returning state r, whose landing q1 leads back
        # to q0: the cycle q0 -> q1 -> q0 exists only after R3
        m = normal(
            internal={"s": "q1", "q1": "q0"},
            push={"q0": ("r", "x")},
            pop={("r", "x"): "q1", ("r", BOTTOM): "s"},
            reading={"r", "q1"}, finals={"q0", "s"}, initial="s",
        )
        ws = CheckedWorkspace(m)
        main_stage(ws)
        assert set(ws.nonret) == {"s", "q0", "q1"} and set(ws.exit) == {"r"}
        self.check(m)

    @pytest.mark.parametrize("via_push", [False, True])
    def test_self_loop(self, via_push):
        if via_push:  # q0 pushes, returns through r and lands on itself
            m = normal(internal={"s": "q0"}, push={"q0": ("r", "x")},
                       pop={("r", "x"): "q0", ("r", BOTTOM): "r"},
                       reading={"r"}, finals={"s", "q0"}, initial="s")
        else:
            m = normal(internal={"s": "q0", "q0": "q0"}, reading={"q0"},
                       finals={"s", "q0"}, initial="s")
        self.check(m)

    def test_unreached_states_stay_pending(self):
        # the computation loops on s; the pop state p and the push/internal
        # component u0..u2 are never reached, so they never enter the
        # workspace: only s has visit events, an edge or a value
        m = normal(
            internal={"s": "s", "u1": "u2", "u2": "u0"},
            push={"u0": ("u1", "x")},
            pop={("p", "x"): "u0", ("p", BOTTOM): "s"},
            reading={"s", "u1"}, finals={"s", "u2"}, initial="s",
        )
        ws = translate.TranscriptWorkspace(m)
        assert not ws.v and not ws.exit and not ws.edge and not ws.nonret
        tp = ws.transcript()
        assert set(ws.v) == set(ws.nonret) == {"s"}
        assert not ws.exit and not ws.edge and not ws.pushing
        eager = translate.TranscriptWorkspace(m)
        main_stage(eager)
        assert not eager.edge and set(eager.v) == m.states
        assert eager.transcript() == tp
        self.check(m)

    @pytest.mark.parametrize("initial, transcript, indicator", [
        ("t", (2, 4), (2, 3)),  # a tail, then the cycle at its least state
        ("c0", (0, 4), (1, 3)),  # the cycle from its least state: an empty prefix
        ("c1", (3, 4), (3, 3)),  # from c1 the prefix runs back to c0
    ])
    def test_cycle_entered_at_its_least_state(self, initial, transcript, indicator):
        # R4 gives the cycle's least state c0 an empty prefix and the loop
        # from c0, so no prefix carries a copy of the loop
        m = normal(internal={"t": "c0", "c0": "c1", "c1": "c2", "c2": "c0"},
                   reading={"t", "c0", "c1", "c2"}, finals={"t", "c1"}, initial=initial)
        tp, ip = udpda_to_transcript(m), udpda_to_indicator(m)
        assert (tp.lengths, ip.lengths) == (transcript, indicator)
        assert slp.expand(tp.loop, 10) == "afaa"
        assert tp.sequence(40) == collect_events(m, 40)
        assert ip.sequence(40) == udpda.run_prefix(m, 40)
        self.check(m)

    def test_long_chain_into_a_pop_state(self):
        # far deeper than the interpreter's recursion budget
        chain = [f"c{i}" for i in range(20_000)]
        internal = dict(zip(chain, chain[1:]))
        internal[chain[-1]] = "p"
        m = normal(internal, pop={("p", BOTTOM): "c0", ("p", "x"): "c0"},
                   reading=chain[::2], finals=chain[::7], initial="c0")
        n = 25_000
        assert udpda_to_indicator(m).sequence(n) == udpda.run_prefix(m, n)


class TestOnDemandNormalization:
    def test_large_machine_builds_few_chains(self):
        # 20,000 raw states; the computation alternates q0 (pushing x) and
        # q1 (popping it), so only the pairs it pops on get chains
        rng = random.Random(52)
        states = [f"q{i}" for i in range(20_000)]
        transitions = {("q0", "a", BOTTOM, "q1", ("x", BOTTOM)), ("q1", "a", "x", "q0", ())}
        for q in states[2:]:
            transitions.add((q, rng.choice("a-").strip("-"), BOTTOM, rng.choice(states),
                             rng.choice([(), (BOTTOM,), ("x", BOTTOM)])))
            transitions.add((q, rng.choice("a-").strip("-"), "x", rng.choice(states),
                             rng.choice([(), ("x",), ("x", "x")])))
        a = udpda.RawUnpda(states=frozenset(states), stack_alphabet=frozenset({BOTTOM, "x"}),
                           bottom=BOTTOM, initial="q0", finals=frozenset(states[1::3]),
                           transitions=frozenset(transitions))
        ws = translate.TranscriptWorkspace(a)
        # no state has entered and no chain is built yet
        assert not ws.v and not ws.exit and not ws.edge and not ws.machine.pop
        tp = ws.transcript()
        pairs = len(a.states) * len(a.stack_alphabet)
        assert 0 < len(ws.machine.pop) < pairs // 100
        assert 0 < len(a.states & set(ws.v)) < len(a.states) // 100
        # every chain state built has entered: the walk follows each chain
        chains = ws.machine.states - a.states - {"dead"}
        assert chains and chains <= set(ws.v) <= ws.machine.states
        assert tp == udpda_to_transcript(udpda.normalize(a))
        assert udpda_to_indicator(a).sequence(50) == raw_run_prefix(a, 50)

    def test_checked_workspace_runs_on_the_eager_form(self):
        # CheckedWorkspace and main_stage resolve every state, so they take
        # the normalized machine; its transcript is the on-demand one
        rng = random.Random(53)
        for _ in range(30):
            a = random_raw_udpda(rng, max_states=4)
            m = udpda.normalize(a)
            ws = CheckedWorkspace(m)
            main_stage(ws)
            assert not ws.edge and set(ws.exit) | set(ws.nonret) == m.states
            assert ws.transcript() == udpda_to_transcript(a)


class TestTranscriptToCharacteristic:
    @pytest.mark.parametrize(
        "prefix,loop,want",
        [
            ("", "fa", "1" * 16),
            ("a", "a", "0" * 16),
            ("a", "f", "01" + "0" * 14),
            ("fa", "fa", "1" * 16),
            ("af", "af", "0" + "1" * 15),
            ("aaf", "fa", "0011" + "1" * 12),
            ("f", "aaf", None),
            ("afaf", "a", "011" + "0" * 13),
            ("ff", "aaffa", None),
            ("fafff", "ffaaf", None),
            ("", "faf", None),
            ("aa", "fffa", None),
        ],
    )
    def test_examples(self, prefix, loop, want):
        tp = TranscriptPair(events(prefix), events(loop))
        got = transcript_to_characteristic(tp).sequence(16)
        stream = prefix + loop * ((64 - len(prefix)) // len(loop) + 1)
        expect = events_to_bits(stream)[:16] if want is None else want
        assert got == expect

    def test_against_definition_oracle_random(self):
        rng = random.Random(47)
        for _ in range(300):
            prefix = "".join(rng.choice("af") for _ in range(rng.randint(0, 12)))
            loop = "".join(rng.choice("af") for _ in range(rng.randint(1, 12)))
            tp = TranscriptPair(events(prefix), events(loop))
            got = transcript_to_characteristic(tp)
            stream = prefix + loop * ((200 - len(prefix)) // len(loop) + 1)
            want = events_to_bits(stream)
            n = min(len(want), 64)
            assert got.sequence(n) == want[:n], (prefix, loop)

    def test_reads_the_transcript_store_with_no_cnf_copy(self, monkeypatch):
        # the stage writes bits straight from the transcript store's rules
        # and its first and last facts: no Chomsky normal form copy and no
        # topological pass, on handcrafted machines and on a parsed pair with
        # eps and chain productions (so zero-length children and rules of
        # other widths)
        text = ("kind: transcript\nalphabet: af\nP -> E A f E A a\nA -> B\nB -> a f E\n"
                "E -> eps\n---\nalphabet: af\nL -> Z f f C a Z a\nC -> Z\nZ -> eps\n")
        parsed = translate.parse_pair(text)
        machines = handcrafted_machines()
        transcripts = [udpda_to_transcript(m) for _, m in machines]

        def refuse(*args, **kwargs):
            raise AssertionError("a CNF copy or a topological pass")

        with monkeypatch.context() as patch:
            patch.setattr(slp, "_cnf", refuse)
            patch.setattr(slp, "_toposort", refuse)
            pairs = [udpda_to_indicator(m) for _, m in machines]
            from_parsed = transcript_to_characteristic(parsed)
        for (label, m), tp, ip in zip(machines, transcripts, pairs):
            stream = tp.sequence(slp.length(tp.prefix) + 64 * slp.length(tp.loop))
            want = events_to_bits(stream)[:64]
            assert ip.sequence(len(want)) == want, label
            assert ip.sequence(40) == udpda.run_prefix(m, 40), label
        stream = parsed.sequence(200)
        assert stream.startswith("affafa" + "ffaa" * 3)
        want = events_to_bits(stream)[:64]
        assert from_parsed.sequence(64) == want

    def test_compressed_inputs(self):
        # long transcripts stay compressed end to end
        tp = TranscriptPair(
            slp.power(events("af"), 1 << 30),
            slp.concat(slp.power(events("a"), (1 << 30) - 1), events("f")),
        )
        pair = transcript_to_characteristic(tp)
        assert slp.query(pair.prefix, 12345) == "1"
        assert slp.length(pair.prefix) + 0 >= 1 << 30


class TestFullPipeline:
    def test_handcrafted_round_trips(self):
        for label, m in handcrafted_machines():
            tp = checked_transcript(m) if len(m.states) <= 10 else udpda_to_transcript(m)
            pair = transcript_to_characteristic(tp)
            n = min(slp.length(pair.prefix) + 3 * slp.length(pair.loop), 500)
            n = max(n, 40)
            assert pair.sequence(n) == udpda.run_prefix(m, n), label

    def test_slp_round_trip(self):
        m = slp_to_udpda(bits("101"))
        pair = udpda_to_indicator(m)
        assert pair.sequence(9) == "010100000"

    def test_dead_machine_all_zero(self):
        from helpers import machine_dead
        pair = udpda_to_indicator(machine_dead())
        assert pair.sequence(30) == "0" * 30

    def test_raw_input_checked(self):
        # the raw machine's constructor rejects it before any conversion
        with pytest.raises(NotDeterministic, match="mixes a reading move with an epsilon move"):
            udpda_to_indicator(udpda.RawUnpda(
                states=frozenset({"q0"}),
                stack_alphabet=frozenset({BOTTOM}),
                bottom=BOTTOM,
                initial="q0",
                finals=frozenset(),
                transitions=frozenset({("q0", "a", BOTTOM, "q0", (BOTTOM,)),
                                       ("q0", "", BOTTOM, "q0", (BOTTOM,))}),
            ))

    def test_one_store_matches_the_two_stages(self):
        # udpda_to_indicator runs the characteristic stage on the
        # workspace's store; the public stages go through programs
        rng = random.Random(50)
        machines = [random_normal_udpda(rng) for _ in range(80)]
        machines += [udpda.normalize(random_raw_udpda(rng)) for _ in range(60)]
        for m in machines:
            ip = udpda_to_indicator(m)
            tp = udpda_to_transcript(m)
            assert ip == transcript_to_characteristic(tp)
            tp_back = translate.parse_pair(translate.format_pair(tp))
            ip_back = translate.parse_pair(translate.format_pair(ip))
            assert ip_back == ip == transcript_to_characteristic(tp_back)

    @pytest.mark.parametrize("finals, loop_events, want", [
        ({"s"}, "", "1" + "0" * 11),  # the loop has no events at all
        ({"q0"}, "f", "01" + "0" * 10),  # the loop only visits a final state
    ])
    def test_loop_that_never_reads(self, finals, loop_events, want):
        m = normal(internal={"s": "q0", "q0": "q0"}, reading={"s"}, finals=finals,
                   initial="s")
        ws = translate.TranscriptWorkspace(m)
        _pre, loop = ws.bottom_stage()
        assert slp.expand(ws.store.build(loop), 10) == loop_events
        ip = udpda_to_indicator(m)
        assert ip == transcript_to_characteristic(udpda_to_transcript(m))
        assert ip.sequence(12) == udpda.run_prefix(m, 12) == want

    def test_builds_two_programs(self, monkeypatch):
        # the translation leaves the pair in its store; only writing it
        # builds the two canonical programs
        built = []
        build = slp._Store.build
        monkeypatch.setattr(slp._Store, "build", lambda st, sym: built.append(sym) or build(st, sym))
        rng = random.Random(51)
        for m in [machine_even(), machine_push_loop()] + [random_normal_udpda(rng) for _ in range(10)]:
            built.clear()
            pair = udpda_to_indicator(m)
            assert len(built) == 0
            translate.format_pair(pair)
            assert len(built) == 2

    def test_size_builds_no_program(self, monkeypatch):
        rng = random.Random(55)
        pairs = [udpda_to_indicator(random_normal_udpda(rng)) for _ in range(20)]
        pairs += [IndicatorPair(random_slp(rng, "01", max_len=300),
                                random_slp(rng, "01", min_len=1, max_len=300)) for _ in range(20)]
        want = [slp.size(p.prefix) + slp.size(p.loop) for p in pairs]

        def refuse(*args, **kwargs):
            raise AssertionError("a canonical build")

        monkeypatch.setattr(slp._Store, "canonical", refuse)
        assert [p.size for p in pairs] == want

    def test_written_machine_reads_back_at_its_own_size(self):
        # a machine this tool wrote is its own normal form: read back from
        # its file, the walk enters each state at most once, plus the dead
        # state, and never builds a chain
        rng = random.Random(56)
        programs = []
        for tag, n in (("P", 1000), ("L", 1000)):
            prods = {f"{tag}0": ("0",), f"{tag}1": ("1",)}
            for i in range(2, n):
                a, b = f"{tag}{i - 1}", f"{tag}{rng.randrange(i)}"
                prods[f"{tag}{i}"] = (a, b) if rng.random() < 0.5 else (b, a)
            programs.append(Slp("01", prods, f"{tag}{n - 1}"))
        pair = IndicatorPair(*programs)
        m = indicator_to_udpda(pair)
        raw = udpda.parse_udpda(udpda.format_udpda(m))
        ws = translate.TranscriptWorkspace(raw)
        tp = ws.transcript()
        assert len(ws.v) <= len(raw.states) + 1
        assert len(ws.machine.states) == len(raw.states) + 1  # the dead state, no chain
        assert tp == udpda_to_transcript(m)
        assert transcript_to_characteristic(tp).sequence(5000) == pair.sequence(5000)

    def test_scheduling_is_deterministic(self):
        rng = random.Random(48)
        for _ in range(20):
            m = random_normal_udpda(rng)
            p1 = udpda_to_indicator(m)
            p2 = udpda_to_indicator(m)
            assert slp.format_slp(p1.prefix) == slp.format_slp(p2.prefix)
            assert slp.format_slp(p1.loop) == slp.format_slp(p2.loop)


class TestWindow:
    def test_random_literal_pairs(self):
        rng = random.Random(49)
        for _ in range(60):
            prefix = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
            loop = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
            pair = IndicatorPair(bits(prefix), bits(loop))
            word = prefix + loop * 30
            for n in range(30):
                w = pair.window(n)
                assert slp.length(w) == n and slp.expand(w, n) == word[:n]
                assert n == 0 or all(w.productions.values()), (prefix, loop, n)

    def test_cut_on_a_child_boundary_has_no_empty_production(self):
        pair = IndicatorPair(bits("110"), bits("01"))
        for n in (7, 8):
            assert "eps" not in slp.format_slp(pair.window(n))
        assert slp.format_slp(pair.window(0)) == "alphabet: 01\nN0 -> eps\n"

    def test_cut_from_any_start(self):
        rng = random.Random(50)
        for trial in range(80):
            prefix = random_slp(rng, max_len=12) if trial % 4 else bits("")
            loop = random_slp(rng, min_len=1, max_len=9)
            pair = IndicatorPair(prefix, loop)
            plen, k = slp.length(prefix), slp.length(loop)
            # inside the prefix, at its end, and past it by less and more than a loop
            starts = {0, plen // 2, plen, plen + 1, plen + k - 1, plen + 3 * k + 2}
            for start in starts:
                for n in {0, 1, k, 2 * k, 5 * k, plen + k + 3}:
                    w = pair.window(n, start)
                    want = pair.sequence(start + n)[start:]
                    assert slp.expand(w, n) == want, (trial, start, n)

    def test_negative_cut_is_refused(self):
        pair = IndicatorPair(bits("110"), bits("01"))
        for n, start in ((-1, 0), (0, -1), (3, -2)):
            with pytest.raises(BadRange):
                pair.window(n, start)

    def test_words_walk_like_windows(self):
        # a window is read in the pair's store, its canonical copy in a store
        # of its own: comparisons over either give the same answer and the
        # same walk
        rng = random.Random(52)
        for trial in range(60):
            prefix = random_slp(rng, max_len=150) if trial % 4 else bits("")
            x = IndicatorPair(prefix, random_slp(rng, min_len=1 + 80 * (trial % 2), max_len=300))
            # another prefix of the same length before the same loop makes
            # the tails one program in two stores
            other = slp.power(bits("1"), slp.length(prefix)) if trial % 3 == 0 else \
                random_slp(rng, max_len=150)
            y = IndicatorPair(other, x.loop if trial % 3 == 0 else
                              random_slp(rng, min_len=1, max_len=120))
            (p1, k1), (p2, k2) = x.lengths, y.lengths
            p = max(p1, p2)
            for start in {0, min(p1, p2) // 2, p1, p2, p, p + 1, p + 3 * k1 + 2}:
                for n in {0, 1, k1, p + k1 + k2, math.lcm(k1, k2)}:
                    windows = x.window(n, start), y.window(n, start)
                    copies = [Slp(w.alphabet, w.productions, w.axiom) for w in windows]
                    assert slp.equal(*windows) == slp.equal(*copies)
                    for budget in (compare.DEFAULT_BUDGET, 5):
                        got, want = (compare.comp_slp(*pair, compare.ZERO_LEQ_ONE, budget)
                                     for pair in (windows, copies))
                        assert (got.verdict, got.witness, got.visited, got.checked,
                                got.period) == (want.verdict, want.witness, want.visited,
                                                want.checked, want.period), (trial, start, n)

    def test_view_of_a_word_reaches_only_its_symbols(self):
        pair = IndicatorPair(random_slp(random.Random(53), max_len=500),
                             random_slp(random.Random(54), min_len=1, max_len=300))
        for n in range(0, 400, 7):
            pair.window(n, n // 2)
        w = pair.window(1, 123)
        # the window is anchored in the store of all those cuts, and its
        # canonical productions reach only its own symbols
        assert len(slp._anchor(w)[0].productions) > 50
        assert len(w.productions) == 1 and slp.length(w) == 1
        # a name that is a terminal is wrapped
        assert slp.format_slp(slp._Store("01").build("1")) == "alphabet: 01\nN0 -> 1\n"

    def test_cut_past_the_prefix_is_a_power_of_the_rotated_loop(self):
        rng = random.Random(51)
        for _ in range(60):
            prefix, loop = random_slp(rng, max_len=12), random_slp(rng, min_len=1, max_len=40)
            pair = IndicatorPair(prefix, loop)
            plen, k = slp.length(pair.prefix), slp.length(pair.loop)
            start, copies = plen + rng.randint(0, 3 * k), rng.randint(2, 9)
            view = compare._View(*slp._anchor(pair.window(copies * k, start)))
            base = compare._power_base(view)
            assert base is not None and k % view.lens[base] == 0


class TestPairFormat:
    def test_indicator_round_trip(self):
        pair = udpda_to_indicator(machine_even())
        text = translate.format_pair(pair)
        back = translate.parse_pair(text)
        assert isinstance(back, IndicatorPair)
        assert back.sequence(40) == pair.sequence(40)
        assert translate.format_pair(back) == text

    def test_transcript_round_trip(self):
        tp = udpda_to_transcript(machine_even())
        back = translate.parse_pair(translate.format_pair(tp))
        assert isinstance(back, TranscriptPair)
        assert back.sequence(40) == tp.sequence(40)

    def test_parse_inverts_format(self):
        for pair in (udpda_to_indicator(machine_even()), udpda_to_transcript(machine_even())):
            assert translate.parse_pair(translate.format_pair(pair)) == pair

    def test_kinds_never_compare_equal(self):
        # no nonempty loop is valid for both kinds, so a transcript pair is
        # given the indicator pair's very store and names through the
        # private constructor the pipeline stages use
        ip = IndicatorPair(bits("1"), bits("01"))
        tp = TranscriptPair._of(ip._st, ip._pre, ip._loop)
        assert (tp.prefix, tp.loop) == (ip.prefix, ip.loop)
        assert ip != tp and tp != ip
        assert ip == IndicatorPair(bits("1"), bits("01"))

    def test_repeated_left_hand_side_in_a_block(self):
        from pdapress.errors import FormatError
        text = "kind: indicator\nalphabet: 01\nS -> 1\n---\nalphabet: 01\nL -> 0\nL -> 1\n"
        # lines count from the start of the file, not of the block
        with pytest.raises(FormatError, match="^loop: line 7: second production for L$"):
            translate.parse_pair(text)

    @pytest.mark.parametrize("text, message", [
        ("kind: indicator\nalphabet: 01\nS -> 1\n---\nalphabet: 01\nL 0\n",
         "loop: line 6: expected 'N -> tok ...'"),
        # blank and comment lines before the header count too
        ("\n# a pair\nkind: indicator\nalphabet: 01\nS => 1\n---\nalphabet: 01\nL -> 0\n",
         "prefix: line 5: expected 'N -> tok ...'"),
        ("kind: indicator\nalphabet: 01\nS -> 1 X\n---\nalphabet: 01\nL -> 0\n",
         "prefix: missing production X"),
        ("kind: transcript\nalphabet: af\nS -> a\n---\nL -> a\n",
         "loop: line 5: expected 'alphabet:' header"),
        ("kind: indicator\nalphabet: 01\nS -> 1\n---\n# nothing\n", "loop: missing 'alphabet:' header"),
    ])
    def test_errors_name_the_block_and_count_file_lines(self, text, message):
        from pdapress.errors import FormatError
        with pytest.raises(FormatError) as err:
            translate.parse_pair(text)
        assert str(err.value) == message

    def test_bad_header(self):
        from pdapress.errors import FormatError
        with pytest.raises(FormatError):
            translate.parse_pair("alphabet: 01\nS -> 0\n---\nS -> 1\n")
