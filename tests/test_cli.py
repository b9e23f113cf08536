"""The pda-press command: verbs, exit codes, output formats."""

import decimal
import json
import shlex
import sys
from pathlib import Path

import pytest

from pdapress import cli, compare, intexpr, slp, translate, udpda
from pdapress.cli import main
from pdapress.errors import (
    BadRange,
    BadShift,
    CapExceeded,
    FuelExhausted,
    IndexOutOfRange,
    LengthMismatch,
    NonIntegralResult,
    format_int,
    parse_int,
)

from helpers import HARD_TARGET, HARD_WEIGHTS


@pytest.fixture()
def files(tmp_path):
    """A few ready-made input files."""
    p101 = tmp_path / "p101.slp"
    p101.write_text(slp.format_slp(slp.literal("101", "01")))
    zero = tmp_path / "zero.slp"
    zero.write_text(slp.format_slp(slp.literal("0", "01")))
    even = tmp_path / "even.updpa"
    even_raw = udpda.RawUnpda(
        states=frozenset({"q0", "q1"}),
        stack_alphabet=frozenset({"_"}),
        bottom="_",
        initial="q0",
        finals=frozenset({"q0"}),
        transitions=frozenset({("q0", "a", "_", "q1", ("_",)),
                               ("q1", "a", "_", "q0", ("_",))}),
    )
    even.write_text(udpda.format_udpda(even_raw))
    loop = tmp_path / "loop.updpa"
    loop_raw = udpda.RawUnpda(
        states=frozenset({"q0"}),
        stack_alphabet=frozenset({"_"}),
        bottom="_",
        initial="q0",
        finals=frozenset({"q0"}),
        transitions=frozenset({("q0", "a", "_", "q0", ("_",))}),
    )
    loop.write_text(udpda.format_udpda(loop_raw))
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestDecide:
    def test_member_yes(self, files, capsys):
        code, out, _ = run(capsys, "decide", "member", files / "even.updpa", "12")
        assert (code, out) == (0, "yes")

    def test_member_no(self, files, capsys):
        code, out, _ = run(capsys, "decide", "member", files / "even.updpa", "13")
        assert (code, out) == (1, "no")

    def test_negative_length_exits_2(self, files, capsys):
        # no word has a negative length: an input error, the same for both
        # ways of answering, and not a "no"
        for group in ("decide", "sim"):
            assert run(capsys, group, "member", files / "even.updpa", "-1") == (
                2, "", "error: word length -1 is negative")

    def test_included_witness(self, files, capsys):
        code, out, _ = run(capsys, "decide", "included",
                           files / "loop.updpa", files / "even.updpa",
                           "--budget", "1000000")
        assert code == 1
        assert out == "no (witness n=1)"

    def test_equal_and_universal(self, files, capsys):
        assert run(capsys, "decide", "equal", files / "even.updpa", files / "even.updpa")[0] == 0
        assert run(capsys, "decide", "universal", files / "loop.updpa")[0] == 0
        assert run(capsys, "decide", "universal", files / "even.updpa")[0] == 1

    def test_convert_then_empty(self, files, capsys):
        p000 = files / "p000.slp"
        p000.write_text(slp.format_slp(slp.literal("000", "01")))
        m = files / "m000.updpa"
        assert run(capsys, "convert", "slp-to-udpda", p000, "-o", m)[0] == 0
        code, out, _ = run(capsys, "decide", "empty", m)
        assert (code, out) == (0, "yes")

    def test_json_payload(self, files, capsys):
        code, out, _ = run(capsys, "decide", "member", files / "even.updpa", "4", "--json")
        payload = json.loads(out)
        assert payload["verdict"] == "yes"
        assert "timing_ms" in payload and "sizes" in payload
        assert code == 0


    def test_json_sizes_count_the_normal_form(self, tmp_path, capsys):
        # |Q|.|Gamma| of the normalized machine, counted without normalizing:
        # a read, two pushes, a bottom push and a missing move
        a = udpda.RawUnpda(
            states=frozenset({"q0", "q1"}), stack_alphabet=frozenset({"_", "x"}),
            bottom="_", initial="q0", finals=frozenset({"q1"}),
            transitions=frozenset({("q0", "a", "_", "q1", ("x", "_")),
                                   ("q1", "", "x", "q1", ("x", "x")),
                                   ("q1", "a", "_", "q0", ("_",))}),
        )
        path = tmp_path / "m.updpa"
        path.write_text(udpda.format_udpda(a))
        code, out, _ = run(capsys, "decide", "equal", path, path, "--json")
        size = udpda.normalize(a).size
        assert (code, json.loads(out)["sizes"]) == (0, {"machine1": size, "machine2": size})
        assert size == (2 + 1 + 2 + 2 + 1) * 2

    def test_unreached_conflict_exits_2(self, files, tmp_path, capsys):
        # the computation loops in q0 and never enters u, whose two moves on
        # the bottom still make the machine nondeterministic
        bad = tmp_path / "bad.updpa"
        bad.write_text("states: q0 u\nstack: _\ninitial: q0\nfinal: q0\n"
                       "q0 a _ -> q0 _\nu a _ -> q0 -\nu - _ -> u -\n")
        want = "error: state u on top _ mixes a reading move with an epsilon move"
        for argv in (("convert", "udpda-to-indicator", bad), ("convert", "udpda-to-transcript", bad),
                     ("decide", "member", bad, "3"), ("decide", "equal", files / "loop.updpa", bad),
                     ("decide", "included", bad, files / "loop.updpa"), ("sim", "prefix", bad, "3")):
            assert run(capsys, *argv) == (2, "", want), argv


class TestSimAndSlp:
    def test_sim_prefix(self, files, capsys):
        code, out, _ = run(capsys, "sim", "prefix", files / "even.updpa", "6")
        assert (code, out) == (0, "101010")

    def test_sim_member(self, files, capsys):
        assert run(capsys, "sim", "member", files / "even.updpa", "4")[0] == 0
        assert run(capsys, "sim", "member", files / "even.updpa", "5")[0] == 1

    @pytest.mark.parametrize("what, simulator", [("prefix", "run_prefix"),
                                                  ("member", "membership_sim")])
    def test_sim_out_of_fuel_exit_3(self, files, capsys, monkeypatch, what, simulator):
        def out_of_fuel(*args, **kwargs):
            raise FuelExhausted("10 epsilon moves without a read or a loop certificate")

        monkeypatch.setattr(udpda, simulator, out_of_fuel)
        code, out, _ = run(capsys, "sim", what, files / "even.updpa", "6")
        assert (code, out) == (3, "budget exceeded")

    def test_slp_len_query_equal(self, files, capsys):
        assert run(capsys, "slp", "len", files / "p101.slp")[1] == "3"
        assert run(capsys, "slp", "query", files / "p101.slp", "1")[1] == "0"
        assert run(capsys, "slp", "equal", files / "p101.slp", files / "p101.slp")[0] == 0
        assert run(capsys, "slp", "equal", files / "p101.slp", files / "zero.slp")[0] == 1

    def test_negative_cap_exits_2(self, files, capsys):
        p101 = files / "p101.slp"
        assert run(capsys, "slp", "equal", p101, p101, "--cap", "0") == (0, "yes", "")
        assert run(capsys, "slp", "equal", p101, p101, "--cap", "-1") == (
            2, "", "error: expansion cap -1 is negative")

    def test_slp_compare_wildcard(self, files, capsys, tmp_path):
        a = tmp_path / "a.slp"
        a.write_text(slp.format_slp(slp.literal("a?", "ab?")))
        b = tmp_path / "b.slp"
        b.write_text(slp.format_slp(slp.literal("ab", "ab?")))
        code, out, _ = run(capsys, "slp", "compare", a, b, "--relation", "wildcard")
        assert (code, out) == (0, "yes")

    def test_parse_error_exit_2(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.slp"
        bad.write_text("not a program\n")
        code, _, err = run(capsys, "slp", "len", bad)
        assert code == 2 and "error" in err


class TestConvertRoundTrips:
    def test_udpda_indicator_chain(self, files, capsys, tmp_path):
        pair_path = tmp_path / "even.pair"
        assert run(capsys, "convert", "udpda-to-indicator", files / "even.updpa",
                   "-o", pair_path)[0] == 0
        pair = translate.parse_pair(pair_path.read_text())
        assert pair.sequence(10) == "1010101010"
        back = tmp_path / "even2.updpa"
        assert run(capsys, "convert", "indicator-to-udpda", pair_path, "-o", back)[0] == 0
        machine = udpda.normalize(udpda.parse_udpda(back.read_text()))
        assert udpda.run_prefix(machine, 10) == "1010101010"

    def test_transcript_chain(self, files, capsys, tmp_path):
        tpath = tmp_path / "even.tpair"
        assert run(capsys, "convert", "udpda-to-transcript", files / "even.updpa",
                   "-o", tpath)[0] == 0
        assert isinstance(translate.parse_pair(tpath.read_text()), translate.TranscriptPair)
        ipath = tmp_path / "even.ipair"
        assert run(capsys, "convert", "transcript-to-indicator", tpath, "-o", ipath)[0] == 0
        assert translate.parse_pair(ipath.read_text()).sequence(8) == "10101010"

    def test_padded_transcript_loop(self, capsys, tmp_path):
        # the machine stops reading in an input-free loop through a
        # non-final state: no events, so the loop is padded with one a,
        # written as canonically as every other program.  Both states are
        # uniform, so they are internal states: q0 visits once (f a), and
        # q1, the least state of its cycle, adds the empty prefix, which
        # the walk leaves out
        m = tmp_path / "stops.updpa"
        m.write_text(udpda.format_udpda(udpda.RawUnpda(
            states=frozenset({"q0", "q1"}), stack_alphabet=frozenset({"_"}), bottom="_",
            initial="q0", finals=frozenset({"q0"}),
            transitions=frozenset({("q0", "a", "_", "q1", ("_",)),
                                   ("q1", "", "_", "q1", ("_",))}))))
        code, out, _ = run(capsys, "convert", "udpda-to-transcript", m)
        assert code == 0
        assert out == "\n".join([
            "kind: transcript", "alphabet: af", "N0 -> f a", "---", "alphabet: af", "N0 -> a"])

    def test_expr_to_cfg(self, capsys, tmp_path):
        e = tmp_path / "e.expr"
        e.write_text("(1|2)*\n")
        g = tmp_path / "e.cfg"
        assert run(capsys, "convert", "expr-to-cfg", e, "-o", g)[0] == 0
        from pdapress import intexpr
        cfg = intexpr.parse_cfg(g.read_text())
        assert intexpr.cfg_membership_unary(cfg, 5)

    def test_pair_kind_mismatch_exit_2(self, files, capsys, tmp_path):
        tpath = tmp_path / "even.tpair"
        ipath = tmp_path / "even.ipair"
        run(capsys, "convert", "udpda-to-transcript", files / "even.updpa", "-o", tpath)
        run(capsys, "convert", "udpda-to-indicator", files / "even.updpa", "-o", ipath)
        code, _, err = run(capsys, "convert", "indicator-to-udpda", tpath)
        assert code == 2 and "expected an indicator pair" in err
        code, _, err = run(capsys, "convert", "transcript-to-indicator", ipath)
        assert code == 2 and "expected a transcript pair" in err

    def test_tight_stack_flag_has_no_effect(self, files, capsys, tmp_path):
        pair = tmp_path / "p.pair"
        pair.write_text(translate.format_pair(translate.IndicatorPair(
            slp.literal("0110", "01"), slp.literal("101", "01"))))
        runs = [("convert", "slp-to-udpda", files / "p101.slp"),
                ("convert", "indicator-to-udpda", pair)]
        for i, argv in enumerate(runs):
            plain, tight = tmp_path / f"plain{i}", tmp_path / f"tight{i}"
            assert run(capsys, *argv, "-o", plain)[0] == 0
            assert run(capsys, *argv, "-o", tight, "--tight-stack")[0] == 0
            written = sorted(tmp_path.glob(f"plain{i}*"))
            assert written
            for path in written:
                twin = tmp_path / path.name.replace("plain", "tight")
                assert path.read_bytes() == twin.read_bytes()

    def test_machines_are_written_without_a_raw_copy(self, files, capsys, monkeypatch,
                                                     tmp_path):
        # a machine the library built is formatted from its normal form: the
        # bytes are those of its raw form, which is never built
        pair = tmp_path / "p.pair"
        pair.write_text(translate.format_pair(translate.IndicatorPair(
            slp.literal("0110", "01"), slp.literal("101", "01"))))
        runs = [("convert", "indicator-to-udpda", pair),
                ("convert", "slp-to-udpda", files / "p101.slp"),
                ("gen", "compslp-inclusion", files / "p101.slp", files / "p101.slp",
                 files / "zero.slp")]

        def written(tag):
            out = {}
            for i, argv in enumerate(runs):
                assert run(capsys, *argv, "-o", tmp_path / f"{tag}{i}")[0] == 0
                out.update((path.name[len(tag):], path.read_bytes())
                           for path in tmp_path.glob(f"{tag}{i}*"))
            return out

        before = written("before")
        assert len(before) == 4

        def refuse(*args, **kwargs):
            raise AssertionError("a raw machine was built")

        monkeypatch.setattr(udpda, "to_raw", refuse)
        monkeypatch.setattr(udpda.RawUnpda, "__init__", refuse)
        assert written("after") == before

    def test_deterministic_outputs(self, files, capsys, tmp_path):
        out1 = tmp_path / "one.pair"
        out2 = tmp_path / "two.pair"
        run(capsys, "convert", "udpda-to-indicator", files / "even.updpa", "-o", out1)
        run(capsys, "convert", "udpda-to-indicator", files / "even.updpa", "-o", out2)
        assert out1.read_text() == out2.read_text()


class TestGen:
    def test_lohrey_files(self, capsys, tmp_path):
        base = tmp_path / "loh"
        code, _, _ = run(capsys, "gen", "lohrey", "--weights", "1,2", "--target", "3",
                         "-o", base)
        assert code == 0
        w1 = slp.parse_slp((tmp_path / "loh.1.slp").read_text())
        assert slp.expand(w1, 100) == "baaaaabaabaaaaab"

    def test_compslp_then_inclusion(self, files, capsys, tmp_path):
        base = tmp_path / "cs"
        assert run(capsys, "gen", "subsetsum-compslp", "--weights", "1,2",
                   "--target", "3", "-o", base)[0] == 0
        code, out, _ = run(capsys, "slp", "compare", tmp_path / "cs.1.slp",
                           tmp_path / "cs.2.slp")
        assert code == 1 and out.startswith("no (witness")
        inc = tmp_path / "inc"
        assert run(capsys, "gen", "compslp-inclusion", tmp_path / "cs.1.slp",
                   tmp_path / "cs.2.slp", files / "zero.slp", "-o", inc)[0] == 0
        code, out, _ = run(capsys, "decide", "included",
                           tmp_path / "inc.1.updpa", tmp_path / "inc.2.updpa")
        assert code == 1 and out == "no (witness n=15)"

    def test_gss(self, capsys, tmp_path):
        expr = tmp_path / "g.expr"
        code, out, _ = run(capsys, "gen", "gss", "--u", "1", "--v", "1",
                           "--target", "1", "-o", expr)
        assert code == 0 and out == "bound: 6"
        assert run(capsys, "intexpr", "universal", expr, "--bound", "6")[0] == 0

    def test_intexpr_eval(self, capsys, tmp_path):
        e = tmp_path / "e.expr"
        e.write_text("2*")
        code, out, _ = run(capsys, "intexpr", "eval", e, "--bound", "7")
        assert (code, out) == (0, "0 2 4 6")

    def test_intexpr_constant_above_bound(self, capsys, tmp_path):
        e = tmp_path / "e.expr"
        e.write_text("1000000000000 | 3")
        assert run(capsys, "intexpr", "eval", e) == (0, "3", "")

    def test_missing_output_is_an_error(self, capsys):
        code, _, err = run(capsys, "gen", "lohrey", "--weights", "1", "--target", "1")
        assert code == 2 and "require -o" in err

    @pytest.mark.parametrize("verb, generator, n", [
        ("lohrey", "gen_lohrey", 0),
        ("subsetsum-compslp", "gen_subsetsum_to_compslp", 0),
        ("compslp-inclusion", "gen_compslp_to_inclusion", 3),
    ])
    def test_missing_output_is_checked_before_generating(self, files, capsys, monkeypatch,
                                                         verb, generator, n):
        calls = []
        monkeypatch.setattr(cli.reductions, generator, lambda *args: calls.append(args))
        code, _, err = run(capsys, "gen", verb, *[files / "p101.slp"] * n,
                           "--weights", "1", "--target", "1")
        assert code == 2 and "require -o" in err and calls == []


class TestCheckOutputs:
    def test_compare_json_work_counts(self, files, capsys, tmp_path):
        a = tmp_path / "a.slp"
        a.write_text(slp.format_slp(slp.literal("0101", "01")))
        b = tmp_path / "b.slp"
        b.write_text(slp.format_slp(slp.literal("0011", "01")))
        code, out, _ = run(capsys, "slp", "compare", a, b, "--json")
        payload = json.loads(out)
        assert code == 1
        assert {k: payload[k] for k in ("verdict", "witness", "visited", "checked")} == {
            "verdict": "no", "witness": 1, "visited": 1, "checked": 1}
        # the text output is unchanged
        assert run(capsys, "slp", "compare", a, b) == (1, "no (witness n=1)", "")

    def test_json_period(self, tmp_path, capsys):
        # the HARD subset-sum words: p2 is a power of a 103-bit base
        weights = ",".join(map(str, HARD_WEIGHTS))
        assert run(capsys, "gen", "subsetsum-compslp", "--weights", weights,
                   "--target", HARD_TARGET, "-o", tmp_path / "ss")[0] == 0
        words = (tmp_path / "ss.1.slp", tmp_path / "ss.2.slp")
        code, out, _ = run(capsys, "slp", "compare", *words, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "yes" and payload["period"] == 103
        assert list(payload)[3:6] == ["visited", "checked", "period"]
        assert payload["visited"] < 15_664 // 4
        code, out, _ = run(capsys, "slp", "compare", *words, "--json", "--budget", "10")
        payload = json.loads(out)
        assert code == 3 and (payload["visited"], payload["period"]) == (10, 0)
        # loops of 3,027 and 3,039 bits: a joint period of 3.07M positions
        machines = []
        for k in (1009, 1013):
            pair = translate.IndicatorPair(slp.literal("0", "01"),
                                           slp.power(slp.literal("100", "01"), k))
            machines.append(tmp_path / f"m{k}.updpa")
            machines[-1].write_text(udpda.format_udpda(translate.indicator_to_udpda(pair)))
        code, out, _ = run(capsys, "decide", "included", *machines, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["checked"] == 1 + 3 * 1009 * 1013
        assert payload["period"] in (3, 3 * 1009) and payload["visited"] <= 1000

    def test_included_json_work_counts(self, files, capsys):
        code, out, _ = run(capsys, "decide", "included",
                           files / "even.updpa", files / "loop.updpa", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "yes" and payload["witness"] is None
        assert 1 <= payload["visited"] <= payload["checked"]
        code, out, _ = run(capsys, "decide", "included",
                           files / "loop.updpa", files / "even.updpa", "--json", "--budget", "0")
        payload = json.loads(out)
        assert code == 3 and payload["verdict"] == "budget_exceeded"
        assert (payload["visited"], payload["checked"]) == (0, 0)

    def test_negative_budget_exits_2(self, files, capsys):
        # not a budget exceeded: no budget was given
        want = (2, "", "error: budget -1 is negative")
        assert run(capsys, "slp", "compare", files / "p101.slp", files / "p101.slp",
                   "--budget", "-1") == want
        assert run(capsys, "decide", "included", files / "even.updpa", files / "loop.updpa",
                   "--budget", "-1") == want

    def test_foreign_alphabet_exits_2(self, files, capsys, tmp_path):
        ab = tmp_path / "ab.slp"
        ab.write_text(slp.format_slp(slp.literal("aba", "ab")))
        want = (2, "", "error: word alphabets must be contained in the relation's alphabet")
        assert run(capsys, "slp", "compare", ab, files / "p101.slp") == want
        assert run(capsys, "slp", "compare", files / "p101.slp", ab) == want

    @pytest.mark.parametrize("text, problem", [
        ("alphabet: 01\nS -> 0 X\n", "missing production X"),
        ("alphabet: 01\nS -> 0 X\nX -> 1 S\n", "cycle at"),
        # `eps` is the empty right-hand side, so it cannot name a production
        ("alphabet: 01\nS -> eps\neps -> 0 1\n", "nonterminal name eps is reserved"),
        ("alphabet: 01\nS -> eps 1\neps -> 0 1\n", "nonterminal name eps is reserved"),
    ])
    def test_bad_program_exit_2(self, files, capsys, tmp_path, text, problem):
        bad = tmp_path / "bad.slp"
        bad.write_text(text)
        code, out, err = run(capsys, "slp", "compare", bad, files / "p101.slp")
        assert code == 2 and out == "" and problem in err

    def test_repeated_left_hand_side_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "twice.slp"
        bad.write_text("alphabet: 01\nS -> 0\nS -> 1 1\n")
        code, out, err = run(capsys, "slp", "len", bad)
        assert code == 2 and out == "" and "line 3: second production for S" in err

    @pytest.mark.parametrize("text, problem", [
        ("kind: indicator\nalphabet: 01\nS -> 1\n---\nalphabet: 01\nL -> 0\nL -> 1\n",
         "loop: line 7: second production for L"),
        ("kind: indicator\nalphabet: 01\nS -> 1\n---\nalphabet: 01\nL 0\n",
         "loop: line 6: expected 'N -> tok ...'"),
        ("kind: indicator\nalphabet: 01\nS -> 1 X\n---\nalphabet: 01\nL -> 0\n",
         "prefix: missing production X"),
    ])
    def test_pair_file_errors_exit_2(self, capsys, tmp_path, text, problem):
        # a pair file's errors count lines from the start of the file, and
        # name the block
        bad = tmp_path / "bad.pair"
        bad.write_text(text)
        code, out, err = run(capsys, "convert", "indicator-to-udpda", bad)
        assert code == 2 and out == "" and err == f"error: {problem}"


# 3,000 nested parentheses around a constant, each closed by an operator
NESTED = "(" * 3000 + "1" + "".join((")|1", ")+1", ")*", ")+2")[i % 4] for i in range(3000))


class TestDeepInputs:
    """Inputs nested far deeper than Python's recursion limit get answers.

    Deep trees are compared through their printed form: dataclass equality
    would recurse."""

    def test_nested_eval(self, capsys, tmp_path):
        e = tmp_path / "nested.expr"
        e.write_text(NESTED)
        assert run(capsys, "intexpr", "eval", e, "--bound", "6") == (0, "2 4 5 6", "")

    def test_nested_expr_to_cfg(self, capsys, tmp_path):
        e = tmp_path / "nested.expr"
        e.write_text(NESTED)
        g = tmp_path / "nested.cfg"
        assert run(capsys, "convert", "expr-to-cfg", e, "-o", g)[0] == 0
        cfg = intexpr.parse_cfg(g.read_text())
        members = intexpr.members_up_to(intexpr.parse_expr(NESTED), 6)
        assert [n for n in range(7) if intexpr.cfg_membership_unary(cfg, n)] == members

    def test_long_union_eval(self, capsys, tmp_path):
        # a flat union parses into a left-deep tree 5,000 terms deep
        e = tmp_path / "union.expr"
        e.write_text("|".join(str(2 * (i % 50)) for i in range(5000)))
        assert run(capsys, "intexpr", "eval", e, "--bound", "11") == (0, "0 2 4 6 8 10", "")

    def test_gen_gss_many_entries(self, capsys, tmp_path):
        expr = tmp_path / "g.expr"
        u = ",".join(str(i % 7 + 1) for i in range(1500))
        code, out, _ = run(capsys, "gen", "gss", "--u", u, "--v", "1,2", "--target", "3",
                           "-o", expr)
        assert code == 0 and out.startswith("bound: ")
        text = expr.read_text().strip()
        assert str(intexpr.parse_expr(text)) == text


class TestHugeNumbers:
    """Numbers past Python's 4,300-digit limit on int/str conversion print
    and parse in decimal, without touching that limit."""

    DEPTH = 15_000  # the doubling chain generates 1^(2^DEPTH)
    CHAIN = "\n".join(["alphabet: 01", *(f"D{i} -> D{i + 1} D{i + 1}" for i in range(DEPTH)),
                       f"D{DEPTH} -> 1"]) + "\n"

    @pytest.fixture()
    def chain(self, tmp_path):
        path = tmp_path / "chain.slp"
        path.write_text(self.CHAIN)
        return path

    @staticmethod
    def dec(n):
        return str(decimal.Decimal(n))

    def test_helpers(self):
        limit = sys.get_int_max_str_digits()
        big = 7 * 10**4400 + 3  # 4,401 digits
        assert format_int(big) == "7" + "0" * 4399 + "3"
        assert format_int(-12) == "-12" and format_int(0) == "0"
        assert parse_int(format_int(big)) == big
        assert parse_int("-" + format_int(big)) == -big
        assert parse_int("0" * 5000) == 0
        assert parse_int(hex(big)) == big and parse_int("0b101") == 5
        for bad in ("0123", "12a", "1" * 4400 + "a", "0" + "1" * 4400, ""):
            with pytest.raises(ValueError):
                parse_int(bad)
        assert sys.get_int_max_str_digits() == limit

    def test_len(self, chain, capsys):
        limit = sys.get_int_max_str_digits()
        assert run(capsys, "slp", "len", chain) == (0, self.dec(2**self.DEPTH), "")
        code, out, _ = run(capsys, "slp", "len", "--json", chain)
        assert code == 0 and json.loads(out)["length"] == self.dec(2**self.DEPTH)
        assert sys.get_int_max_str_digits() == limit

    def test_query_index(self, chain, capsys):
        limit = sys.get_int_max_str_digits()
        n = 2**self.DEPTH
        assert run(capsys, "slp", "query", chain, self.dec(10**4400)) == (0, "1", "")
        assert run(capsys, "slp", "query", chain, self.dec(n - 1)) == (0, "1", "")
        want = f"error: position {self.dec(n)} outside word of length {self.dec(n)}"
        assert run(capsys, "slp", "query", chain, self.dec(n)) == (2, "", want)
        assert run(capsys, "slp", "query", chain, hex(n)) == (2, "", want)
        assert sys.get_int_max_str_digits() == limit

    def test_member_and_sim_arguments(self, files, capsys, tmp_path):
        n = self.dec(2 * 10**4400)  # even
        assert run(capsys, "decide", "member", files / "even.updpa", n) == (0, "yes", "")
        assert run(capsys, "decide", "member", files / "even.updpa", n + "1") == (1, "no", "")
        # a machine that never reads: the simulator stops on its certificate
        silent = tmp_path / "silent.updpa"
        silent.write_text(udpda.format_udpda(udpda.RawUnpda(
            states=frozenset({"q0"}), stack_alphabet=frozenset({"_"}), bottom="_",
            initial="q0", finals=frozenset({"q0"}),
            transitions=frozenset({("q0", "", "_", "q0", ("_",))}),
        )))
        assert run(capsys, "sim", "member", silent, n) == (1, "no", "")
        assert run(capsys, "sim", "member", silent, "0") == (0, "yes", "")

    def test_witness_line(self):
        code, text, _ = cli._verdict(False, witness=3 * 10**5000)
        assert (code, text) == (cli.EXIT_NO, f"no (witness n=3{'0' * 5000})")

    def test_sim_prefix_past_any_string_length(self, files, capsys):
        n = 10**30
        want = f"error: prefix length {self.dec(n)} is not between 0 and {sys.maxsize}"
        assert run(capsys, "sim", "prefix", files / "even.updpa", self.dec(n)) == (2, "", want)
        with pytest.raises(BadRange):
            udpda.run_prefix(udpda.normalize(udpda.parse_udpda((files / "even.updpa").read_text())),
                             sys.maxsize + 1)

    def test_sim_prefix_too_long_to_allocate(self, files, capsys):
        # no address space holds sys.maxsize bytes, so the allocation fails
        # at once without touching memory
        n = sys.maxsize
        want = f"error: prefix length {n} is too long to allocate"
        assert run(capsys, "sim", "prefix", files / "even.updpa", str(n)) == (2, "", want)
        with pytest.raises(BadRange, match="too long to allocate"):
            udpda.run_prefix(udpda.normalize(udpda.parse_udpda((files / "even.updpa").read_text())), n)

    def test_json_witness_of_5000_digits(self, files, capsys, monkeypatch):
        limit = sys.get_int_max_str_digits()
        witness = 3 * 10**4999 + 7
        monkeypatch.setattr(cli.decide, "inclusion",
                            lambda a1, a2, budget: compare.CheckResult(compare.FAILS, witness, 2, witness))
        code, out, _ = run(capsys, "decide", "included", files / "even.updpa",
                           files / "loop.updpa", "--json")
        payload = json.loads(out, parse_int=parse_int)
        assert code == 1 and payload["verdict"] == "no"
        assert payload["witness"] == payload["checked"] == witness
        assert payload["visited"] == 2 and set(payload) == {
            "verdict", "witness", "sizes", "visited", "checked", "period", "timing_ms"}
        assert sys.get_int_max_str_digits() == limit
        # below the limit the text is json.dumps's, byte for byte
        small = {"verdict": "no", "witness": -3, "sizes": {"m": 4}, "ok": True, "t": 0.5}
        assert cli._json(small) == json.dumps(small)

    def test_error_messages(self):
        n = 2**self.DEPTH
        chain = slp.parse_slp(self.CHAIN)
        cases = [
            (CapExceeded, lambda: slp.expand(chain, 10), self.dec(n)),
            (IndexOutOfRange, lambda: slp.query(chain, n + 1), self.dec(n + 1)),
            (BadRange, lambda: slp.slice(chain, 0, n + 1), self.dec(n + 1)),
            (BadRange, lambda: slp.power(chain, -n), self.dec(-n)),
            (BadShift, lambda: slp.cyclic_shift(chain, n), self.dec(n)),
            (NonIntegralResult, lambda: slp.power(chain, 1, 3), self.dec(n)),
            (LengthMismatch, lambda: compare.comp_slp(chain, slp.literal("1", "01"),
                                                      compare.order_from_literal("0<=1")),
             self.dec(n)),
        ]
        for error, call, digits in cases:
            with pytest.raises(error) as info:
                call()
            assert digits in str(info.value)


class TestInternalError:
    def test_crash_exits_4_not_no(self, files, capsys, monkeypatch):
        def crash(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cmd_sim", crash)
        code, out, err = run(capsys, "sim", "member", files / "even.updpa", "2")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "internal error: RecursionError: maximum recursion depth exceeded"


def run_or_exit(capsys, *argv):
    """run, counting an argparse error (SystemExit) as its exit code."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestArguments:
    """Each verb group takes only the options its handler reads, and each
    verb exactly its number of inputs, in any order after the group."""

    OPTIONS = {
        "convert": {"--json", "-o", "--tight-stack"},
        "decide": {"--json", "--budget"},
        "slp": {"--json", "--budget", "--cap", "--seed", "--order", "--relation"},
        "intexpr": {"--json", "--bound"},
        "gen": {"--json", "-o", "--weights", "--target", "--u", "--v"},
        "sim": {"--json"},
    }
    INPUTS = [
        ("convert", "slp-to-udpda", 1), ("convert", "indicator-to-udpda", 1),
        ("convert", "udpda-to-indicator", 1), ("convert", "udpda-to-transcript", 1),
        ("convert", "transcript-to-indicator", 1), ("convert", "expr-to-cfg", 1),
        ("decide", "member", 2), ("decide", "empty", 1), ("decide", "universal", 1),
        ("decide", "equal", 2), ("decide", "included", 2),
        ("slp", "len", 1), ("slp", "query", 2), ("slp", "equal", 2), ("slp", "compare", 2),
        ("intexpr", "eval", 1), ("intexpr", "universal", 1),
        ("gen", "lohrey", 0), ("gen", "subsetsum-compslp", 0), ("gen", "compslp-inclusion", 3),
        ("gen", "gss", 0),
        ("sim", "prefix", 2), ("sim", "member", 2),
    ]

    @staticmethod
    def groups():
        return {name: cli.build_parser(name) for name in cli.GROUPS}

    def test_option_sets(self):
        got = {name: {a.option_strings[0] for a in group._actions
                      if a.option_strings and a.dest != "help"}
               for name, group in self.groups().items()}
        assert got == self.OPTIONS
        assert sum(map(len, got.values())) == 20

    def test_every_verb_has_a_count(self):
        verbs = {(name, verb) for name, group in self.groups().items()
                 for a in group._actions if a.dest == "what" for verb in a.choices}
        assert verbs == {(group, verb) for group, verb, _ in self.INPUTS}

    @pytest.mark.parametrize("group, verb, n", INPUTS)
    def test_wrong_number_of_inputs_exits_2(self, capsys, tmp_path, group, verb, n):
        # the count is checked before any input is read
        for count in (n - 1, n + 1):
            if count < 0:
                continue
            inputs = [tmp_path / f"missing{i}" for i in range(count)]
            want = f"error: {group} {verb} takes {n} input{'' if n == 1 else 's'}, got {count}"
            assert run(capsys, group, verb, *inputs) == (2, "", want)

    @pytest.mark.parametrize("argv", [
        ("decide", "equal", "even.updpa", "even.updpa", "--cap", "5"),
        ("decide", "member", "even.updpa", "4", "--seed", "3"),
        ("decide", "empty", "even.updpa", "-o", "out"),
        ("sim", "prefix", "even.updpa", "6", "--budget", "5"),
        ("convert", "udpda-to-indicator", "even.updpa", "--bound", "3"),
        ("slp", "len", "p101.slp", "--tight-stack"),
        ("intexpr", "eval", "e.expr", "--cap", "3"),
        ("gen", "gss", "--u", "1", "--v", "1", "--order", "0<=1"),
        ("gen", "compslp-inclusion", "p101.slp", "p101.slp", "zero.slp", "-o", "out",
         "--tight-stack"),
    ])
    def test_removed_flag_is_an_argparse_error(self, files, capsys, argv):
        code, out, err = run_or_exit(capsys, *(files / a if "." in a else a for a in argv))
        assert code == 2 and out == "" and "unrecognized arguments" in err

    @pytest.mark.parametrize("argv, canonical", [
        (("decide", "member", "even.updpa", "--json", "4"),
         ("decide", "member", "even.updpa", "4", "--json")),
        (("decide", "--json", "member", "even.updpa", "4"),
         ("decide", "member", "even.updpa", "4", "--json")),
        (("gen", "compslp-inclusion", "-o", "base", "p101.slp", "p011.slp", "zero.slp"),
         ("gen", "compslp-inclusion", "p101.slp", "p011.slp", "zero.slp", "-o", "base")),
        (("slp", "compare", "p101.slp", "--order", "0<=1", "p011.slp"),
         ("slp", "compare", "p101.slp", "p011.slp", "--order", "0<=1")),
        (("intexpr", "universal", "--bound", "6", "g.expr"),
         ("intexpr", "universal", "g.expr", "--bound", "6")),
    ])
    def test_options_and_inputs_in_any_order(self, files, capsys, argv, canonical):
        (files / "p011.slp").write_text(slp.format_slp(slp.literal("011", "01")))
        (files / "g.expr").write_text("(1|2)*\n")
        names = {"even.updpa", "p101.slp", "p011.slp", "zero.slp", "g.expr", "base"}

        def outcome(words):
            code, out, err = run(capsys, *(files / w if w in names else w for w in words))
            if out.startswith("{"):
                out = {k: v for k, v in json.loads(out).items() if k != "timing_ms"}
            return code, out, err

        got = outcome(argv)
        assert got == outcome(canonical) and got[0] in (0, 1) and got[2] == ""

    def test_help_lists_groups_and_verbs(self, capsys):
        code, out, _ = run_or_exit(capsys, "-h")
        assert code == 0
        for name, (help_text, verbs) in cli.GROUPS.items():
            assert f"{name}  " in out and help_text in out
            code, out_group, _ = run_or_exit(capsys, name, "-h")
            assert code == 0 and all(verb in out_group for verb in verbs)

    def test_index_error_in_a_handler_exits_4(self, files, capsys, monkeypatch):
        def crash(p):
            raise IndexError("list index out of range")

        monkeypatch.setattr(cli.slp, "length", crash)
        assert run(capsys, "slp", "len", files / "p101.slp") == (
            4, "", "internal error: IndexError: list index out of range")

    def test_sizes_only_under_json(self, files, capsys, monkeypatch):
        def crash(a):
            raise AssertionError("sizes computed without --json")

        monkeypatch.setattr(cli.udpda, "normal_size", crash)
        monkeypatch.setattr(cli.slp, "size", crash)
        assert run(capsys, "decide", "equal", files / "even.updpa", files / "even.updpa") == (
            0, "yes", "")
        assert run(capsys, "slp", "compare", files / "p101.slp", files / "p101.slp") == (
            0, "yes", "")
        monkeypatch.undo()
        code, out, _ = run(capsys, "decide", "equal", files / "even.updpa", files / "even.updpa",
                           "--json")
        size = udpda.normalize(udpda.parse_udpda((files / "even.updpa").read_text())).size
        assert json.loads(out)["sizes"] == {"machine1": size, "machine2": size}
        code, out, _ = run(capsys, "slp", "compare", files / "p101.slp", files / "p101.slp",
                           "--json")
        payload = json.loads(out)
        assert list(payload) == ["verdict", "witness", "sizes", "visited", "checked", "period",
                                 "timing_ms"]
        size = slp.size(slp.parse_slp((files / "p101.slp").read_text()))
        assert payload["sizes"] == {"slp1": size, "slp2": size}

    def test_convert_json_line(self, files, capsys, tmp_path):
        code, out, _ = run(capsys, "convert", "udpda-to-indicator", files / "even.updpa",
                           "-o", tmp_path / "even.pair", "--json")
        payload = json.loads(out)
        assert code == 0 and list(payload) == ["verdict", "witness", "sizes", "timing_ms"]
        assert payload["verdict"] is payload["witness"] is None and payload["sizes"] == {}


def test_readme_command_lines(tmp_path, capsys, monkeypatch):
    # every command of the README's example block runs on small files and
    # answers: none is an input error (2), a budget exceeded (3) or a crash (4)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in (part.split("```")[0] for part in readme.split("```sh\n")[1:])
                 if "pda-press" in b)
    monkeypatch.chdir(tmp_path)
    Path("p.slp").write_text(slp.format_slp(slp.literal("0110100", "01")))
    Path("zero.slp").write_text(slp.format_slp(slp.literal("0", "01")))
    ran = 0
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "pda-press", line
            assert run(capsys, *words[1:])[0] in (0, 1), line
            ran += 1
    assert ran == 13
