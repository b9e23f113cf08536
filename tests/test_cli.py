"""The pda-press command: verbs, exit codes, output formats."""

import json

import pytest

from pdapress import cli, intexpr, slp, translate, udpda
from pdapress.cli import main
from pdapress.errors import FuelExhausted


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
                ("convert", "indicator-to-udpda", pair),
                ("gen", "compslp-inclusion", files / "p101.slp", files / "p101.slp",
                 files / "zero.slp")]
        for i, argv in enumerate(runs):
            plain, tight = tmp_path / f"plain{i}", tmp_path / f"tight{i}"
            assert run(capsys, *argv, "-o", plain)[0] == 0
            assert run(capsys, *argv, "-o", tight, "--tight-stack")[0] == 0
            written = sorted(tmp_path.glob(f"plain{i}*"))
            assert written
            for path in written:
                twin = tmp_path / path.name.replace("plain", "tight")
                assert path.read_bytes() == twin.read_bytes()

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

    @pytest.mark.parametrize("text, problem", [
        ("alphabet: 01\nS -> 0 X\n", "missing production X"),
        ("alphabet: 01\nS -> 0 X\nX -> 1 S\n", "cycle at"),
    ])
    def test_bad_program_exit_2(self, files, capsys, tmp_path, text, problem):
        bad = tmp_path / "bad.slp"
        bad.write_text(text)
        code, out, err = run(capsys, "slp", "compare", bad, files / "p101.slp")
        assert code == 2 and out == "" and problem in err


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


class TestInternalError:
    def test_crash_exits_4_not_no(self, files, capsys, monkeypatch):
        def crash(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cmd_sim", crash)
        code, out, err = run(capsys, "sim", "member", files / "even.updpa", "2")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "internal error: RecursionError: maximum recursion depth exceeded"
