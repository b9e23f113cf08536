"""Command-line front end: conversions, decisions, simulation, generators.

Verdict verbs print yes/no (plus a witness where applicable) and exit with
0 for yes/holds, 1 for no/fails, 3 when a componentwise check ran out of
its work budget (aligned blocks examined, never more than positions) or
the simulator ran out of fuel; input and parse errors exit with 2, and any
other failure (an internal error, which is never a verdict) exits with 4.
With --json a machine-readable object carrying verdict, witness, sizes and
timing is printed instead; for componentwise checks it also carries the
blocks visited and the length of the prefix checked clean.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import compare, decide, intexpr, reductions, slp, translate, udpda
from .errors import FuelExhausted, ToolError, format_int, parse_int

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(args, text: str, suffix: str | None = None) -> None:
    if args.output is None:
        sys.stdout.write(text)
        return
    path = args.output if suffix is None else args.output + suffix
    Path(path).write_text(text, encoding="utf-8")


def _load_machine(path: str) -> udpda.NormalUdpda:
    return udpda.normalize(udpda.parse_udpda(_read(path)))


def _emit(args, verdict: str, witness=None, sizes=None, started=None, extra=None) -> int:
    """Print a verdict and map it to the exit code."""
    code = {
        "yes": EXIT_YES,
        "holds": EXIT_YES,
        "no": EXIT_NO,
        "fails": EXIT_NO,
        "budget_exceeded": EXIT_BUDGET,
    }[verdict]
    if args.json:
        payload = {"verdict": verdict, "witness": witness, "sizes": sizes or {}}
        if extra:
            payload.update(extra)
        payload["timing_ms"] = round((time.monotonic() - started) * 1000, 3)
        print(json.dumps(payload))
        return code
    if verdict in ("yes", "holds"):
        print("yes")
    elif verdict == "budget_exceeded":
        print("budget exceeded")
    elif witness is not None:
        print(f"no (witness n={format_int(witness)})")
    else:
        print("no")
    return code


def _emit_value(args, text_value: str, started, **fields) -> int:
    if args.json:
        fields["timing_ms"] = round((time.monotonic() - started) * 1000, 3)
        print(json.dumps(fields))
    else:
        print(text_value)
    return EXIT_YES


def _emit_check(args, res: compare.CheckResult, sizes, started) -> int:
    """Print a componentwise check's outcome, with its work counts under --json."""
    verdict = {compare.HOLDS: "yes", compare.FAILS: "no"}.get(res.verdict, "budget_exceeded")
    return _emit(args, verdict, res.witness, sizes, started,
                 {"visited": res.visited, "checked": res.checked})


# -- convert ----------------------------------------------------------------


def cmd_convert(args) -> int:
    started = time.monotonic()
    verb = args.what
    if verb == "slp-to-udpda":
        p = slp.parse_slp(_read(args.inputs[0]))
        machine = translate.slp_to_udpda(p)
        _write(args, udpda.format_udpda(udpda.to_raw(machine)))
    elif verb == "indicator-to-udpda":
        pair = translate.parse_pair(_read(args.inputs[0]))
        if not isinstance(pair, translate.IndicatorPair):
            raise ToolError("expected an indicator pair file")
        machine = translate.indicator_to_udpda(pair)
        _write(args, udpda.format_udpda(udpda.to_raw(machine)))
    elif verb in ("udpda-to-indicator", "udpda-to-transcript"):
        machine = _load_machine(args.inputs[0])
        if verb == "udpda-to-indicator":
            pair = translate.udpda_to_indicator(machine)
        else:
            pair = translate.udpda_to_transcript(machine)
        _write(args, translate.format_pair(pair))
    elif verb == "transcript-to-indicator":
        pair = translate.parse_pair(_read(args.inputs[0]))
        if not isinstance(pair, translate.TranscriptPair):
            raise ToolError("expected a transcript pair file")
        _write(args, translate.format_pair(translate.transcript_to_characteristic(pair)))
    else:  # expr-to-cfg
        expr = intexpr.parse_expr(_read(args.inputs[0]))
        _write(args, intexpr.format_cfg(intexpr.expr_to_cfg(expr)))
    if args.json:
        print(json.dumps({"verdict": None, "witness": None, "sizes": {},
                          "timing_ms": round((time.monotonic() - started) * 1000, 3)}))
    return EXIT_YES


# -- decide -----------------------------------------------------------------


def cmd_decide(args) -> int:
    started = time.monotonic()
    verb = args.what
    a1 = _load_machine(args.inputs[0])
    sizes = {"machine1": a1.size}
    if verb == "member":
        ok = decide.compressed_membership(a1, parse_int(args.inputs[1]))
        return _emit(args, "yes" if ok else "no", sizes=sizes, started=started)
    if verb == "empty":
        return _emit(args, "yes" if decide.emptiness(a1) else "no", sizes=sizes, started=started)
    if verb == "universal":
        return _emit(args, "yes" if decide.universality(a1) else "no", sizes=sizes, started=started)
    a2 = _load_machine(args.inputs[1])
    sizes["machine2"] = a2.size
    if verb == "equal":
        return _emit(args, "yes" if decide.equivalence(a1, a2) else "no", sizes=sizes, started=started)
    return _emit_check(args, decide.inclusion(a1, a2, args.budget), sizes, started)


# -- slp ----------------------------------------------------------------------


def cmd_slp(args) -> int:
    started = time.monotonic()
    verb = args.what
    p1 = slp.parse_slp(_read(args.inputs[0]))
    if verb == "len":
        n = format_int(slp.length(p1))
        return _emit_value(args, n, started, length=n)
    if verb == "query":
        sym = slp.query(p1, parse_int(args.inputs[1]))
        return _emit_value(args, sym, started, symbol=sym)
    p2 = slp.parse_slp(_read(args.inputs[1]))
    sizes = {"slp1": slp.size(p1), "slp2": slp.size(p2)}
    if verb == "equal":
        same = slp.equal(p1, p2, exact_threshold=args.cap, seed=args.seed)
        return _emit(args, "yes" if same else "no", sizes=sizes, started=started)
    # compare
    if args.relation == "wildcard":
        res = compare.partial_word_match(p1, p2, args.budget)
    else:
        rel = compare.order_from_literal(args.order)
        res = compare.comp_slp(p1, p2, rel, args.budget)
    return _emit_check(args, res, sizes, started)


# -- intexpr ------------------------------------------------------------------


def cmd_intexpr(args) -> int:
    started = time.monotonic()
    expr = intexpr.parse_expr(_read(args.inputs[0]))
    if args.what == "eval":
        members = intexpr.members_up_to(expr, args.bound)
        return _emit_value(args, " ".join(map(str, members)), started, members=members)
    witness = intexpr.universal_up_to(expr, args.bound)
    return _emit(args, "yes" if witness is None else "no", witness, started=started)


# -- gen ----------------------------------------------------------------------


def _parse_vector(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def cmd_gen(args) -> int:
    started = time.monotonic()
    verb = args.what
    if verb in ("lohrey", "subsetsum-compslp"):
        inst = reductions.SubsetSumInstance(_parse_vector(args.weights), args.target)
        if verb == "lohrey":
            p1, p2 = reductions.gen_lohrey(inst)
        else:
            p1, p2 = reductions.gen_subsetsum_to_compslp(inst)
        if args.output is None:
            raise ToolError("gen verbs with two outputs require -o BASE")
        _write(args, slp.format_slp(p1), suffix=".1.slp")
        _write(args, slp.format_slp(p2), suffix=".2.slp")
        return _emit_value(args, f"{args.output}.1.slp {args.output}.2.slp", started,
                           files=[args.output + ".1.slp", args.output + ".2.slp"])
    if verb == "compslp-inclusion":
        p1 = slp.parse_slp(_read(args.inputs[0]))
        p2 = slp.parse_slp(_read(args.inputs[1]))
        p0 = slp.parse_slp(_read(args.inputs[2]))
        a1, a2 = reductions.gen_compslp_to_inclusion(p1, p2, p0)
        if args.output is None:
            raise ToolError("gen verbs with two outputs require -o BASE")
        _write(args, udpda.format_udpda(udpda.to_raw(a1)), suffix=".1.updpa")
        _write(args, udpda.format_udpda(udpda.to_raw(a2)), suffix=".2.updpa")
        return _emit_value(args, f"{args.output}.1.updpa {args.output}.2.updpa", started,
                           files=[args.output + ".1.updpa", args.output + ".2.updpa"])
    # gss
    inst = reductions.GssInstance(_parse_vector(args.u), _parse_vector(args.v), args.target)
    expr, bound = reductions.gen_gss_to_intexpr(inst)
    _write(args, str(expr) + "\n")
    return _emit_value(args, f"bound: {bound}", started, bound=bound)


# -- sim ----------------------------------------------------------------------


def cmd_sim(args) -> int:
    started = time.monotonic()
    machine = _load_machine(args.inputs[0])
    n = parse_int(args.inputs[1])
    try:
        if args.what == "prefix":
            bits = udpda.run_prefix(machine, n)
            return _emit_value(args, bits, started, bits=bits)
        ok = udpda.membership_sim(machine, n)
    except FuelExhausted:
        return _emit(args, "budget_exceeded", started=started)
    return _emit(args, "yes" if ok else "no", started=started)


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("-o", "--output", metavar="PATH", help="output file (or base path)")
    common.add_argument("--budget", type=int, default=compare.DEFAULT_BUDGET,
                        help="work budget for componentwise checks: aligned blocks "
                             "examined, never more than positions")
    common.add_argument("--bound", type=int, default=64,
                        help="evaluation bound for integer expressions")
    common.add_argument("--cap", type=int, default=4096,
                        help="expansion cap for exact word comparison")
    common.add_argument("--seed", type=int, default=0,
                        help="picks the fingerprint's evaluation point "
                             "for words longer than --cap")
    common.add_argument("--tight-stack", action="store_true",
                        help="no effect, kept for old command lines: machines "
                             "always use a bounded stack alphabet")

    parser = argparse.ArgumentParser(
        prog="pda-press",
        description="unary pushdown automata, compressed words, and their decision problems",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    convert = sub.add_parser("convert", parents=[common],
                             help="translate between representations")
    convert.add_argument("what", choices=[
        "slp-to-udpda", "indicator-to-udpda", "udpda-to-indicator",
        "udpda-to-transcript", "transcript-to-indicator", "expr-to-cfg"])
    convert.add_argument("inputs", nargs=1)
    convert.set_defaults(handler=cmd_convert)

    dec = sub.add_parser("decide", parents=[common], help="decision problems for machines")
    dec.add_argument("what", choices=["member", "empty", "universal", "equal", "included"])
    dec.add_argument("inputs", nargs="+")
    dec.set_defaults(handler=cmd_decide)

    slpv = sub.add_parser("slp", parents=[common],
                          help="operations on straight-line programs")
    slpv.add_argument("what", choices=["len", "query", "equal", "compare"])
    slpv.add_argument("inputs", nargs="+")
    slpv.add_argument("--order", default="0<=1", help="order literal, e.g. '0<=1'")
    slpv.add_argument("--relation", choices=["order", "wildcard"], default="order")
    slpv.set_defaults(handler=cmd_slp)

    ix = sub.add_parser("intexpr", parents=[common], help="integer expressions")
    ix.add_argument("what", choices=["eval", "universal"])
    ix.add_argument("inputs", nargs=1)
    ix.set_defaults(handler=cmd_intexpr)

    gen = sub.add_parser("gen", parents=[common], help="hardness-instance generators")
    gen.add_argument("what", choices=["lohrey", "subsetsum-compslp", "compslp-inclusion", "gss"])
    gen.add_argument("inputs", nargs="*")
    gen.add_argument("--weights", default="", help="comma-separated weights")
    gen.add_argument("--target", type=int, default=0)
    gen.add_argument("--u", default="", help="comma-separated entries")
    gen.add_argument("--v", default="", help="comma-separated entries")
    gen.set_defaults(handler=cmd_gen)

    sim = sub.add_parser("sim", parents=[common], help="step-by-step simulation")
    sim.add_argument("what", choices=["prefix", "member"])
    sim.add_argument("inputs", nargs=2)
    sim.set_defaults(handler=cmd_sim)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ToolError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except IndexError:
        print("error: missing argument for this verb", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # last resort: a crash must not read as exit 1, "no"
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
