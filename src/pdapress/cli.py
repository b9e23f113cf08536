"""Command-line front end: conversions, decisions, simulation, generators.

Verdict verbs print yes/no (plus a witness where applicable) and exit with
0 for yes/holds, 1 for no/fails, 3 when a componentwise check ran out of
its work budget (aligned blocks examined, never more than positions) or
the simulator ran out of fuel; input and parse errors, including a wrong
number of inputs for the verb, exit with 2, and any other failure (an
internal error, which is never a verdict) exits with 4.
With --json a machine-readable object carrying verdict, witness, sizes and
timing is printed instead; for componentwise checks it also carries the
blocks visited, the length of the prefix checked clean and the period of
the residue check (0 when the walk decided alone).  Each verb
group accepts only the options its handler reads; options and inputs may
come in any order after the verb group.
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

# group -> (help, {verb: number of inputs}); main checks the count before
# it dispatches to cmd_<group>
GROUPS = {
    "convert": ("translate between representations", dict.fromkeys((
        "slp-to-udpda", "indicator-to-udpda", "udpda-to-indicator",
        "udpda-to-transcript", "transcript-to-indicator", "expr-to-cfg"), 1)),
    "decide": ("decision problems for machines",
               {"member": 2, "empty": 1, "universal": 1, "equal": 2, "included": 2}),
    "slp": ("operations on straight-line programs",
            {"len": 1, "query": 2, "equal": 2, "compare": 2}),
    "intexpr": ("integer expressions", {"eval": 1, "universal": 1}),
    "gen": ("hardness-instance generators",
            {"lohrey": 0, "subsetsum-compslp": 0, "compslp-inclusion": 3, "gss": 0}),
    "sim": ("step-by-step simulation", {"prefix": 2, "member": 2}),
}

# what a handler returns: the exit code, the text line (None: print none),
# and the fields of the --json object, to which main adds timing_ms
Reply = tuple[int, "str | None", dict]


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")


def _load_machine(path: str) -> udpda.RawUnpda:
    """A raw machine; the translation normalizes it on demand."""
    return udpda.parse_udpda(_read(path))


def _json(payload: dict) -> str:
    """json.dumps of an object, with its top-level ints written through
    format_int: json.dumps refuses ints past Python's 4,300-digit limit."""
    return "{" + ", ".join(
        f"{json.dumps(key)}: {format_int(value) if type(value) is int else json.dumps(value)}"
        for key, value in payload.items()) + "}"


def _value(text: str, **fields) -> Reply:
    return EXIT_YES, text, fields


def _verdict(ok: bool | None, witness=None, sizes=None, **extra) -> Reply:
    """A verdict: yes (True), no (False, with the witness if there is one) or
    budget exceeded (None)."""
    if ok is None:
        code, verdict, text = EXIT_BUDGET, "budget_exceeded", "budget exceeded"
    elif ok:
        code, verdict, text = EXIT_YES, "yes", "yes"
    else:
        code, verdict = EXIT_NO, "no"
        text = "no" if witness is None else f"no (witness n={format_int(witness)})"
    return code, text, {"verdict": verdict, "witness": witness, "sizes": sizes or {}, **extra}


def _check(res: compare.CheckResult, sizes) -> Reply:
    """A componentwise check's outcome, with its work counts under --json."""
    ok = {compare.HOLDS: True, compare.FAILS: False}.get(res.verdict)
    return _verdict(ok, res.witness, sizes, visited=res.visited, checked=res.checked,
                    period=res.period)


# -- convert ----------------------------------------------------------------


def _pair(text: str, kind: type, name: str):
    pair = translate.parse_pair(text)
    if not isinstance(pair, kind):
        raise ToolError(f"expected {name} pair file")
    return pair


def cmd_convert(args) -> Reply:
    verb, text = args.what, _read(args.inputs[0])
    if verb == "slp-to-udpda":
        out = udpda.format_udpda(translate.slp_to_udpda(slp.parse_slp(text)))
    elif verb == "indicator-to-udpda":
        pair = _pair(text, translate.IndicatorPair, "an indicator")
        out = udpda.format_udpda(translate.indicator_to_udpda(pair))
    elif verb == "udpda-to-indicator":
        out = translate.format_pair(translate.udpda_to_indicator(udpda.parse_udpda(text)))
    elif verb == "udpda-to-transcript":
        out = translate.format_pair(translate.udpda_to_transcript(udpda.parse_udpda(text)))
    elif verb == "transcript-to-indicator":
        pair = _pair(text, translate.TranscriptPair, "a transcript")
        out = translate.format_pair(translate.transcript_to_characteristic(pair))
    else:  # expr-to-cfg
        out = intexpr.format_cfg(intexpr.expr_to_cfg(intexpr.parse_expr(text)))
    _write(args, out)
    return EXIT_YES, None, {"verdict": None, "witness": None, "sizes": {}}


# -- decide -----------------------------------------------------------------


def cmd_decide(args) -> Reply:
    verb = args.what
    machines = [_load_machine(path)
                for path in (args.inputs[:1] if verb == "member" else args.inputs)]
    sizes = ({f"machine{i}": udpda.normal_size(a) for i, a in enumerate(machines, 1)}
             if args.json else None)
    if verb == "member":
        return _verdict(decide.compressed_membership(machines[0], parse_int(args.inputs[1])),
                        sizes=sizes)
    if verb == "included":
        return _check(decide.inclusion(*machines, args.budget), sizes)
    answer = {"empty": decide.emptiness, "universal": decide.universality,
              "equal": decide.equivalence}[verb]
    return _verdict(answer(*machines), sizes=sizes)


# -- slp ----------------------------------------------------------------------


def cmd_slp(args) -> Reply:
    verb = args.what
    p1 = slp.parse_slp(_read(args.inputs[0]))
    if verb == "len":
        n = format_int(slp.length(p1))
        return _value(n, length=n)
    if verb == "query":
        sym = slp.query(p1, parse_int(args.inputs[1]))
        return _value(sym, symbol=sym)
    p2 = slp.parse_slp(_read(args.inputs[1]))
    sizes = {"slp1": slp.size(p1), "slp2": slp.size(p2)} if args.json else None
    if verb == "equal":
        return _verdict(slp.equal(p1, p2, exact_threshold=args.cap, seed=args.seed), sizes=sizes)
    # compare
    if args.relation == "wildcard":
        return _check(compare.partial_word_match(p1, p2, args.budget), sizes)
    rel = compare.order_from_literal(args.order)
    return _check(compare.comp_slp(p1, p2, rel, args.budget), sizes)


# -- intexpr ------------------------------------------------------------------


def cmd_intexpr(args) -> Reply:
    expr = intexpr.parse_expr(_read(args.inputs[0]))
    if args.what == "eval":
        members = intexpr.members_up_to(expr, args.bound)
        return _value(" ".join(map(str, members)), members=members)
    witness = intexpr.universal_up_to(expr, args.bound)
    return _verdict(witness is None, witness)


# -- gen ----------------------------------------------------------------------


def _parse_vector(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def cmd_gen(args) -> Reply:
    verb = args.what
    if verb == "gss":
        inst = reductions.GssInstance(_parse_vector(args.u), _parse_vector(args.v), args.target)
        expr, bound = reductions.gen_gss_to_intexpr(inst)
        _write(args, str(expr) + "\n")
        return _value(f"bound: {bound}", bound=bound)
    if args.output is None:
        raise ToolError("gen verbs with two outputs require -o BASE")
    if verb == "compslp-inclusion":
        p1, p2, p0 = (slp.parse_slp(_read(path)) for path in args.inputs)
        made = reductions.gen_compslp_to_inclusion(p1, p2, p0)
        suffix, render = ".updpa", udpda.format_udpda
    else:
        inst = reductions.SubsetSumInstance(_parse_vector(args.weights), args.target)
        gen = reductions.gen_lohrey if verb == "lohrey" else reductions.gen_subsetsum_to_compslp
        made = gen(inst)
        suffix, render = ".slp", slp.format_slp
    files = [f"{args.output}.{i}{suffix}" for i in (1, 2)]
    for path, item in zip(files, made):
        Path(path).write_text(render(item), encoding="utf-8")
    return _value(" ".join(files), files=files)


# -- sim ----------------------------------------------------------------------


def cmd_sim(args) -> Reply:
    machine = udpda.NormalView(_load_machine(args.inputs[0]))
    n = parse_int(args.inputs[1])
    try:
        if args.what == "prefix":
            bits = udpda.run_prefix(machine, n)
            return _value(bits, bits=bits)
        return _verdict(udpda.membership_sim(machine, n))
    except FuelExhausted:
        return _verdict(None)


# -- parser -------------------------------------------------------------------


def build_parser(group: str) -> argparse.ArgumentParser:
    """The parser of one verb group: the verb, its inputs, --json and the
    options the group's handler reads, in any order after the group."""
    help_text, verbs = GROUPS[group]
    parser = argparse.ArgumentParser(prog=f"pda-press {group}", description=help_text)
    add = parser.add_argument
    add("what", choices=list(verbs))
    add("inputs", nargs="*", default=[])  # with a default argparse never asks for inputs
    add("--json", action="store_true", help="machine-readable output")
    if group in ("convert", "gen"):
        add("-o", "--output", metavar="PATH", help="output file (or base path)")
    if group == "convert":
        add("--tight-stack", action="store_true",
            help="no effect, kept for old command lines: machines "
                 "always use a bounded stack alphabet")
    if group in ("decide", "slp"):
        add("--budget", type=int, default=compare.DEFAULT_BUDGET,
            help="work budget for componentwise checks: aligned "
                 "blocks examined, never more than positions; a residue "
                 "check counts as one block")
    if group == "slp":
        add("--cap", type=int, default=4096, help="expansion cap for exact word comparison")
        add("--seed", type=int, default=0,
            help="picks the fingerprint's evaluation point for words longer than --cap")
        add("--order", default="0<=1", help="order literal, e.g. '0<=1'")
        add("--relation", choices=["order", "wildcard"], default="order")
    elif group == "intexpr":
        add("--bound", type=int, default=64, help="evaluation bound for integer expressions")
    elif group == "gen":
        add("--weights", default="", help="comma-separated weights")
        add("--target", type=int, default=0)
        add("--u", default="", help="comma-separated entries")
        add("--v", default="", help="comma-separated entries")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    groups = "".join(f"  {name:<9}{help_text}\n" for name, (help_text, _) in GROUPS.items())
    top = argparse.ArgumentParser(
        prog="pda-press", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="unary pushdown automata, compressed words, and their decision problems",
        epilog=f"groups:\n{groups}\n'pda-press GROUP -h' lists the group's verbs and options")
    top.add_argument("group", choices=list(GROUPS))
    group = top.parse_args(argv[:1]).group
    args = build_parser(group).parse_intermixed_args(argv[1:])
    started = time.monotonic()
    try:
        want = GROUPS[group][1][args.what]
        if len(args.inputs) != want:
            raise ToolError(f"{group} {args.what} takes {want} "
                            f"input{'' if want == 1 else 's'}, got {len(args.inputs)}")
        code, text, fields = globals()[f"cmd_{group}"](args)
        if args.json:
            fields["timing_ms"] = round((time.monotonic() - started) * 1000, 3)
            print(_json(fields))
        elif text is not None:
            print(text)
        return code
    except (ToolError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # last resort: a crash must not read as exit 1, "no"
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
