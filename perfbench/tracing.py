"""Spans and counters around the calls into each pdapress module.

The tracer replaces public functions of the package's modules by timing
wrappers, in every pdapress module namespace that refers to them, so a
call from the command line front end or from one module into another
opens a span.  Only public names are wrapped; a name a later version no
longer has is skipped.  Spans (name, start, end, parent, operation id) and
counters stay in memory and are written out when the run ends.

A layer's self time is the time of its spans minus the part covered by
their child spans.  Each operation's root span belongs to the `cli` layer,
so the self times of all layers add up to the traced operation time, and
the cli self time is what no other layer accounts for (argument parsing,
file I/O, output formatting).
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter

WRAPPED = {
    "udpda": ("parse_udpda", "normalize", "to_raw", "format_udpda", "run_prefix",
              "membership_sim"),
    "translate": ("slp_to_udpda", "indicator_to_udpda", "udpda_to_transcript",
                  "transcript_to_characteristic", "udpda_to_indicator", "parse_pair",
                  "format_pair"),
    "slp": ("parse_slp", "format_slp"),
    "compare": ("comp_slp", "partial_word_match"),
    "decide": ("compressed_membership", "emptiness", "universality", "equivalence",
               "inclusion"),
    "reductions": ("gen_lohrey", "gen_subsetsum_to_compslp", "gen_compslp_to_inclusion",
                   "gen_gss_to_intexpr"),
    "intexpr": ("parse_expr", "members_up_to", "universal_up_to", "expr_to_cfg", "format_cfg"),
}

# per-layer metrics: (name, unit); BENCHMARK.json lists the same
METRICS = [
    ("udpda.parse_s", "s"), ("udpda.normalize_s", "s"), ("udpda.format_s", "s"),
    ("udpda.sim_s", "s"), ("udpda.sim_bits_per_s", "bits/s"), ("udpda.states", "count"),
    ("udpda.pop_entries", "count"), ("udpda.self_s", "s"),
    ("translate.build_s", "s"), ("translate.transcript_s", "s"),
    ("translate.characteristic_s", "s"), ("translate.pair_io_s", "s"),
    ("translate.us_per_state", "us"), ("translate.scaling_exponent", "slope"),
    ("translate.transcript_prods", "count"), ("translate.indicator_size", "count"),
    ("translate.size_ratio", "ratio"), ("translate.self_s", "s"),
    ("slp.parse_s", "s"), ("slp.format_s", "s"), ("slp.window_len", "count"),
    ("slp.self_s", "s"),
    ("compare.comp_s", "s"), ("compare.positions", "count"),
    ("compare.positions_per_s", "pos/s"), ("compare.budget_exceeded", "count"),
    ("compare.self_s", "s"),
    ("decide.equal_s", "s"), ("decide.inclusion_s", "s"), ("decide.member_s", "s"),
    ("decide.glue_s", "s"),
    ("reductions.gen_s", "s"), ("reductions.self_s", "s"),
    ("intexpr.parse_s", "s"), ("intexpr.universal_s", "s"), ("intexpr.self_s", "s"),
    ("cli.unaccounted_s", "s"), ("cli.op_s", "s"),
    ("error_rate", "ratio"), ("trace_overhead", "ratio"),
]

# inclusive timings: metric -> wrapped functions whose outermost spans count
INCLUSIVE = {
    "udpda.parse_s": ("udpda.parse_udpda",),
    "udpda.normalize_s": ("udpda.normalize",),
    "udpda.format_s": ("udpda.to_raw", "udpda.format_udpda"),
    "udpda.sim_s": ("udpda.run_prefix", "udpda.membership_sim"),
    "translate.build_s": ("translate.slp_to_udpda", "translate.indicator_to_udpda"),
    "translate.transcript_s": ("translate.udpda_to_transcript",),
    "translate.characteristic_s": ("translate.transcript_to_characteristic",),
    "translate.pair_io_s": ("translate.parse_pair", "translate.format_pair"),
    "slp.parse_s": ("slp.parse_slp",),
    "slp.format_s": ("slp.format_slp",),
    "compare.comp_s": ("compare.comp_slp", "compare.partial_word_match"),
    "decide.equal_s": ("decide.equivalence",),
    "decide.inclusion_s": ("decide.inclusion",),
    "decide.member_s": ("decide.compressed_membership",),
    "reductions.gen_s": tuple(f"reductions.{n}" for n in WRAPPED["reductions"]),
    "intexpr.parse_s": ("intexpr.parse_expr",),
    "intexpr.universal_s": ("intexpr.universal_up_to",),
}


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: list[tuple[int, str, int]] = []  # (op id, counter, amount)
        self.op = -1
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "pdapress" or name.startswith("pdapress.")]
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"pdapress.{layer}")
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                for key, amount in count(args, kwargs, result):
                    self.counts.append((self.op, key, amount))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def records(self):
        return {"spans": [dict(zip(("name", "start", "end", "parent", "op"), s))
                          for s in self.spans],
                "counters": [dict(zip(("op", "name", "amount"), c)) for c in self.counts]}


def _machine(result):
    return [("udpda.states", len(result.states)), ("udpda.pop_entries", len(result.pop))]


def _prods(pair) -> int:
    return len(pair.prefix.productions) + len(pair.loop.productions)


def _transcript(args, kwargs, result):
    a = args[0]
    return [("translate.dp_states", len(a.states)),
            ("translate.dp_cells", len(a.states) * len(a.stack_alphabet)),
            ("translate.transcript_prods", _prods(result))]


def _comparison(budget_at: int):
    """Counters of a comparison whose budget is positional argument budget_at."""

    def count(args, kwargs, result):
        from pdapress import compare, slp  # importable whenever a wrapper runs

        n = slp.length(args[0])
        if result.verdict == compare.FAILS:
            positions = result.witness + 1
        elif result.verdict == compare.HOLDS:
            positions = n
        else:
            positions = kwargs.get("budget", args[budget_at] if len(args) > budget_at
                                   else compare.DEFAULT_BUDGET)
        return [("slp.window_len", n), ("compare.positions", positions),
                ("compare.budget_exceeded", int(result.verdict == compare.BUDGET_EXCEEDED))]

    return count


COUNTERS = {
    "udpda.normalize": lambda a, k, r: _machine(r),
    "translate.slp_to_udpda": lambda a, k, r: _machine(r),
    "translate.indicator_to_udpda": lambda a, k, r: _machine(r),
    "translate.udpda_to_transcript": _transcript,
    "translate.transcript_to_characteristic":
        lambda a, k, r: [("translate.indicator_size", _prods(r))],
    "udpda.run_prefix": lambda a, k, r: [("udpda.sim_bits", a[1])],
    "udpda.membership_sim": lambda a, k, r: [("udpda.sim_bits", a[1] + 1)],
    "compare.comp_slp": _comparison(3),
    "compare.partial_word_match": _comparison(2),
}


# ---------------------------------------------------------------------------
# Derived metrics


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def derive(spans: list[list], counts, ops: set[int]) -> dict[str, float]:
    """Per-layer metrics over the spans and counters of the given operations."""
    dur = {i: s[2] - s[1] for i, s in enumerate(spans) if s[4] in ops}
    child = defaultdict(float)
    for i in dur:
        if spans[i][3] >= 0:
            child[spans[i][3]] += dur[i]
    self_time = defaultdict(float)
    for i, d in dur.items():
        self_time[_layer(spans[i][0])] += d - child[i]

    def outermost(names) -> float:
        total = 0.0
        for i, d in dur.items():
            if spans[i][0] not in names:
                continue
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += d
        return total

    c = defaultdict(int)
    for op, key, amount in counts:
        if op in ops:
            c[key] += amount

    m = {name: outermost(names) for name, names in INCLUSIVE.items()}
    for layer in ("udpda", "translate", "slp", "compare", "reductions", "intexpr"):
        m[f"{layer}.self_s"] = self_time[layer]
    m["decide.glue_s"] = self_time["decide"]
    m["cli.unaccounted_s"] = self_time["cli"]
    m["cli.op_s"] = sum(d for i, d in dur.items() if spans[i][3] < 0)
    for key in ("udpda.states", "udpda.pop_entries", "translate.transcript_prods",
                "translate.indicator_size", "slp.window_len", "compare.positions",
                "compare.budget_exceeded"):
        m[key] = c[key]
    m["udpda.sim_bits_per_s"] = _ratio(c["udpda.sim_bits"], m["udpda.sim_s"])
    dp = m["translate.transcript_s"] + m["translate.characteristic_s"]
    m["translate.us_per_state"] = _ratio(dp * 1e6, c["translate.dp_states"])
    m["translate.size_ratio"] = _ratio(c["translate.indicator_size"], c["translate.dp_cells"])
    m["compare.positions_per_s"] = _ratio(c["compare.positions"], m["compare.comp_s"])
    m["_dp_states"] = c["translate.dp_states"]
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def scaling_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(states); 0 without two sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
