"""Integer expressions: parsing, bounded semantics, grammar lowering."""

import hashlib
import random

import pytest

from pdapress import intexpr
from pdapress.errors import BoundTooLarge, ExprSyntaxError
from pdapress.intexpr import (
    Const,
    Double,
    Star,
    Sum,
    Union,
    UnaryCfg,
    cfg_membership_unary,
    eval_up_to,
    expr_to_cfg,
    members_up_to,
    parse_expr,
    universal_up_to,
)


def brute(expr, bound):
    """Set semantics by direct enumeration (test oracle)."""
    if isinstance(expr, Const):
        return {expr.value} if expr.value <= bound else set()
    if isinstance(expr, Union):
        return brute(expr.left, bound) | brute(expr.right, bound)
    if isinstance(expr, Sum):
        left, right = brute(expr.left, bound), brute(expr.right, bound)
        return {x + y for x in left for y in right if x + y <= bound}
    if isinstance(expr, Double):
        child = brute(expr.child, bound)
        return {x + y for x in child for y in child if x + y <= bound}
    members = sorted(brute(expr.child, bound) - {0})
    out = {0}
    frontier = [0]
    while frontier:
        base = frontier.pop()
        for m in members:
            v = base + m
            if v <= bound and v not in out:
                out.add(v)
                frontier.append(v)
    return out


def random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Const(rng.randint(0, 8))
    op = rng.choice(["sum", "union", "double", "star"])
    if op == "sum":
        return Sum(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if op == "union":
        return Union(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if op == "double":
        return Double(random_expr(rng, depth - 1))
    return Star(random_expr(rng, depth - 1))


class TestParse:
    def test_examples(self):
        assert parse_expr("1*") == Star(Const(1))
        assert parse_expr("(0|1)+(0|2)") == Sum(Union(Const(0), Const(1)),
                                                Union(Const(0), Const(2)))
        assert parse_expr("3 x2") == Double(Const(3))

    def test_precedence(self):
        # postfix binds tighter than +, which binds tighter than |
        assert parse_expr("1+2*|3") == Union(Sum(Const(1), Star(Const(2))), Const(3))

    def test_nested_postfix(self):
        assert parse_expr("2* x2*") == Star(Double(Star(Const(2))))

    def test_errors_carry_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("1+")
        assert err.value.position == 2
        with pytest.raises(ExprSyntaxError):
            parse_expr("(1|2")
        with pytest.raises(ExprSyntaxError):
            parse_expr("1 2")

    def test_str_round_trips(self):
        rng = random.Random(70)
        for _ in range(50):
            e = random_expr(rng, 4)
            assert parse_expr(str(e)) == e


class TestEval:
    def test_examples(self):
        assert members_up_to(parse_expr("2|3"), 5) == [2, 3]
        assert members_up_to(parse_expr("2*"), 7) == [0, 2, 4, 6]
        assert members_up_to(parse_expr("(0|1)+(0|2)"), 4) == [0, 1, 2, 3]

    def test_matches_brute_force(self):
        rng = random.Random(71)
        for _ in range(150):
            e = random_expr(rng, 4)
            assert set(members_up_to(e, 48)) == brute(e, 48)

    def test_star_closure_laws(self):
        rng = random.Random(72)
        for _ in range(60):
            e = Star(random_expr(rng, 3))
            members = members_up_to(e, 64)
            assert 0 in members
            member_set = set(members)
            for x in members[:12]:
                for y in members[:12]:
                    if x + y <= 64:
                        assert x + y in member_set

    def test_double_is_self_sum(self):
        rng = random.Random(73)
        for _ in range(60):
            child = random_expr(rng, 3)
            assert eval_up_to(Double(child), 64) == eval_up_to(Sum(child, child), 64)

    def test_monotone_in_bound(self):
        rng = random.Random(74)
        for _ in range(40):
            e = random_expr(rng, 4)
            small = set(members_up_to(e, 20))
            large = set(members_up_to(e, 64))
            assert small == {v for v in large if v <= 20}

    def test_bound_too_large(self):
        with pytest.raises(BoundTooLarge):
            eval_up_to(Const(1), intexpr.MAX_EVAL_BOUND + 1)


class TestUniversal:
    def test_examples(self):
        assert universal_up_to(parse_expr("1*"), 1000) is None
        assert universal_up_to(parse_expr("2*"), 10) == 1

    def test_witness_is_least(self):
        assert universal_up_to(parse_expr("0|1|2|4*"), 20) == 3


class TestCfgLowering:
    def test_examples(self):
        g = expr_to_cfg(parse_expr("1*"))
        assert cfg_membership_unary(g, 17)
        assert cfg_membership_unary(g, 0)
        assert not cfg_membership_unary(expr_to_cfg(parse_expr("2*")), 3)
        g3 = expr_to_cfg(parse_expr("3"))
        assert [n for n in range(6) if cfg_membership_unary(g3, n)] == [3]
        g23 = expr_to_cfg(parse_expr("(2|3)+1"))
        assert [n for n in range(7) if cfg_membership_unary(g23, n)] == [3, 4]

    def test_big_constant_is_compact(self):
        g = expr_to_cfg(Const(1 << 30))
        assert len(g.productions) < 80
        assert cfg_membership_unary(expr_to_cfg(Const(999)), 999)
        assert not cfg_membership_unary(expr_to_cfg(Const(999)), 998)

    def test_agreement_with_eval(self):
        rng = random.Random(75)
        for _ in range(60):
            e = random_expr(rng, 4)
            g = expr_to_cfg(e)
            member_set = set(members_up_to(e, 40))
            for n in range(41):
                assert cfg_membership_unary(g, n) == (n in member_set), (e, n)

    def test_membership_bound(self):
        with pytest.raises(BoundTooLarge):
            cfg_membership_unary(expr_to_cfg(Const(1)), intexpr.MAX_MEMBERSHIP + 1)


class TestCfgFormat:
    def test_round_trip(self):
        g = expr_to_cfg(parse_expr("(1|2)*+3"))
        text = intexpr.format_cfg(g)
        back = intexpr.parse_cfg(text)
        assert set(back.productions) == set(g.productions) and back.axiom == g.axiom
        for n in range(12):
            assert cfg_membership_unary(back, n) == cfg_membership_unary(g, n)
        assert intexpr.format_cfg(back) == text

    def test_eps_is_reserved(self):
        # written out, `S -> eps` would read back as the empty word, not a^2
        with pytest.raises(ValueError, match="eps is reserved"):
            UnaryCfg((("S", ("eps",)), ("eps", ("a", "a"))), "S")
        with pytest.raises(ValueError, match="eps is reserved"):
            intexpr.parse_cfg("terminal: a\nS -> eps\neps -> a a\n")


# ---------------------------------------------------------------------------
# Golden digest


INTEXPR_GOLDEN = "05b8e5aca897629ae76e13925cbe28af084b2ca290ffed1b647a9e0232bd546f"

MALFORMED = ["1+", "(1|2", "1 2", "(1 2)", "", "()", "1|", "x2", "(((3", "3)", "2 x 2"]
TOKENS = ["1", "2", "10", "+", "|", "*", "x2", "x", "(", ")", " "]


def random_tokens(rng, depth):
    """Tokens of a random valid text with spaces and unparenthesized
    operators, so that precedence and whitespace are exercised."""
    tokens = []
    for i in range(rng.randint(1, 5)):
        if i:
            tokens.append(rng.choice(["+", " + ", "|", " | "]))
        if depth and rng.random() < 0.4:
            tokens += ["("] + random_tokens(rng, depth - 1) + [")"]
        else:
            tokens.append(rng.choice(["0", "1", "2", "10"]))
        tokens += rng.choices(["*", "x2", " x2", " *"], k=rng.randint(0, 2))
    return tokens


def random_text(rng):
    """A random valid text, or one with a token deleted or inserted."""
    tokens = random_tokens(rng, 3)
    roll = rng.random()
    if roll < 0.2:
        del tokens[rng.randrange(len(tokens))]
    elif roll < 0.4:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(TOKENS))
    return "".join(tokens)


def intexpr_digest() -> str:
    """SHA-256 over the printed form, the .cfg lowering and the bounded
    semantics of seeded random expressions, grammar membership on a subset,
    and the parse (tree or error) of malformed and random token strings."""
    h = hashlib.sha256()

    def put(value):
        h.update(repr(value).encode())
        h.update(b"\0")

    rng = random.Random(76)
    for depth in range(8):
        for i in range(160):
            e = random_expr(rng, depth)
            text = str(e)
            put(text)
            g = expr_to_cfg(parse_expr(text))
            put(intexpr.format_cfg(g))
            put(eval_up_to(e, 80))
            if i % 8 == 0:
                put([n for n in range(41) if cfg_membership_unary(g, n)])
    texts = MALFORMED + [random_text(rng) for _ in range(1500)]
    for text in texts:
        try:
            put(str(parse_expr(text)))
        except ExprSyntaxError as err:
            put((type(err).__name__, str(err), err.position))
    return h.hexdigest()


def test_outputs_match_golden_digest():
    assert intexpr_digest() == INTEXPR_GOLDEN
