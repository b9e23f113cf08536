"""Componentwise comparison engine against the naive positionwise oracle."""

import math
import random
import sys

import pytest

from pdapress import compare, reductions, slp
from pdapress.compare import (
    WILDCARD,
    ZERO_LEQ_ONE,
    PartialOrderSpec,
    SymbolRelation,
    comp_slp,
    order_from_literal,
    partial_word_match,
)
from pdapress.errors import BadRange, LengthMismatch
from pdapress.reductions import SubsetSumInstance, gen_subsetsum_to_compslp

from helpers import HARD_TARGET, HARD_WEIGHTS, random_slp


def lit(word, alphabet):
    return slp.literal(word, alphabet)


def naive(word1, word2, rel):
    for i, (x, y) in enumerate(zip(word1, word2)):
        if not rel.holds(x, y):
            return i
    return None


class TestRelations:
    def test_partial_order_validation(self):
        PartialOrderSpec("01", [("0", "1")])  # fine
        with pytest.raises(ValueError):
            PartialOrderSpec("01", [("0", "1"), ("1", "0")])
        with pytest.raises(ValueError):
            PartialOrderSpec("012", [("0", "1"), ("1", "2")])  # missing (0,2)
        PartialOrderSpec("012", [("0", "1"), ("1", "2"), ("0", "2")])

    def test_relation_rejects_foreign_symbols(self):
        with pytest.raises(ValueError):
            SymbolRelation("ab", [("a", "c")])

    def test_order_literal(self):
        rel = order_from_literal("0<=1")
        assert rel.holds("0", "1") and not rel.holds("1", "0")
        with pytest.raises(ValueError):
            order_from_literal("01")

    def test_wildcard_is_not_an_order(self):
        # ? matches both letters but a and b stay incomparable
        assert WILDCARD.holds("?", "a") and WILDCARD.holds("b", "?")
        assert not WILDCARD.holds("a", "b")
        with pytest.raises(ValueError):
            PartialOrderSpec(WILDCARD.alphabet, WILDCARD.pairs)


class TestCompSlp:
    def test_examples(self):
        assert comp_slp(lit("0101", "01"), lit("0111", "01"), ZERO_LEQ_ONE).holds
        res = comp_slp(lit("0101", "01"), lit("0011", "01"), ZERO_LEQ_ONE)
        assert res.verdict == compare.FAILS and res.witness == 1
        with pytest.raises(LengthMismatch):
            comp_slp(lit("01", "01"), lit("011", "01"), ZERO_LEQ_ONE)

    def test_budget(self, monkeypatch):
        # the walk alone: by residues HARD holds within the budget
        monkeypatch.setattr(compare, "PERIOD_CAP", 0)
        p1, p2 = gen_subsetsum_to_compslp(SubsetSumInstance(HARD_WEIGHTS, HARD_TARGET))
        res = comp_slp(p1, p2, ZERO_LEQ_ONE, budget=10_000)
        assert res.verdict == compare.BUDGET_EXCEEDED
        assert res.visited == 10_000 and 10_000 <= res.checked < slp.length(p1)
        # a violation inside the budget is still reported
        p1, p2 = gen_subsetsum_to_compslp(SubsetSumInstance(HARD_WEIGHTS, 50))
        res = comp_slp(p1, p2, ZERO_LEQ_ONE, budget=10_000)
        assert res.verdict == compare.FAILS
        assert res == comp_slp(p1, p2, ZERO_LEQ_ONE)
        a = slp.power(lit("01", "01"), 1 << 20)
        b = slp.concat(lit("10", "01"), slp.power(lit("01", "01"), (1 << 20) - 1))
        res = comp_slp(b, a, ZERO_LEQ_ONE, budget=1000)
        assert res.verdict == compare.FAILS and res.witness == 0

    def test_negative_budget_is_a_bad_range(self):
        # budget 0 is a budget exceeded at once; below it there is no budget
        p = lit("01", "01")
        assert comp_slp(p, p, ZERO_LEQ_ONE, budget=0).verdict == compare.BUDGET_EXCEEDED
        with pytest.raises(BadRange, match="budget -1 is negative"):
            comp_slp(p, p, ZERO_LEQ_ONE, budget=-1)
        with pytest.raises(BadRange):
            partial_word_match(lit("a?", "ab?"), lit("ab", "ab?"), budget=-5)

    def test_argument_checks_come_before_the_import(self, monkeypatch):
        # budget, then lengths, then alphabets; none of them imports a program
        def refuse(*args):
            raise AssertionError("imported before the arguments were checked")

        ab, ab3, b011, b01 = lit("ab", "ab"), lit("abb", "ab"), lit("011", "01"), lit("01", "01")
        for p in (ab, ab3, b011, b01):
            slp.length(p)  # a program's first reading writes its own store
        monkeypatch.setattr(slp._Store, "add", refuse)
        with pytest.raises(BadRange):
            comp_slp(ab, b011, ZERO_LEQ_ONE, budget=-1)
        with pytest.raises(LengthMismatch):
            comp_slp(ab3, b01, ZERO_LEQ_ONE)
        # a word over {a, b} against 0<=1: a ValueError, on either side
        for p1, p2 in ((ab, b01), (b01, ab)):
            with pytest.raises(ValueError, match="relation's alphabet"):
                comp_slp(p1, p2, ZERO_LEQ_ONE)

    def test_equal_up_to_chain_and_duplicated_rules(self):
        # S -> A A, ..., G -> H H, H -> 0 1 1 0 1, against the same word with
        # a chain rule per level (S -> A A2, A2 -> A, ...) and H's rule written
        # twice: both are one store name, so the walk takes one block
        names = "SABCDEFGH"
        p1 = slp.Slp("01", {**{n: (m, m) for n, m in zip(names, names[1:])},
                            "H": tuple("01101")}, "S")
        prods = {n: (m, m + "2") for n, m in zip(names, names[1:])}
        prods.update({m + "2": (m,) for m in names[1:-1]})
        prods["H"] = prods["H2"] = tuple("01101")
        p2 = slp.Slp("01", prods, "S")
        assert slp.validate(p2) is None and slp.expand(p1, 1280) == slp.expand(p2, 1280)
        for rel in (ZERO_LEQ_ONE, order_from_literal("1<=0")):
            res = comp_slp(p1, p2, rel)
            assert (res.verdict, res.visited, res.checked) == (compare.HOLDS, 1, 1280)

    def test_shared_subword_costs_one_block(self):
        # the words share their first 5,000 symbols, written by one program,
        # and differ after it: that part is one store name at one offset
        rng = random.Random(66)
        for _ in range(5):
            shared = mixed(runny_word(rng, "01", 5000), "01", rng)
            p1 = slp.concat(shared, lit("0010110", "01"))
            p2 = slp.concat(shared, lit("0011010", "01"))
            for x, y in ((p1, p2), (p2, p1)):
                res = comp_slp(x, y, ZERO_LEQ_ONE)
                want = naive(slp.expand(x, 5007), slp.expand(y, 5007), ZERO_LEQ_ONE)
                assert (res.verdict, res.witness, res.visited) == (compare.FAILS, want, 2)

    def test_reflexive_on_self(self):
        rng = random.Random(50)
        for _ in range(40):
            p = random_slp(rng, "01", max_len=4000)
            assert comp_slp(p, p, ZERO_LEQ_ONE).holds

    def test_monotone_in_relation(self):
        eq = SymbolRelation("01", [])
        rng = random.Random(51)
        for _ in range(60):
            p1 = random_slp(rng, "01", min_len=1, max_len=800)
            p2 = slp.slice(p1, 0, slp.length(p1))  # same length, same word
            if rng.random() < 0.5:
                p2 = random_slp(rng, "01", min_len=slp.length(p1), max_len=slp.length(p1))
            if comp_slp(p1, p2, eq).holds:
                assert comp_slp(p1, p2, ZERO_LEQ_ONE).holds

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(52)
        relations = [ZERO_LEQ_ONE, SymbolRelation("01", [])]
        for _ in range(150):
            p1 = random_slp(rng, "01", min_len=1, max_len=5000)
            n = slp.length(p1)
            p2 = random_slp(rng, "01", min_len=1, max_len=5000)
            m = min(n, slp.length(p2))
            p1, p2 = slp.slice(p1, 0, m), slp.slice(p2, 0, m)
            w1, w2 = slp.expand(p1, m), slp.expand(p2, m)
            for rel in relations:
                want = naive(w1, w2, rel)
                got = comp_slp(p1, p2, rel)
                if want is None:
                    assert got.holds
                else:
                    assert (got.verdict, got.witness) == (compare.FAILS, want)


class TestPartialWordMatch:
    def test_examples(self):
        assert partial_word_match(lit("a?", "ab?"), lit("ab", "ab?")).holds
        res = partial_word_match(lit("ab", "ab?"), lit("ba", "ab?"))
        assert res.verdict == compare.FAILS and res.witness == 0

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(53)
        for _ in range(120):
            p1 = random_slp(rng, "ab?", min_len=1, max_len=5000)
            p2 = random_slp(rng, "ab?", min_len=1, max_len=5000)
            m = min(slp.length(p1), slp.length(p2))
            p1, p2 = slp.slice(p1, 0, m), slp.slice(p2, 0, m)
            want = naive(slp.expand(p1, m), slp.expand(p2, m), WILDCARD)
            got = partial_word_match(p1, p2)
            assert got.holds == (want is None)
            if want is not None:
                assert got.witness == want

    def test_rejects_other_alphabets(self):
        with pytest.raises(ValueError):
            partial_word_match(lit("01", "01"), lit("01", "01"))


def chain(word, alphabet):
    """A right-leaning chain, one level per symbol: deeper than the recursion limit."""
    prods = {f"C{i}": (ch, f"C{i + 1}") for i, ch in enumerate(word)}
    prods[f"C{len(word)}"] = ()
    return slp.Slp(alphabet, prods, "C0")


def mixed(word, alphabet, rng):
    """One wide production mixing terminal runs with short nonterminals."""
    prods = {"S": []}
    i = 0
    while i < len(word):
        k = rng.randint(1, 150)
        if rng.random() < 0.5:
            prods["S"].extend(word[i:i + k])
        else:
            name = f"P{len(prods)}"
            prods[name] = tuple(word[i:i + k])
            prods["S"].append(name)
        i += k
    return slp.Slp(alphabet, prods, "S")


def shaped(word, alphabet, rng):
    """The word as one of several grammar shapes random_slp does not produce."""
    kind = rng.choice(["literal", "chain", "mixed", "cnf"])
    if kind == "literal" or not word:
        return slp.literal(word, alphabet)
    if kind == "chain":
        return chain(word, alphabet)
    if kind == "mixed":
        return mixed(word, alphabet, rng)
    # binarized by a left fold: a left-leaning chain as deep as the word is long
    return slp.to_cnf(mixed(word, alphabet, rng))


def runny_word(rng, alphabet, n):
    """A word of random runs, so whole blocks can be clean or dirty."""
    out = []
    while len(out) < n:
        out.extend(rng.choice(alphabet) * rng.choice([1, 2, 7, 70, 300]))
    return "".join(out[:n])


def related_word(rng, word, rel, bad_rate):
    """A word related to the given one position by position, except where a
    violation is planted with probability bad_rate."""
    alphabet = sorted(rel.alphabet)
    out = []
    for x in word:
        ok = [y for y in alphabet if rel.holds(x, y)]
        wrong = [y for y in alphabet if not rel.holds(x, y)]
        if wrong and rng.random() < bad_rate:
            out.append(rng.choice(wrong))
        elif rng.random() < 0.9:
            out.append(x)
        else:
            out.append(rng.choice(ok))
    return "".join(out)


class TestBlockWalk:
    """Differential test of the block walk against the naive oracle."""

    def check(self, p1, p2, rel):
        n = slp.length(p1)
        want = naive(slp.expand(p1, n), slp.expand(p2, n), rel)
        got = comp_slp(p1, p2, rel)
        if want is None:
            assert got.verdict == compare.HOLDS and got.checked == n
            assert got.visited <= n
            positions = n
        else:
            assert (got.verdict, got.witness, got.checked) == (compare.FAILS, want, want)
            assert got.visited <= want + 1
            positions = want + 1
        # a budget of the positions the answer needs always suffices
        assert comp_slp(p1, p2, rel, budget=positions) == got

    @pytest.mark.parametrize("rel", [ZERO_LEQ_ONE, WILDCARD], ids=["order", "wildcard"])
    def test_shapes_agree_with_naive_oracle(self, rel):
        rng = random.Random(54)
        alphabet = "".join(sorted(rel.alphabet))
        for _ in range(120):
            n = rng.choice([0, 1, 2, 63, 64, 65, 129, 1000, 2100])
            w1 = runny_word(rng, alphabet, n)
            w2 = related_word(rng, w1, rel, rng.choice([0, 0.0005, 0.01, 0.3]))
            if n and rng.random() < 0.2:  # a witness at the last position
                w2 = related_word(rng, w1[:-1], rel, 0) + rng.choice(
                    [y for y in alphabet if not rel.holds(w1[-1], y)] or [w1[-1]])
            self.check(shaped(w1, alphabet, rng), shaped(w2, alphabet, rng), rel)

    def test_equal_programs_distinct_objects(self):
        rng = random.Random(55)
        for _ in range(20):
            p = random_slp(rng, "01", min_len=1, max_len=5000)
            copy = slp.Slp(p.alphabet, dict(p.productions), p.axiom)
            res = comp_slp(p, copy, ZERO_LEQ_ONE)
            assert res.holds and res.visited == 1
        word = runny_word(rng, "ab?", 3000)
        p = mixed(word, "ab?", rng)
        copy = slp.Slp(p.alphabet, dict(p.productions), p.axiom)
        assert comp_slp(p, copy, WILDCARD) == compare.CheckResult(compare.HOLDS)

    def test_deep_chains(self):
        rng = random.Random(56)
        w1 = runny_word(rng, "01", 2500)
        w2 = w1[:-1] + ("0" if w1[-1] == "1" else "1")
        self.check(chain(w1, "01"), chain(w2, "01"), ZERO_LEQ_ONE)
        self.check(chain(w1, "01"), slp.literal(w1, "01"), ZERO_LEQ_ONE)
        # a 3,000-level chain of single nonterminals over one symbol
        prods = {f"U{i}": (f"U{i + 1}",) for i in range(3000)}
        prods["U3000"] = ("1",)
        deep = slp.Slp("01", prods, "U0")
        self.check(deep, slp.literal("0", "01"), ZERO_LEQ_ONE)
        self.check(slp.literal("0", "01"), deep, ZERO_LEQ_ONE)


@pytest.fixture()
def clean_sizes():
    """How many pairs the memo holds at the end of each block walk.

    The memo only grows during a call, so that is its peak.
    """
    sizes = []

    def on_return(frame, event, arg):
        if event == "return":
            sizes.append(len(frame.f_locals["clean"]))

    def on_call(frame, event, arg):
        if frame.f_code is compare._walk.__code__:
            frame.f_trace_lines = False
            return on_return
        return None

    old = sys.gettrace()
    sys.settrace(on_call)
    yield sizes
    sys.settrace(old)


class TestCleanMemo:
    """Aligned block pairs walked clean before are skipped when they recur."""

    def subset_sum_words(self):
        rng = random.Random(57)
        for _ in range(30):
            weights = [rng.choice([2, 2, 3, 3, 4, 5]) for _ in range(rng.randint(6, 9))]
            while (sum(weights) + 1) << len(weights) > 20_000:
                weights.pop()
            if rng.random() < 0.5:  # no weight is 1: unsolvable
                target = rng.choice([1, sum(weights) - 1])
            else:
                target = sum(w for w in weights if rng.random() < 0.5)
            yield gen_subsetsum_to_compslp(SubsetSumInstance(weights, target))

    def wildcard_words(self):
        rng = random.Random(58)
        for _ in range(30):
            x = runny_word(rng, "ab?", rng.randint(1, 40))
            y = related_word(rng, x, WILDCARD, 0)
            if y == x:  # not the same program, which rule (c) would skip whole
                y = "?" + x[1:] if x[0] != "?" else "a" + x[1:]
            k = rng.randint(2, 20_000 // len(x))
            p1, copy = slp.power(slp.literal(x, "ab?"), k), slp.literal(y, "ab?")
            late = [i for i, ch in enumerate(x) if ch != "?"]
            if not late or rng.random() < 0.2:
                yield p1, slp.power(copy, k)
                continue
            i = rng.choice(late)
            bad = slp.literal(y[:i] + ("b" if x[i] == "a" else "a") + y[i + 1:], "ab?")
            j = rng.randint(0, min(k - 1, 5))  # the violation lies in one of the last copies
            yield p1, slp.concat(slp.concat(slp.power(copy, k - j - 1), bad), slp.power(copy, j))

    @pytest.mark.parametrize("kind, rel", [("subset_sum_words", ZERO_LEQ_ONE),
                                           ("wildcard_words", WILDCARD)])
    def test_agrees_with_naive_oracle(self, kind, rel, monkeypatch):
        monkeypatch.setattr(compare, "PERIOD_CAP", 0)  # the walk decides every pair
        with_memo = without_memo = 0
        for p1, p2 in getattr(self, kind)():
            TestBlockWalk().check(p1, p2, rel)
            with_memo += comp_slp(p1, p2, rel).visited
            with monkeypatch.context() as m:
                m.setattr(compare, "MEMO", 0)
                without_memo += comp_slp(p1, p2, rel).visited
        # the memo fires on these words: fewer blocks with it than without
        assert with_memo < without_memo

    def test_hard_instance_within_budget(self, monkeypatch):
        monkeypatch.setattr(compare, "PERIOD_CAP", 0)  # the walk alone
        p1, p2 = gen_subsetsum_to_compslp(SubsetSumInstance(HARD_WEIGHTS, HARD_TARGET))
        res = comp_slp(p1, p2, ZERO_LEQ_ONE, budget=50_000)
        assert res.verdict == compare.HOLDS and res.checked == slp.length(p1)
        assert 10_000 < res.visited <= 50_000

    def test_memo_under_default_settings(self):
        # the weight 70,000 makes the second word a power of a base of
        # 70,103 symbols, over PERIOD_CAP, so the walk decides alone; without
        # the memo it takes about 389k blocks
        inst = SubsetSumInstance(HARD_WEIGHTS + (70_000,), HARD_TARGET)
        p1, p2 = gen_subsetsum_to_compslp(inst)
        res = comp_slp(p1, p2, ZERO_LEQ_ONE)
        assert res.holds and res.period == 0 and res.visited <= 50_000

    @pytest.mark.parametrize("cap", [0, 4])
    def test_capped_memo(self, cap, monkeypatch, clean_sizes):
        monkeypatch.setattr(compare, "PERIOD_CAP", 0)  # the walk decides every pair
        cases = [(gen_subsetsum_to_compslp(SubsetSumInstance(HARD_WEIGHTS, 50)), ZERO_LEQ_ONE)]
        cases += [(words, ZERO_LEQ_ONE) for words in self.subset_sum_words()]
        cases += [(words, WILDCARD) for words in self.wildcard_words()]
        want = [comp_slp(p1, p2, rel) for (p1, p2), rel in cases]
        assert max(clean_sizes) <= compare.MEMO
        clean_sizes.clear()
        monkeypatch.setattr(compare, "MEMO", cap)
        for ((p1, p2), rel), res in zip(cases, want):
            got = comp_slp(p1, p2, rel)
            assert (got, got.checked) == (res, res.checked)
        assert len(clean_sizes) == len(cases) and max(clean_sizes) == cap


def residue_witness(p1, p2, rel):
    """The residue check's own answer on two words one of which is a short
    power, whatever the walk would have found first: (d, least witness)."""
    st = slp._Store(rel.alphabet)
    plan = compare._short_power(compare._View(st, st.imp(p1)), compare._View(st, st.imp(p2)))
    bad = {(x, y) for x in rel.alphabet for y in rel.alphabet if not rel.holds(x, y)}
    return plan[0], compare._residue_witness(*plan, bad)


class TestResidues:
    """A side that is a power of a short base is decided by residues."""

    def power_pairs(self, rel, rng):
        """(p1, p2, witness) over rel's alphabet: one side the power base^k,
        the other a power of a pattern of another length related to it,
        except that one copy may hold the one violation, planted at position
        0, at the last position or inside a later copy."""
        alphabet = "".join(sorted(rel.alphabet))
        lengths = [1, 2, 3, 6, 7, 12, 40, 60, 64, 65, 120, 130, 195]
        for i in range(160):
            d, e = rng.choice(lengths), rng.choice(lengths)
            lcm = math.lcm(d, e)
            least = -(-2 * d // lcm)  # the power has at least two copies
            n = lcm * rng.randint(least, max(least, rng.choice([8000, 1 << 20]) // lcm))
            base = runny_word(rng, alphabet, d)
            on_right = i % 2 == 0  # the power is p2

            def related(x, y):
                return rel.holds(y, x) if on_right else rel.holds(x, y)

            # pattern position q meets the base at the residues r = q mod gcd
            g = math.gcd(d, e)
            pattern = [rng.choice([y for y in alphabet
                                   if all(related(x, y) for x in base[q % g::g])])
                       for q in range(e)]
            where = ["first", "last", "later", "none"][i // 2 % 4]
            j = {"first": 0, "last": n - 1, "later": rng.randrange(d, n), "none": None}[where]
            c, r = divmod(j or 0, e)  # the copy and the offset of the violation
            bad = list(pattern)
            wrong = [y for y in alphabet if not related(base[(j or 0) % d], y)]
            if j is not None and wrong:
                bad[r] = rng.choice(wrong)
            else:
                j = None
            copy, bad = (slp.literal("".join(w), alphabet) for w in (pattern, bad))
            other = slp.concat(slp.concat(slp.power(copy, c), bad),
                               slp.power(copy, n // e - c - 1))
            power = slp.power(slp.literal(base, alphabet), n // d)
            yield ((other, power) if on_right else (power, other)), j

    def subset_sum_pairs(self, rel, rng):
        """(p1, p2, witness): Lohrey's words for random subset-sum instances,
        mostly unsolvable, the power on either side, under images that make
        a shared b the one kind of violation.  The walk finds them costly."""
        left, right = ({"a": "0", "b": "1"}, {"a": "1", "b": "0"}) if rel is ZERO_LEQ_ONE \
            else ({"a": "?", "b": "a"}, {"a": "?", "b": "b"})
        for i in range(32):
            weights = [rng.randint(2, 9) for _ in range(rng.randint(7, 10))]
            inst = SubsetSumInstance(weights, rng.randint(0, sum(weights)))
            if i % 4 and inst.solvable():
                inst = SubsetSumInstance(weights, 1)
            w1, w2 = reductions.gen_lohrey(inst)
            if i % 2:  # the power on the left
                w1, w2 = w2, w1
            p1 = slp.substitute(w1, left, rel.alphabet)
            p2 = slp.substitute(w2, right, rel.alphabet)
            n = slp.length(p1)
            yield (p1, p2), naive(slp.expand(p1, n), slp.expand(p2, n), rel)

    @pytest.mark.parametrize("rel", [ZERO_LEQ_ONE, WILDCARD], ids=["order", "wildcard"])
    def test_agrees_with_naive_oracle(self, rel):
        rng = random.Random(59)
        by_residues = 0
        for (p1, p2), want in [*self.power_pairs(rel, rng), *self.subset_sum_pairs(rel, rng)]:
            n = slp.length(p1)
            if n <= 20_000:
                assert naive(slp.expand(p1, n), slp.expand(p2, n), rel) == want
            got = comp_slp(p1, p2, rel)
            if want is None:
                assert (got.verdict, got.checked) == (compare.HOLDS, n)
                positions = n
            else:
                assert (got.verdict, got.witness, got.checked) == (compare.FAILS, want, want)
                positions = want + 1
            assert got.visited <= positions
            assert comp_slp(p1, p2, rel, budget=positions) == got
            by_residues += got.period > 0
            # the residue check alone finds the same least witness, at 0 too
            d, witness = residue_witness(p1, p2, rel)
            assert witness == want and d <= 195
        assert by_residues >= 20

    @pytest.mark.parametrize("rel", [ZERO_LEQ_ONE, WILDCARD], ids=["order", "wildcard"])
    def test_words_longer_than_two_to_the_64(self, rel):
        rng = random.Random(60)
        alphabet = "".join(sorted(rel.alphabet))
        k = (1 << 64) + 3
        for on_right in (True, False):
            def related(x, y):
                return rel.holds(y, x) if on_right else rel.holds(x, y)

            top = next(y for y in alphabet if all(related(x, y) for x in alphabet))
            for _ in range(10):
                spots = []
                while not spots:  # positions where the other side can violate
                    base = runny_word(rng, alphabet, rng.randint(2, 90))
                    spots = [i for i, x in enumerate(base)
                             if not all(related(x, y) for y in alphabet)]
                d, i = len(base), rng.choice(spots)
                wrong = next(y for y in alphabet if not related(base[i], y))
                lit = slp.literal(top * d, alphabet)
                bad = slp.literal(top * i + wrong + top * (d - i - 1), alphabet)
                j = rng.randrange(k)  # the copy holding the one violation
                other = slp.concat(slp.concat(slp.power(lit, j), bad),
                                   slp.power(lit, k - j - 1))
                power = slp.power(slp.literal(base, alphabet), k)
                res = comp_slp(*((other, power) if on_right else (power, other)), rel)
                assert (res.verdict, res.witness, res.checked) == (
                    compare.FAILS, j * d + i, j * d + i)
                assert res.period in (0, d) and res.visited <= 1000
                clean = slp.power(lit, k)
                res = comp_slp(*((clean, power) if on_right else (power, clean)), rel)
                assert res.holds and res.checked == k * d and res.visited <= 1000

    def test_hard_instance_holds_by_residues(self):
        p1, p2 = gen_subsetsum_to_compslp(SubsetSumInstance(HARD_WEIGHTS, HARD_TARGET))
        res = comp_slp(p1, p2, ZERO_LEQ_ONE)
        assert res.verdict == compare.HOLDS and res.checked == slp.length(p1)
        # the walk alone examines 15,664 blocks
        assert res.period == sum(HARD_WEIGHTS) + 1 and res.visited < 15_664 // 4
        # a budget of the blocks it took suffices; budget 0 is exceeded at once
        assert comp_slp(p1, p2, ZERO_LEQ_ONE, budget=res.visited) == res
        assert comp_slp(p1, p2, ZERO_LEQ_ONE, budget=0).verdict == compare.BUDGET_EXCEEDED

    def test_folds_read_only_the_rules_reachable_from_the_root(self):
        rng = random.Random(62)
        for _ in range(40):
            p1, p2 = (random_slp(rng, "01", min_len=1, max_len=300) for _ in range(2))
            st = slp._Store("01")
            r1, r2 = st.imp(p1), st.imp(p2)
            st.add((r2, r1))  # a later name that reaches both
            for root in (r1, r2):
                rules = compare._View(st, root).rules
                names = [name for name, _ in rules]
                assert len(names) == len(st.canonical(root))
                assert names[-1] == root
                for i, (name, rhs) in enumerate(rules):  # children first
                    assert all(s in st.alphabet or s in names[:i] for s in rhs)

    def test_walk_first(self, monkeypatch):
        def boom(*args):
            raise AssertionError("residue check reached")

        monkeypatch.setattr(compare, "_residue_witness", boom)
        rng = random.Random(61)
        base = "1" + runny_word(rng, "01", 49)
        power = slp.power(slp.literal(base, "01"), 1 << 40)
        n = slp.length(power)

        def ones(m):
            return slp.power(slp.literal("1", "01"), m)

        for j in (0, 7, 90):
            j = next(i for i in range(j, j + 50) if base[i % 50] == "1")
            # all ones but a 0 at j, under a 1 of the power
            other = slp.concat(slp.concat(ones(j), slp.literal("0", "01")), ones(n - j - 1))
            # inside the allowance: as many blocks as the programs have symbols
            assert j < sum(len(rhs) for p in (power, other) for rhs in p.productions.values())
            res = comp_slp(power, other, ZERO_LEQ_ONE)
            assert (res.verdict, res.witness, res.period) == (compare.FAILS, j, 0)
        # without an early violation the walk does ask the check
        p1, p2 = gen_subsetsum_to_compslp(SubsetSumInstance(HARD_WEIGHTS, HARD_TARGET))
        with pytest.raises(AssertionError, match="residue check reached"):
            comp_slp(p1, p2, ZERO_LEQ_ONE)
