"""Straight-line program algebra against the expansion oracle."""

import random

import pytest

from pdapress import cli, slp
from pdapress.errors import (
    AlphabetMismatch,
    BadRange,
    BadShift,
    CapExceeded,
    EmptyBase,
    EmptyWord,
    FormatError,
    IndexOutOfRange,
    NonIntegralResult,
    SymbolMismatch,
    WordTooLong,
)
from pdapress.slp import Slp

from helpers import random_slp

P0 = Slp("01", {"S": ("X", "Y"), "X": ("Z", "O"), "Y": ("O", "Z"),
                "Z": ("0",), "O": ("1",)}, "S")  # generates 0110


def doubling_chain(depth, symbol="1"):
    prods = {f"D{i}": (f"D{i+1}", f"D{i+1}") for i in range(depth)}
    prods[f"D{depth}"] = (symbol,)
    return Slp("01", prods, "D0")


class TestValidate:
    def test_minimal_ok(self):
        p = Slp("01", {"S": ("A", "B"), "A": ("0",), "B": ("1",)}, "S")
        assert slp.validate(p) is None

    def test_self_loop(self):
        assert slp.validate(Slp("01", {"S": ("S",)}, "S")) == "cycle at S"

    def test_missing_production(self):
        p = Slp("01", {"S": ("A", "X"), "A": ("0",)}, "S")
        assert slp.validate(p) == "missing production X"

    def test_longer_cycle(self):
        p = Slp("01", {"S": ("A",), "A": ("B",), "B": ("A",)}, "S")
        assert "cycle at" in slp.validate(p)

    def test_alphabet_collision(self):
        p = Slp("01", {"S": ("0",), "0": ("S",)}, "S")
        assert "collides" in slp.validate(p)

    def test_missing_axiom(self):
        assert "missing production" in slp.validate(Slp("01", {"A": ("0",)}, "S"))

    def test_eps_is_reserved(self):
        # written out, `S -> eps` would read back as the empty word, not 01,
        # and `S -> eps 1` as 011
        p = Slp("01", {"S": ("eps",), "eps": ("0", "1")}, "S")
        assert slp.validate(p) == "nonterminal name eps is reserved for the empty right-hand side"
        for rhs in ("eps", "eps 1"):
            with pytest.raises(FormatError, match="eps is reserved"):
                slp.parse_slp(f"alphabet: 01\nS -> {rhs}\neps -> 0 1\n")


class TestStore:
    def test_reimport_adds_no_production(self):
        # identical right-hand sides are merged, so importing a program again,
        # as the same object or as an equal copy, maps it to the same names
        st = slp._Store("01")
        name = st.imp(P0)
        prods = dict(st.productions)
        assert st.imp(P0) == name and st.productions == prods
        assert st.imp(slp.parse_slp(slp.format_slp(P0))) == name and st.productions == prods

    def test_self_concatenation_stays_small(self):
        p = P0
        for _ in range(40):
            p = slp.concat(p, p)
        assert len(p.productions) <= len(P0.productions) + 40
        assert slp.length(p) == 4 << 40
        assert slp.query(p, (4 << 40) - 3) == "1"


class TestExpandLengthQuery:
    def test_expand_basic(self):
        p = Slp("01", {"S": ("A", "B"), "A": ("0",), "B": ("1",)}, "S")
        assert slp.expand(p, 10) == "01"

    def test_expand_shared(self):
        p = Slp("1", {"S": ("A", "A"), "A": ("B", "B"), "B": ("1",)}, "S")
        assert slp.expand(p, 10) == "1111"

    def test_expand_cap(self):
        p = doubling_chain(40)
        with pytest.raises(CapExceeded) as err:
            slp.expand(p, 10**6)
        assert err.value.length == 2**40

    def test_length(self):
        assert slp.length(Slp("01", {"S": ("A", "B"), "A": ("0",), "B": ("1",)}, "S")) == 2
        assert slp.length(doubling_chain(60)) == 2**60
        assert slp.length(Slp("01", {"S": ()}, "S")) == 0

    def test_query_examples(self):
        assert slp.query(P0, 2) == "1"
        assert slp.query(P0, 0) == "0"
        with pytest.raises(IndexOutOfRange):
            slp.query(P0, 4)

    def test_query_deep(self):
        p = doubling_chain(70)
        assert slp.query(p, 2**70 - 1) == "1"

    def test_first_last(self):
        assert slp.first_symbol(P0) == "0"
        assert slp.last_symbol(P0) == "0"

    def test_count(self):
        assert slp.count(P0, "1") == 2
        assert slp.count(doubling_chain(20), "1") == 2**20


class TestCnfAndSize:
    def test_cnf_example(self):
        p = Slp("01", {"S": ("0", "1", "0")}, "S")
        cnf = slp.to_cnf(p)
        assert len(cnf.productions) == 4
        assert slp.size(p) == 4
        assert slp.expand(cnf, 10) == "010"
        for rhs in cnf.productions.values():
            assert (len(rhs) == 1 and rhs[0] in "01") or len(rhs) == 2

    def test_cnf_idempotent_on_word(self):
        p = Slp("01", {"S": ("A", "B"), "A": ("0",), "B": ("A", "A")}, "S")
        once = slp.to_cnf(p)
        again = slp.to_cnf(once)
        assert slp.expand(once, 100) == slp.expand(p, 100) == slp.expand(again, 100)
        assert len(again.productions) == len(once.productions)

    def test_empty_word_size(self):
        p = Slp("01", {"S": ()}, "S")
        assert slp.size(p) == 0
        with pytest.raises(EmptyWord):
            slp.to_cnf(p)

    def test_cnf_drops_eps_and_chains(self):
        p = Slp("01", {"S": ("E", "A", "E"), "E": (), "A": ("B",), "B": ("1",)}, "S")
        cnf = slp.to_cnf(p)
        assert slp.expand(cnf, 10) == "1"

    def test_size_subadditive_under_concat(self):
        rng = random.Random(5)
        for _ in range(50):
            p1 = random_slp(rng, "01", min_len=1, max_len=500)
            p2 = random_slp(rng, "01", min_len=1, max_len=500)
            assert slp.size(slp.concat(p1, p2)) <= slp.size(p1) + slp.size(p2) + 4


class TestWordAlgebra:
    def test_concat(self):
        assert slp.expand(slp.concat(slp.literal("01"), slp.literal("10", "01")), 10) == "0110"
        empty = Slp({"x"}, {"S": ()}, "S")
        assert slp.expand(slp.concat(slp.literal("x"), empty), 10) == "x"
        assert slp.expand(slp.concat(P0, P0), 10) == "01100110"

    def test_concat_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            slp.concat(slp.literal("01"), slp.literal("ab"))

    def test_slice(self):
        assert slp.expand(slp.slice(P0, 1, 3), 10) == "11"
        assert slp.expand(slp.slice(P0, 2, 2), 10) == ""
        assert slp.expand(slp.slice(P0, 0, 4), 10) == "0110"
        with pytest.raises(BadRange):
            slp.slice(P0, 3, 2)
        with pytest.raises(BadRange):
            slp.slice(P0, 0, 5)

    def test_power(self):
        x = slp.literal("01")
        assert slp.expand(slp.power(x, 5, 2), 10) == "01010"
        assert slp.expand(slp.power(x, 0, 1), 10) == ""
        assert slp.expand(slp.power(P0, 3, 1), 20) == "011001100110"
        assert slp.length(slp.power(x, 2**50)) == 2**51
        with pytest.raises(NonIntegralResult):
            slp.power(x, 1, 3)
        with pytest.raises(EmptyBase):
            slp.power(Slp("01", {"S": ()}, "S"), 2, 1)

    def test_cyclic_shift(self):
        assert slp.expand(slp.cyclic_shift(P0, 1), 10) == "1100"
        assert slp.expand(slp.cyclic_shift(P0, 0), 10) == "0110"
        back = slp.cyclic_shift(slp.cyclic_shift(P0, 3), 1)
        assert slp.expand(back, 10) == "0110"
        with pytest.raises(BadShift):
            slp.cyclic_shift(P0, 4)

    def test_substitute(self):
        assert slp.expand(slp.substitute(slp.literal("01"), {"0": "a", "1": "af"}), 10) == "aaf"
        assert slp.expand(slp.substitute(P0, {"0": "0", "1": "1"}), 10) == "0110"
        assert slp.expand(slp.substitute(P0, {"0": "0", "1": ""}), 10) == "00"

    def test_trim(self):
        assert slp.expand(slp.trim(slp.literal("0110", "01"), "back", "0"), 10) == "011"
        with pytest.raises(SymbolMismatch):
            slp.trim(slp.literal("0110", "01"), "front", "1")
        assert slp.expand(slp.trim(slp.literal("fafa", "af"), "front", "f"), 10) == "afa"
        with pytest.raises(EmptyWord):
            slp.trim(Slp("01", {"S": ()}, "S"), "front", "0")


class TestEqual:
    def test_same_word_different_shape(self):
        assert slp.equal(P0, slp.literal("0110", "01"))

    def test_different_words(self):
        assert not slp.equal(slp.literal("0110", "01"), slp.literal("0101", "01"))

    def test_length_short_circuit(self):
        x = slp.literal("01")
        assert not slp.equal(slp.power(x, 8), slp.concat(slp.concat(x, x), x))

    def test_fingerprint_path(self):
        # lengths far beyond the exact threshold
        a = slp.power(slp.literal("01"), 1 << 40)
        b = slp.power(slp.power(slp.literal("01"), 1 << 20), 1 << 20)
        assert slp.equal(a, b)
        c = slp.concat(slp.slice(a, 1, slp.length(a)), slp.literal("1", "01"))
        assert slp.length(c) == slp.length(a)
        assert not slp.equal(a, c)

    def test_fingerprint_is_the_word_as_a_number(self):
        rng = random.Random(16)
        for alphabet in ("01", "abc"):
            digits = {sym: i for i, sym in enumerate(sorted(alphabet))}
            for _ in range(60):
                # wide and empty right-hand sides alike
                p = random_slp(rng, alphabet, max_prods=10, max_arity=12, max_len=5000)
                mod = (1 << rng.choice(slp._MERSENNE[:4])) - 1
                base = rng.randrange(2, mod)
                want = 0
                for sym in slp.expand(p, 5000):
                    want = (want * base + digits[sym]) % mod
                assert slp._fingerprint(p, digits, base, mod) == want

    def test_seed_parameter(self):
        a = slp.power(slp.literal("01"), 1 << 20)
        b = slp.power(slp.literal("01"), 1 << 20)
        for seed in range(5):
            assert slp.equal(a, b, seed=seed)

    def test_mersenne_table(self):
        def lucas_lehmer(e):  # whether 2**e - 1 is prime, for an odd prime e
            m = (1 << e) - 1
            x = 4
            for _ in range(e - 2):
                x = (x * x - 2) % m
            return x == 0

        table = slp._MERSENNE
        assert list(table) == sorted(set(table))
        assert all(e > 2 and all(e % d for d in range(2, int(e ** 0.5) + 1)) for e in table)
        assert not lucas_lehmer(11) and not lucas_lehmer(23)
        assert all(lucas_lehmer(e) for e in table if e <= 4423)

    def test_long_words_one_symbol_apart(self):
        def chunked(word, alphabet, k):  # the same word as blocks of k symbols
            prods = {f"B{i}": tuple(word[j:j + k])
                     for i, j in enumerate(range(0, len(word), k))}
            return Slp(alphabet, {"S": tuple(prods), **prods}, "S")

        for seed in range(4):
            rng = random.Random(seed)
            for alphabet in ("01", "abc"):
                word = "".join(rng.choices(alphabet, k=rng.randint(5000, 100_000)))
                p = slp.literal(word, alphabet)
                assert slp.equal(p, chunked(word, alphabet, rng.randint(2, 300)), seed=seed)
                for i in (0, len(word) - 1, rng.randrange(len(word))):
                    other = rng.choice([c for c in alphabet if c != word[i]])
                    changed = word[:i] + other + word[i + 1:]
                    q = chunked(changed, alphabet, rng.randint(2, 300))
                    assert not slp.equal(p, q, seed=seed), (seed, alphabet, i)

    def test_word_past_the_table(self, monkeypatch, tmp_path, capsys):
        a = slp.power(slp.literal("01"), 1 << 29)
        b = slp.power(slp.power(slp.literal("01"), 1 << 14), 1 << 15)
        assert slp.length(a) == 1 << 30
        assert slp.equal(a, b)
        monkeypatch.setattr(slp, "_MERSENNE", (89,))
        with pytest.raises(WordTooLong, match=r"2\^30"):
            slp.equal(a, b)
        for name, p in (("a.slp", a), ("b.slp", b)):
            (tmp_path / name).write_text(slp.format_slp(p))
        assert cli.main(["slp", "equal", str(tmp_path / "a.slp"), str(tmp_path / "b.slp")]) == 2
        assert "2^30" in capsys.readouterr().err


class TestFormat:
    def test_round_trip(self):
        text = slp.format_slp(P0)
        back = slp.parse_slp(text)
        assert slp.expand(back, 10) == "0110"
        assert slp.format_slp(back) == slp.format_slp(back)

    def test_axiom_is_first(self):
        back = slp.parse_slp("alphabet: 01\nA -> B B\nB -> 1\n")
        assert back.axiom == "A"

    def test_eps_and_comments(self):
        text = "# a comment\nalphabet: 01\nS -> A B # trailing\nA -> eps\nB -> 0\n"
        p = slp.parse_slp(text)
        assert slp.expand(p, 10) == "0"

    def test_wildcard_alphabet(self):
        p = slp.parse_slp("alphabet: ab?\nS -> a ? b\n")
        assert slp.expand(p, 10) == "a?b"

    def test_errors(self):
        with pytest.raises(FormatError):
            slp.parse_slp("S -> 0\n")
        with pytest.raises(FormatError):
            slp.parse_slp("alphabet: 01\nS 0\n")
        with pytest.raises(FormatError):
            slp.parse_slp("alphabet: 01\n")


class TestProperties:
    """Randomized agreement with the expansion oracle."""

    def test_slice_query_shift_agree_with_expansion(self):
        rng = random.Random(11)
        for _ in range(120):
            p = random_slp(rng, "01", min_len=1, max_len=2000)
            word = slp.expand(p, 10**4)
            n = len(word)
            for _ in range(10):
                a = rng.randint(0, n)
                b = rng.randint(a, n)
                assert slp.expand(slp.slice(p, a, b), n) == word[a:b]
            for _ in range(10):
                i = rng.randint(0, n - 1)
                assert slp.query(p, i) == word[i]
            s = rng.randint(0, n - 1)
            assert slp.expand(slp.cyclic_shift(p, s), n) == word[s:] + word[:s]

    def test_length_laws(self):
        rng = random.Random(12)
        for _ in range(60):
            p1 = random_slp(rng, "01", max_len=10**9)
            p2 = random_slp(rng, "01", max_len=10**9)
            assert slp.length(slp.concat(p1, p2)) == slp.length(p1) + slp.length(p2)
            n = slp.length(p1)
            if n:
                a = rng.randint(0, n)
                b = rng.randint(a, n)
                assert slp.length(slp.slice(p1, a, b)) == b - a
                k = rng.randint(0, 7)
                assert slp.length(slp.power(p1, k)) == k * n

    def test_substitution_is_letterwise(self):
        rng = random.Random(13)
        images = {"0": "ab", "1": ""}
        for _ in range(40):
            p = random_slp(rng, "01", max_len=2000)
            word = slp.expand(p, 2000)
            assert slp.expand(slp.substitute(p, images), 2 * len(word) + 1) == \
                "".join(images[c] for c in word)

    def test_toposort_is_first_visit_postorder(self):
        def postorder(p, name, seen, out):
            for sym in p.productions[name]:
                if sym not in p.alphabet and sym not in seen:
                    seen.add(sym)
                    postorder(p, sym, seen, out)
            out.append(name)

        rng = random.Random(17)
        for _ in range(100):
            p = random_slp(rng, "01", max_prods=10, max_arity=12, max_len=10**9)
            want: list[str] = []
            postorder(p, p.axiom, {p.axiom}, want)
            assert slp._toposort(p, [p.axiom]) == want

    def test_cnf_preserves_word(self):
        rng = random.Random(14)
        for _ in range(60):
            p = random_slp(rng, "01", min_len=1, max_len=2000)
            assert slp.expand(slp.to_cnf(p), 2000) == slp.expand(p, 2000)

    def test_equal_agrees_with_oracle(self):
        rng = random.Random(15)
        for _ in range(300):
            p1 = random_slp(rng, "01", max_len=3000)
            p2 = random_slp(rng, "01", max_len=3000)
            same = slp.expand(p1, 3000) == slp.expand(p2, 3000)
            assert slp.equal(p1, p2) == same

    def test_equal_negative_cap_is_a_bad_range(self):
        p = slp.literal("101", "01")
        # cap 0 fingerprints every nonempty word; below it there is no cap
        assert slp.equal(p, p, exact_threshold=0)
        assert not slp.equal(p, slp.literal("100", "01"), exact_threshold=0)
        with pytest.raises(BadRange, match="expansion cap -1 is negative"):
            slp.equal(p, p, exact_threshold=-1)
