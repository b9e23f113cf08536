"""Golden digests: the translation's formatted outputs and the decision
procedures' answers over seeded corpora.

One SHA-256 covers every pair and machine file the translation writes for a
fixed corpus (handcrafted machines, random normal machines, normalized raw
machines, machine images of random programs, and random transcript pairs).
A second covers the verdicts of `decide` on another corpus: equivalence and
inclusion (verdict, witness and checked prefix) on random machine pairs and
on equivalent and near-miss variants of random indicator pairs, membership
at 80-bit lengths, emptiness and universality.  The number of blocks an
inclusion visited is left out, since it follows the shape of the compared
programs rather than the answer.  A refactoring that keeps both digests
keeps every output byte and every answer; a change that alters one on
purpose records the new digest here and says why.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from pdapress import decide, reductions, slp, translate, udpda

from helpers import (
    check_fixed_point,
    handcrafted_machines,
    random_normal_udpda,
    random_raw_udpda,
    random_slp,
)

# uniform raw states are their own normal-form states, a machine has one
# marker pair, and no prefix holds a loop copy: the least state of an R4
# cycle gets the empty prefix, and the characteristic stage writes no loop
# copy after a fused prefix; the transcript walk leaves empty visits out of
# its productions.  The verdicts keep every verdict and witness, and
# `checked` only shrinks
GOLDEN = "e708a5b9f954fbb7325ed329877bfaf49df180d231149926621859ebc29b6909"
VERDICTS = "c68262ef4baab296026bf481633623cff55ea047bdcc48b95d35c4e780ab97f1"


def _machines():
    yield from (m for _, m in handcrafted_machines())
    rng = random.Random(9001)
    for i in range(300):
        yield random_normal_udpda(rng, max_states=40 if i % 10 == 0 else 12)
    for _ in range(150):
        yield udpda.normalize(random_raw_udpda(rng))
    for _ in range(100):
        p = random_slp(rng, "01", min_len=1, max_len=300)
        yield translate.slp_to_udpda(p)


def _transcripts():
    rng = random.Random(9002)
    for _ in range(300):
        prefix = "".join(rng.choice("af") for _ in range(rng.randint(0, 12)))
        loop = "".join(rng.choice("af") for _ in range(rng.randint(1, 12)))
        yield translate.TranscriptPair(slp.literal(prefix, "af"), slp.literal(loop, "af"))
    for _ in range(60):
        yield translate.TranscriptPair(
            random_slp(rng, "af", max_len=400), random_slp(rng, "af", min_len=1, max_len=400)
        )


def _outputs():
    pairs = []
    for m in _machines():
        yield translate.format_pair(translate.udpda_to_transcript(m))
        pair = translate.udpda_to_indicator(m)
        pairs.append(pair)
        yield translate.format_pair(pair)
    for tp in _transcripts():
        pair = translate.transcript_to_characteristic(tp)
        pairs.append(pair)
        yield translate.format_pair(pair)
    for pair in pairs[::3]:
        m = translate.indicator_to_udpda(pair)
        yield udpda.format_udpda(m)


def corpus_digest() -> str:
    h = hashlib.sha256()
    for text in _outputs():
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _variant_pairs():
    """Pairs of machines from indicator pairs: (base, equivalent variant) and
    (base, the variant with one loop bit flipped), the variants built as in
    the equivalence acceptance check; some loops run past the exact-compare
    threshold of `slp.equal`."""
    rng = random.Random(9004)
    for i in range(30):
        prefix = random_slp(rng, "01", max_len=60)
        loop = random_slp(rng, "01", min_len=1, max_len=60)
        if i % 5 == 0:
            tail = random_slp(rng, "01", min_len=1, max_len=60)
            loop = slp.concat(loop, slp.power(tail, 5000 // slp.length(tail) + 1))
        k = rng.randint(1, slp.length(loop))
        variant = rng.choice([
            translate.IndicatorPair(slp.concat(prefix, slp.slice(loop, 0, k)),
                                    slp.cyclic_shift(loop, k % slp.length(loop))),
            translate.IndicatorPair(slp.concat(prefix, loop), loop),
            translate.IndicatorPair(prefix, slp.power(loop, rng.randint(2, 3))),
        ])
        j = rng.randrange(slp.length(variant.loop))
        bit = "1" if slp.query(variant.loop, j) == "0" else "0"
        flipped = translate.IndicatorPair(variant.prefix, slp.concat(
            slp.concat(slp.slice(variant.loop, 0, j), slp.literal(bit, "01")),
            slp.slice(variant.loop, j + 1, slp.length(variant.loop))))
        base = translate.indicator_to_udpda(translate.IndicatorPair(prefix, loop))
        yield base, translate.indicator_to_udpda(variant)
        yield base, translate.indicator_to_udpda(flipped)


def _verdicts():
    rng = random.Random(9003)
    machines = [m for _, m in handcrafted_machines()]
    machines += [random_normal_udpda(rng, max_states=10) for _ in range(40)]
    big = [rng.getrandbits(80) | 1 << 79 for _ in range(3)]
    for m in machines:
        yield (decide.emptiness(m), decide.universality(m),
               [decide.compressed_membership(m, n) for n in (0, 1, 7, *big)])
    pairs = [(rng.choice(machines), rng.choice(machines)) for _ in range(60)]
    for m1, m2 in [*pairs, *_variant_pairs()]:
        res = [decide.inclusion(a, b) for a, b in ((m1, m2), (m2, m1))]
        yield decide.equivalence(m1, m2), [(r.verdict, r.witness, r.checked) for r in res]


def verdict_digest() -> str:
    h = hashlib.sha256()
    for row in _verdicts():
        h.update(repr(row).encode())
        h.update(b"\0")
    return h.hexdigest()


def test_outputs_match_golden_digest():
    assert corpus_digest() == GOLDEN


def test_verdicts_match_golden_digest():
    assert verdict_digest() == VERDICTS


def test_digest_does_not_follow_hash_order():
    # set iteration order, and with it the order of the translation's work,
    # changes with the string hash seed; the outputs must not
    path = os.pathsep.join([str(Path(slp.__file__).parents[1]), str(Path(__file__).parent)])
    code = "import test_golden; print(test_golden.corpus_digest())"
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == GOLDEN, seed


def _corpus():
    """The machines of both corpora."""
    yield from _machines()
    rng = random.Random(9003)
    yield from (m for _, m in handcrafted_machines())
    yield from (random_normal_udpda(rng, max_states=10) for _ in range(40))
    for pair in _variant_pairs():
        yield from pair


def _raw_corpus():
    """The machines of both corpora as raw machines."""
    return map(udpda.to_raw, _corpus())


def _written_machines():
    """The machines of both corpora that slp_to_udpda or indicator_to_udpda
    built: the images of random programs, the machines of every third pair
    of the outputs corpus, and the variant pairs."""
    machines = list(_machines())
    yield from machines[-100:]
    pairs = [translate.udpda_to_indicator(m) for m in machines]
    pairs += [translate.transcript_to_characteristic(tp) for tp in _transcripts()]
    yield from map(translate.indicator_to_udpda, pairs[::3])
    for pair in _variant_pairs():
        yield from pair


def test_written_machines_read_back_as_themselves():
    # normalize is a fixed point on a machine the translation wrote, and
    # translating its file gives the pairs of the machine itself
    for m in _written_machines():
        check_fixed_point(m)
        raw = udpda.parse_udpda(udpda.format_udpda(m))
        for convert in (translate.udpda_to_transcript, translate.udpda_to_indicator):
            assert translate.format_pair(convert(raw)) == translate.format_pair(convert(m))


def test_moves_survive_the_round_trip():
    # a machine file carries the move map: writing and reading it back
    # gives the same (state, top) -> (input, target, push) map
    rng = random.Random(40)
    for a in [*(random_raw_udpda(rng) for _ in range(100)), *_raw_corpus()]:
        assert udpda.parse_udpda(udpda.format_udpda(a)).moves == a.moves


def test_normal_machines_format_as_their_raw_form():
    # a normal machine is written without its raw copy: the lines must be
    # those of the sorted raw transitions, byte for byte
    def inclusion_machines():
        rng = random.Random(9005)
        for weights, target in [((1, 2), 3), ((2, 3, 5), 4), ((1, 1, 4), 6), ((3,), 3)]:
            p1, p2 = reductions.gen_subsetsum_to_compslp(
                reductions.SubsetSumInstance(weights, target))
            yield from reductions.gen_compslp_to_inclusion(
                p1, p2, random_slp(rng, "01", min_len=1, max_len=50))

    for m in [*_corpus(), *inclusion_machines()]:
        assert udpda.format_udpda(m) == udpda.format_udpda(udpda.to_raw(m))


def test_view_matches_normalize_on_the_corpora():
    # a raw machine is normalized on demand, one (state, top) pair at a
    # time; the pairs must come out byte for byte as from the eager form
    for raw in _raw_corpus():
        eager = udpda.normalize(raw)
        for convert in (translate.udpda_to_transcript, translate.udpda_to_indicator):
            assert translate.format_pair(convert(raw)) == translate.format_pair(convert(eager))


def test_simulator_on_the_view_matches_normalize():
    # sim steps a view, whose state count (and so the simulator's warm-up
    # before it tracks loops) is smaller; bits and verdicts stay the same
    for raw in _raw_corpus():
        eager, view = udpda.normalize(raw), udpda.NormalView(raw)
        assert udpda.run_prefix(view, 60) == udpda.run_prefix(eager, 60)
        for n in (0, 5, 17):
            assert udpda.membership_sim(view, n) == udpda.membership_sim(eager, n)
