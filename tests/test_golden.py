"""Golden digest: the translation's formatted outputs over a seeded corpus.

One SHA-256 over every pair and machine file the translation writes for a
fixed corpus (handcrafted machines, random normal machines, normalized raw
machines, machine images of random programs, and random transcript pairs).
A refactoring that keeps this digest keeps every output byte; a change that
alters an output on purpose records the new digest here and says why.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from pdapress import slp, translate, udpda

from helpers import handcrafted_machines, random_normal_udpda, random_raw_udpda, random_slp

GOLDEN = "f354353eb4220d9d18d6c73516b5d1e5096426a7e22d63e01bce7287390921b0"


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
        yield udpda.format_udpda(udpda.to_raw(m))


def corpus_digest() -> str:
    h = hashlib.sha256()
    for text in _outputs():
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def test_outputs_match_golden_digest():
    assert corpus_digest() == GOLDEN


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
