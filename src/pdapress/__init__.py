"""Unary deterministic pushdown automata and straight-line programs.

The package turns machines into compressed descriptions of their
characteristic sequences (indicator pairs) and back, and builds the
standard decision procedures, compressed-word comparisons, integer
expressions and hardness-instance generators on top of that translation.
"""

from . import compare, decide, errors, intexpr, reductions, slp, translate, udpda
from .compare import CheckResult, PartialOrderSpec, SymbolRelation, comp_slp, partial_word_match
from .slp import Slp
from .translate import (
    IndicatorPair,
    TranscriptPair,
    indicator_to_udpda,
    slp_to_udpda,
    transcript_to_characteristic,
    udpda_to_indicator,
    udpda_to_transcript,
)
from .udpda import (
    NormalUdpda,
    RawUnpda,
    membership_sim,
    normalize,
    run_prefix,
)

__version__ = "0.1.0"
