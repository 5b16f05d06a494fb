"""The kernel fuzzer.

Reimplements the Syzkaller workflow the paper abstracts in Figure 1: a
corpus of interesting tests, a three-stage mutation engine (type
*selector*, mutation *localizer*, argument *instantiator*), the fuzzing
loop with coverage feedback and virtual-time accounting, crash triage
with syz-repro-style reproducer minimisation, and a SyzDirect-like
directed mode.
"""

from repro.fuzzer.corpus import Corpus, CorpusEntry
from repro.fuzzer.mutations import ArgumentInstantiator, MutationType
from repro.fuzzer.localizer import (
    Localizer,
    RandomLocalizer,
    SyzkallerLocalizer,
)
from repro.fuzzer.engine import MutationEngine, TypeSelector
from repro.fuzzer.loop import FuzzLoop, FuzzObservation, FuzzStats
from repro.fuzzer.crash import CrashTriage, TriagedCrash
from repro.fuzzer.directed import DirectedFuzzer, DirectedResult

__all__ = [
    "ArgumentInstantiator",
    "Corpus",
    "CorpusEntry",
    "CrashTriage",
    "DirectedFuzzer",
    "DirectedResult",
    "FuzzLoop",
    "FuzzObservation",
    "FuzzStats",
    "Localizer",
    "MutationEngine",
    "MutationType",
    "RandomLocalizer",
    "SyzkallerLocalizer",
    "TriagedCrash",
    "TypeSelector",
]
