"""The HDK core: the paper's primary contribution (Section 3.1).

- :mod:`repro.hdk.keys` — canonical term-set keys and lattice helpers,
- :mod:`repro.hdk.filters` — size, proximity, and redundancy filtering,
- :mod:`repro.hdk.classify` — DK/NDK classification (Definitions 3-5),
- :mod:`repro.hdk.generator` — per-peer iterative key generation using
  global statuses learned through NDK notifications,
- :mod:`repro.hdk.indexer` — the per-peer indexing role that runs the
  generation rounds against the global index (driven by
  :class:`repro.indexing.IndexingPipeline`).
"""

from .classify import classify_df, is_discriminative
from .filters import (
    is_intrinsically_discriminative,
    passes_size_filter,
    proximity_candidates,
)
from .generator import GenerationRound, LocalHDKGenerator
from .indexer import IndexingReport, PeerIndexer
from .keys import make_key, subkeys_of_size, superkeys_within

__all__ = [
    "classify_df",
    "is_discriminative",
    "is_intrinsically_discriminative",
    "passes_size_filter",
    "proximity_candidates",
    "GenerationRound",
    "LocalHDKGenerator",
    "IndexingReport",
    "PeerIndexer",
    "make_key",
    "subkeys_of_size",
    "superkeys_within",
]
