"""Deterministic random-number streams for reproducible experiments.

All randomness in the package flows through counter-based Philox generators.
Independent streams are derived from a single 64-bit master seed, either by
spawn keys (per measured term, per branch) or by hashing (per Monte-Carlo
repetition), so results are identical no matter how work is scheduled.
"""
from __future__ import annotations

import hashlib

import numpy as np

# Identifiers recorded in reports so a run can name its generator exactly.
# The suffix names the draw: one multinomial count vector per measured term.
RNG_ID = "philox4x64-multinomial"
SEED_DERIVATION_ID = "sha256[:8]"


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for the given master seed and stream key.

    Distinct ``stream`` tuples give statistically independent streams; the
    same tuple always reproduces the same draws.
    """
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(seq))


def derive_seed(master_seed: int, index: int) -> int:
    """Per-repetition seed: first 8 bytes of sha256(master_seed ":" index)."""
    digest = hashlib.sha256(f"{int(master_seed)}:{int(index)}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
