"""Seedable random-number handles with documented substream derivation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _check_ids

__all__ = ["RngSeed", "as_generator"]

_U64 = 2**64


@dataclass(frozen=True)
class RngSeed:
    """A (seed, stream) pair identifying one reproducible random stream.

    The same pair reproduces identical draws within one build (bit
    exactness across numpy versions is not promised). Derived streams for
    parallel work come from :meth:`substream`; sweeps over experiment
    variants offset the stream by ``variant_index << 32`` so trial indices
    below 2**32 never collide across variants.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        # Python and numpy integers pass, stored as int; a bool does not
        for name in ("seed", "stream"):
            v = getattr(self, name)
            integer = isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            if not (integer and 0 <= int(v) < _U64):
                raise ValueError(f"{name} must be an integer in [0, 2**64)")
            object.__setattr__(self, name, int(v))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)

    def substream(self, index) -> "RngSeed":
        """The stream ``index`` places after this one, modulo 2**64.

        ``index`` must be an integer in [0, 2**63): a fractional, infinite
        or NaN index raises ``ValueError`` rather than being truncated, and
        so does an index of 2**63 or more.
        """
        index = int(_check_ids(index, "substream indices"))
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        return RngSeed(self.seed, (self.stream + index) % _U64)


def as_generator(rng) -> np.random.Generator:
    """Accept either an :class:`RngSeed` or a ready ``numpy`` generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSeed):
        return rng.generator()
    raise TypeError(f"expected RngSeed or numpy Generator, got {type(rng).__name__}")
