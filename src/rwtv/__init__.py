"""Random-walk sampling and total-variation recovery of clustered graph signals."""

from . import graph, sampling, slp, synth
from .graph import *  # noqa: F401,F403
from .rng import RngSeed
from .sampling import *  # noqa: F401,F403
from .slp import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403

__all__ = [*graph.__all__, "RngSeed", *sampling.__all__, *slp.__all__, *synth.__all__]
