import numpy as np
import pytest

from rwtv import RngSeed
from rwtv.rng import as_generator


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: RngSeed(-1), ValueError, "seed must be an integer"),
        (lambda: RngSeed(2**64), ValueError, "seed must be an integer"),
        (lambda: RngSeed(1.5), ValueError, "seed must be an integer"),
        (lambda: RngSeed(0).substream(-1), ValueError, "index must be nonnegative"),
        (lambda: RngSeed(1).substream(2.5), ValueError, "indices must be integers"),
        (lambda: RngSeed(1).substream(np.inf), ValueError, "indices must be integers"),
        (lambda: RngSeed(1).substream(np.nan), ValueError, "indices must be integers"),
        (lambda: RngSeed(1).substream(2**63), ValueError, "integers below 2"),
        (lambda: as_generator(42), TypeError, "expected RngSeed or numpy Generator"),
    ],
)
def test_invalid_seed_input_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()

