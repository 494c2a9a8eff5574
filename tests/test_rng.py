import numpy as np
import pytest

from rwtv import RngSeed
from rwtv.experiments import benchmark_trial_spec
from rwtv.rng import as_generator


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: RngSeed(-1), ValueError, "seed must be an integer"),
        (lambda: RngSeed(2**64), ValueError, "seed must be an integer"),
        (lambda: RngSeed(1.5), ValueError, "seed must be an integer"),
        (lambda: RngSeed(True), ValueError, "seed must be an integer"),
        (lambda: RngSeed(0, True), ValueError, "stream must be an integer"),
        (lambda: RngSeed(np.bool_(True)), ValueError, "seed must be an integer"),
        (lambda: RngSeed(np.float64(3.0)), ValueError, "seed must be an integer"),
        (lambda: RngSeed(np.int64(-1)), ValueError, "seed must be an integer"),
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


@pytest.mark.parametrize(
    "seed, stream",
    [
        (np.int64(3), 0),
        (np.uint32(7), np.uint64(5)),
        (np.uint64(2**64 - 1), np.int8(2)),
    ],
)
def test_numpy_integer_seeds_equal_and_draw_like_their_ints(seed, stream):
    given, plain = RngSeed(seed, stream), RngSeed(int(seed), int(stream))
    assert given == plain and hash(given) == hash(plain)
    assert type(given.seed) is int and type(given.stream) is int
    assert given.generator().random(4).tolist() == plain.generator().random(4).tolist()
    assert given.substream(9) == plain.substream(9)
    spec = benchmark_trial_spec(seed=seed)
    assert spec.master_seed == RngSeed(int(seed))

