import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from regrisk import neumaier_sum

from oracles import fsum_total


def test_cancellation_pattern_recovers_small_term():
    # naive left-to-right summation loses the 1.0 entirely here
    values = [1e14, 1.0, -1e14]
    assert neumaier_sum(values) == math.fsum(values) == 1.0


def test_matches_fsum_on_wide_spread():
    rng = np.random.default_rng(7)
    base = rng.standard_normal(500)
    spread = np.concatenate([base * 1e12, base, -base * 1e12])
    got = neumaier_sum(spread)
    want = fsum_total(spread)
    assert abs(got - want) <= 1e-15 * np.sum(np.abs(spread)) + 1e-300


def test_accepts_arrays_and_flattens():
    arr = np.arange(12.0).reshape(3, 4)
    assert neumaier_sum(arr) == 66.0


def test_exactly_rounded_like_fsum():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(200) * 10.0 ** rng.integers(-8, 9, 200)
    assert neumaier_sum(values) == math.fsum(values)


def test_overflow_and_opposite_infinities_stay_non_finite():
    assert neumaier_sum([1e308, 1e308]) == math.inf
    assert math.isnan(neumaier_sum([math.inf, -math.inf]))
    assert neumaier_sum([math.inf, 1.0]) == math.inf


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(
            min_value=-1e16, max_value=1e16, allow_nan=False, allow_infinity=False
        ),
        min_size=0,
        max_size=60,
    )
)
def test_close_to_exact_sum(values):
    assert neumaier_sum(values) == math.fsum(values)
