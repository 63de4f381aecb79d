"""Property-based checks over randomly drawn shapes and supports."""

import numpy as np
from hypothesis import given, settings, strategies as st

import linsaddle as ls
from linsaddle.ranktol import criticality_scale

from conftest import random_certified_spec


def _problem(dims, m, seed):
    data = ls.generate_gaussian_data(dims[0], dims[-1], m, seed=seed)
    return data, ls.build_sigma_bundle(data), ls.NetworkShape(dims)


dims_strategy = st.integers(2, 4).flatmap(
    lambda H: st.tuples(
        st.integers(3, 8),  # d_x
        *[st.integers(2, 8) for _ in range(H - 1)],
        st.integers(2, 3),  # d_y
    )
).filter(lambda d: d[-1] <= d[0])


@settings(max_examples=25, deadline=None)
@given(dims=dims_strategy, seed=st.integers(0, 10_000))
def test_constructed_points_are_critical(dims, seed):
    data, bundle, shape = _problem(dims, dims[0] + 10, seed % 50)
    rng = np.random.default_rng(seed)
    spec = random_certified_spec(shape, bundle.d_y, rng)
    w = ls.build_critical_point(spec, bundle, shape)
    assert ls.gradient(w, bundle).frob_norm() <= 1e-9 * criticality_scale(w, bundle)
    assert ls.loss(w, bundle, data) >= ls.critical_value(
        tuple(range(1, shape.r_max + 1)), bundle
    ) - 1e-8


@settings(max_examples=25, deadline=None)
@given(dims=dims_strategy, seed=st.integers(0, 10_000))
def test_support_roundtrip_property(dims, seed):
    data, bundle, shape = _problem(dims, dims[0] + 10, seed % 50)
    rng = np.random.default_rng(seed)
    spec = random_certified_spec(shape, bundle.d_y, rng)
    w = ls.build_critical_point(spec, bundle, shape)
    assert ls.associated_support(w, bundle).support == spec.support


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.floats(-2.0, 2.0))
def test_taylor_value_property(seed, t):
    data, bundle, shape = _problem((5, 4, 4, 3), 15, 0)
    rng = np.random.default_rng(seed)
    w = ls.Weights(
        [0.5 * rng.standard_normal(shape.layer_shape(h))
         for h in range(1, shape.H + 1)],
        shape,
    )
    v = ls.Direction(
        [rng.standard_normal(shape.layer_shape(h))
         for h in range(1, shape.H + 1)],
        shape,
    )
    tc = ls.taylor_coeffs(w, v, data)
    shifted = ls.Weights(
        [M + t * V for M, V in zip(w.layers, v.layers)], shape
    )
    ref = ls.loss(shifted, bundle, data)
    assert abs(tc.value(t) - ref) <= 1e-9 * (1.0 + abs(ref))
