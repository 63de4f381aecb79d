import json

import numpy as np
import pytest

import linsaddle as ls
from linsaddle.network import (
    flatten,
    layer_products,
    partial_middle,
    partial_prefix,
    partial_suffix,
    prefix_products,
    products_gradient,
    products_loss,
    residual_moment,
    unflatten,
)
from linsaddle.ranktol import spectral_norms

from conftest import random_weights
from oracles import (
    best_rank_r_map,
    fd_gradient,
    moment_loss,
    naive_loss,
    suffix_table_gradient,
)


def test_shape_properties():
    s = ls.NetworkShape((6, 5, 3, 4))
    assert s.H == 3 and s.d_x == 6 and s.d_y == 4 and s.r_max == 3
    assert s.layer_shape(1) == (5, 6)
    assert s.layer_shape(3) == (4, 3)
    assert s.n_params == 5 * 6 + 3 * 5 + 4 * 3


def test_shape_rejects_garbage():
    with pytest.raises(ls.InvalidShape):
        ls.NetworkShape((4, 3))  # depth < 2
    with pytest.raises(ls.InvalidShape):
        ls.NetworkShape((4, 0, 3))


def test_weights_validation(small_problem):
    _, _, shape = small_problem
    with pytest.raises(ls.InvalidShape):
        ls.Weights([np.zeros((2, 2))] * shape.H, shape)
    mats = [np.zeros(shape.layer_shape(h)) for h in range(1, shape.H + 1)]
    mats[0][0, 0] = np.inf
    with pytest.raises(ls.InvalidShape):
        ls.Weights(mats, shape)
    with pytest.raises(ls.InvalidShape, match="expected 3 layers, got 2"):
        ls.Weights([np.zeros(shape.layer_shape(h)) for h in (1, 2)], shape)


def test_prefix_suffix_conventions(small_problem):
    _, _, shape = small_problem
    rng = np.random.default_rng(0)
    w = random_weights(shape, rng)
    assert np.array_equal(partial_prefix(w, 0), np.eye(shape.d_x))
    assert np.array_equal(partial_suffix(w, shape.H + 1), np.eye(shape.d_y))
    full = w.layer(3) @ w.layer(2) @ w.layer(1)
    assert np.allclose(ls.global_map(w), full)
    assert np.allclose(partial_prefix(w, 2), w.layer(2) @ w.layer(1))
    assert np.allclose(partial_suffix(w, 2), w.layer(3) @ w.layer(2))


def test_loss_matches_naive(small_problem):
    data, bundle, shape = small_problem
    rng = np.random.default_rng(1)
    w = random_weights(shape, rng, scale=0.5)
    assert ls.loss(w, bundle) == pytest.approx(
        naive_loss(list(w.layers), data.X, data.Y), rel=1e-12
    )


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_finite_differences(small_problem, seed):
    data, bundle, shape = small_problem
    rng = np.random.default_rng(seed)
    w = random_weights(shape, rng, scale=0.4)
    g = ls.gradient(w, bundle)
    fd = fd_gradient(list(w.layers), data.X, data.Y)
    for h in range(shape.H):
        scale = max(1.0, np.abs(fd[h]).max())
        assert np.allclose(g.layers[h], fd[h], atol=1e-5 * scale)


def test_gradient_zero_at_best_map(small_problem):
    # a one-hidden-layer factorization of the full-rank optimum is critical
    data, bundle, _ = small_problem
    shape = ls.NetworkShape((6, 4, 4))
    M = best_rank_r_map(data.X, data.Y, 4)
    w = ls.Weights([M, np.eye(4)], shape)
    assert ls.gradient(w, bundle).frob_norm() < 1e-10


def test_weights_json_roundtrip(small_problem):
    _, _, shape = small_problem
    w = random_weights(shape, np.random.default_rng(2))
    back = ls.weights_from_json(ls.weights_to_json(w))
    assert back.shape.dims == shape.dims
    for h in range(1, shape.H + 1):
        assert np.array_equal(back.layer(h), w.layer(h))
    obj = json.loads(ls.weights_to_json(w))
    assert set(obj) == {"dims", "layers"}


def test_norms(small_problem):
    _, _, shape = small_problem
    w = random_weights(shape, np.random.default_rng(3))
    assert w.frob_norm() == pytest.approx(np.sqrt(w.sq_norm()))


def test_spectral_norms_match_numpy_on_mixed_and_empty_shapes():
    rng = np.random.default_rng(5)
    shapes = [(3, 7), (7, 3), (1, 1), (0, 4), (4, 0), (5, 5), (2, 6)]
    mats = [rng.standard_normal(s) * 10.0 ** k for k, s in enumerate(shapes)]
    norms = spectral_norms(mats)
    assert len(norms) == len(mats)
    for M, n in zip(mats, norms):
        assert n == pytest.approx(np.linalg.norm(M, 2), rel=1e-13, abs=0.0)
    assert spectral_norms([]) == []
    assert spectral_norms([np.zeros((0, 3)), np.zeros((2, 0))]) == [0.0, 0.0]
    w = random_weights(ls.NetworkShape((4, 6, 2, 5)), rng)
    assert w.layer_norms() == pytest.approx([np.linalg.norm(M, 2) for M in w.layers], rel=1e-13)


def test_weights_are_immutable(small_problem):
    _, _, shape = small_problem
    w = random_weights(shape, np.random.default_rng(4))
    with pytest.raises(ValueError):
        w.layers[0][0, 0] = 5.0
    with pytest.raises(AttributeError, match="immutable"):
        w.layers = ()


def test_product_table_matches_naive_loops_at_depth_16():
    # Uneven widths, so that a product over a wrong index range cannot even
    # be compared with the naive one.
    dims = (5,) + tuple(2 + (h % 4) for h in range(1, 16)) + (3,)
    shape = ls.NetworkShape(dims)
    assert shape.H == 16
    w = random_weights(shape, np.random.default_rng(7), scale=0.7)
    H = shape.H

    def naive(lo, hi):  # W_hi ... W_lo, identity of size d_{lo-1} when empty
        P = np.eye(dims[lo - 1])
        for k in range(lo, hi + 1):
            P = w.layer(k) @ P
        return P

    def close(A, B):
        return A.shape == B.shape and np.allclose(A, B, rtol=1e-12, atol=1e-14)

    for h in range(H + 1):
        assert close(partial_prefix(w, h), naive(1, h))
    for h in range(1, H + 2):
        assert close(partial_suffix(w, h), naive(h, H))
    for i in range(1, H + 2):
        for j in range(i):
            assert close(partial_middle(w, i, j), naive(j + 1, i - 1))
    assert close(ls.global_map(w), naive(1, H))

    # The table is built once and shared, so callers may not write to it.
    assert partial_prefix(w, 3) is partial_prefix(w, 3)
    with pytest.raises(ValueError):
        partial_suffix(w, 2)[0, 0] = 1.0
    for bad in (lambda: partial_prefix(w, -1), lambda: partial_suffix(w, 0),
                lambda: partial_middle(w, 3, 3), lambda: partial_middle(w, H + 2, 1)):
        with pytest.raises(IndexError):
            bad()


def _identity_padded_table(layers):
    """Prefixes and suffixes with the identity ends multiplied in."""
    H = len(layers)
    prefixes = [np.eye(layers[0].shape[-1])]
    for M in layers:
        prefixes.append(M @ prefixes[-1])
    suffixes = [None] * (H + 2)
    suffixes[H + 1] = np.eye(layers[-1].shape[-2])
    for h in range(H, 0, -1):
        suffixes[h] = suffixes[h + 1] @ layers[h - 1]
    return prefixes, suffixes


@pytest.mark.parametrize("dims", [(5, 4, 3), (6, 5, 4, 3), (6, 5, 7, 4, 5, 3)])
@pytest.mark.parametrize("batch", [(), (4,)])
def test_products_are_bitwise_the_identity_padded_formulas(dims, batch):
    # Skipping a product with an identity must not change a single bit, for
    # one network and for a stack laid out as the rows of one array.
    shape = ls.NetworkShape(dims)
    H = shape.H
    data = ls.generate_gaussian_data(dims[0], dims[-1], 20, seed=H)
    bundle = ls.build_sigma_bundle(data)
    W = np.random.default_rng(H).standard_normal(batch + (shape.n_params,))
    layers = unflatten(W, dims)
    prefixes, suffixes = layer_products(layers)
    P, S = _identity_padded_table(layers)
    for h in range(H + 1):
        assert np.array_equal(prefixes[h], P[h])
    for h in range(1, H + 2):
        assert np.array_equal(suffixes[h], S[h])

    # The backward recursion B_H = 2 E, B_{h-1} = W_h^T B_h, block h =
    # B_h P_{h-1}^T, with the identity factors multiplied in: B_H = I^T (2 E)
    # and block 1 = B_1 P_0^T.
    B = S[H + 1].swapaxes(-1, -2) @ (2.0 * (P[H] @ bundle.sigma_xx - bundle.sigma_yx))
    oracle = [None] * H
    for h in range(H, 0, -1):
        oracle[h - 1] = B @ P[h - 1].swapaxes(-1, -2)
        B = layers[h - 1].swapaxes(-1, -2) @ B
    flat = np.empty(batch + (shape.n_params,))
    E = residual_moment(prefixes[H], bundle)
    products_gradient(layers, prefixes, E, unflatten(flat, dims))
    assert np.array_equal(flat, flatten(oracle))
    for block, ref in zip(unflatten(flat, dims), oracle):
        assert np.array_equal(block, ref)


@pytest.mark.parametrize("dims", [(5, 4, 3), (6, 5, 4, 3), (6, 5, 7, 4, 5, 3)])
@pytest.mark.parametrize("batch", [(), (4,)])
@pytest.mark.parametrize("a,b", [(1e-3, 1e-3), (1e-3, 1e3), (1e3, 1e-3), (1e3, 1e3)])
def test_backward_recursion_agrees_with_the_suffix_table(dims, batch, a, b):
    # The loss read from E = P Sigma_XX - Sigma_YX and the gradient walked back
    # from E round differently from the suffix-table formulas, but only in the
    # last digits, whatever the units of X and Y.  W_1 -> (b / a) W_1 keeps the
    # network at the same place relative to the rescaled data.
    shape = ls.NetworkShape(dims)
    H = shape.H
    data = ls.generate_gaussian_data(dims[0], dims[-1], 20, seed=H)
    bundle = ls.build_sigma_bundle(ls.DataMatrices(a * data.X, b * data.Y))
    W = np.random.default_rng(H).standard_normal(batch + (shape.n_params,))
    layers = unflatten(W, dims)
    layers[0] *= b / a
    prefixes, suffixes = layer_products(layers)
    E = residual_moment(prefixes[H], bundle)
    moments = (bundle.sigma_xx, bundle.sigma_yx)
    ref_loss = moment_loss(prefixes[H], *moments, bundle.sigma_yy)
    assert np.allclose(products_loss(prefixes[H], E, bundle), ref_loss, rtol=1e-12, atol=0)
    flat = np.empty(batch + (shape.n_params,))
    products_gradient(layers, prefix_products(layers), E, unflatten(flat, dims))
    ref = suffix_table_gradient(prefixes, suffixes, *moments)
    err = np.linalg.norm(flat - ref, axis=-1)
    assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=-1))


@pytest.mark.parametrize("fn", [ls.loss, ls.gradient])
def test_loss_and_gradient_refuse_a_bundle_of_other_data(small_problem, fn):
    _, b, _ = small_problem
    w = random_weights(ls.NetworkShape((5, 5, 4)), np.random.default_rng(0))
    with pytest.raises(ls.InvalidShape, match="weights incompatible with bundle dimensions"):
        fn(w, b)
