"""The support record: ``associated_support`` keeps its recovery on the
weights, keyed by the bundle object, and ``canonical_form`` after
``classify`` reads it instead of recovering the support again."""

import gc

import numpy as np
import pytest

import linsaddle as ls
from linsaddle import classifier, critical_points
from linsaddle.critical_points import canonical_form, transform_weights
from linsaddle.network import partial_suffix
from linsaddle.ranktol import TAU_CRIT_REL, criticality_scale

from conftest import random_certified_spec


def _tightened_point(b, shape, seed=5):
    """The tightened example (a non-strict saddle) moved by random,
    well-conditioned D blocks, so that its canonical form is not the point."""
    w = ls.build_example_family(2, "tightened", b, shape)
    rng = np.random.default_rng(seed)
    d = [np.eye(n) + 0.2 * rng.standard_normal((n, n)) for n in shape.dims[1:-1]]
    return transform_weights(w, d)


def _fresh(w):
    return ls.Weights(w.layers, w.shape)


def _assert_same_spec(a, b):
    assert a.support == b.support
    for x, y in zip(a.z_blocks + a.d_blocks, b.z_blocks + b.d_blocks):
        assert np.array_equal(x, y)


@pytest.fixture()
def counted(monkeypatch):
    """Counts of the gradients made by classify and associated_support, and
    of the SVDs of the matrix counts['K'] once a test sets it."""
    counts = {"gradient": 0, "svd_K": 0, "K": None}

    def counting_gradient(w, bundle):
        counts["gradient"] += 1
        return ls.gradient(w, bundle)

    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        counts["svd_K"] += a is counts["K"]
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(classifier, "gradient", counting_gradient)
    monkeypatch.setattr(critical_points, "gradient", counting_gradient)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return counts


def test_canonical_form_after_classify_recovers_the_support_once(small_problem, counted):
    data, b, shape = small_problem
    w = _tightened_point(b, shape)
    counted["K"] = partial_suffix(w, 2)
    assert ls.classify(w, b, data).verdict == "non_strict_saddle"
    spec = canonical_form(w, b)
    assert (counted["gradient"], counted["svd_K"]) == (1, 1)
    _assert_same_spec(spec, canonical_form(_fresh(w), b))


@pytest.mark.parametrize("change, gradients", [
    ("second bundle", 2), ("rank_tol", 1), ("tau_crit", 1),
])
def test_the_support_is_recovered_again_for_other_inputs(small_problem, counted,
                                                         change, gradients):
    # Equal data in another bundle object, another rank tolerance or an
    # explicit tau: the record is not reused, though the gradient norm and
    # the scale of the same bundle object are.
    data, b, shape = small_problem
    w = _tightened_point(b, shape)
    counted["K"] = partial_suffix(w, 2)
    ls.classify(w, b, data)
    kwargs = {"rank_tol": ls.RankTolerance(relative=1e-10)} if change == "rank_tol" else {}
    if change == "tau_crit":
        kwargs["tau_crit"] = 10.0 * TAU_CRIT_REL * criticality_scale(w, b)
    bundle = ls.build_sigma_bundle(data) if change == "second bundle" else b
    spec = canonical_form(w, bundle, **kwargs)
    assert (counted["gradient"], counted["svd_K"]) == (gradients, 2)
    _assert_same_spec(spec, canonical_form(_fresh(w), bundle, **kwargs))


def test_a_record_is_read_only_for_its_own_bundle(small_problem):
    # The point is critical for its data only: for other data of the same
    # shape canonical_form must refuse it, not reuse the first support.
    data, b, shape = small_problem
    w = _tightened_point(b, shape)
    assert ls.classify(w, b, data).verdict == "non_strict_saddle"
    other = ls.build_sigma_bundle(ls.generate_gaussian_data(6, 4, 30, seed=9))
    with pytest.raises(ls.NotCritical):
        canonical_form(w, other)


def test_an_approximate_recovery_is_not_kept(small_problem):
    # W_1's signal rows moved by 1e-6: with tau a tenth of the gradient norm
    # classify accepts the point only with the approximate flag, and
    # canonical_form at the same tau must still refuse it.
    data, b, shape = small_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    layers = [M.copy() for M in w.layers]
    layers[0][:2] += 1e-6 * np.random.default_rng(42).standard_normal((2, shape.d_x))
    w = ls.Weights(layers, shape)
    tau = ls.gradient(w, b).frob_norm() / 10
    assert ls.classify(w, b, data, tau_crit=tau).approximate
    assert w._support is None
    with pytest.raises(ls.NotCritical, match="exceeds tolerance"):
        canonical_form(w, b, tau_crit=tau)


def test_the_record_keeps_no_bundle_alive(small_problem):
    data, _, shape = small_problem
    bundle = ls.build_sigma_bundle(data)
    w = _tightened_point(bundle, shape)
    ls.classify(w, bundle, data)
    ref = w._support[0]
    assert ref() is bundle
    del bundle
    gc.collect()
    assert ref() is None and w._support[0]() is None


def test_the_record_does_not_change_a_canonical_form(deep_problem):
    # Every critical point of a seeded random corpus: canonical_form after
    # classify is bitwise the spec of the same layers in a fresh Weights.
    data, b, shape = deep_problem
    rng = np.random.default_rng(71)
    for _ in range(12):
        w = ls.build_critical_point(random_certified_spec(shape, b.d_y, rng), b, shape)
        assert ls.classify(w, b, data).verdict != "not_critical"
        _assert_same_spec(canonical_form(w, b), canonical_form(_fresh(w), b))
