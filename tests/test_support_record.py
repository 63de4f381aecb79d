"""The analysis record of a point for one bundle object: ``associated_support``
keeps its recovery in it, and ``canonical_form`` after ``classify`` reads it
instead of recovering the support again; ``build_critical_point`` seeds it
with the spec's S, Z and chains, and ``ft_st_decomposition`` reads them
instead of deriving them from the layers again."""

import gc
import itertools
from dataclasses import replace

import numpy as np
import pytest

import linsaddle as ls
from linsaddle import critical_points, curvature
from linsaddle.critical_points import canonical_form, transform_weights
from linsaddle.network import partial_suffix
from linsaddle.ranktol import TAU_CRIT_REL, criticality_scale

from conftest import certify_corpus, random_certified_spec, random_direction


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
    assert w._record.support is None
    with pytest.raises(ls.NotCritical, match="exceeds tolerance"):
        canonical_form(w, b, tau_crit=tau)


def test_the_record_keeps_no_bundle_alive(small_problem):
    data, _, shape = small_problem
    bundle = ls.build_sigma_bundle(data)
    w = _tightened_point(bundle, shape)
    ls.classify(w, bundle, data)
    ref = w._record.bundle
    assert ref() is bundle
    del bundle
    gc.collect()
    assert ref() is None and w._record.bundle() is None


def test_the_record_does_not_change_a_canonical_form(deep_problem):
    # Every critical point of a seeded random corpus: canonical_form after
    # classify is bitwise the spec of the same layers in a fresh Weights.
    data, b, shape = deep_problem
    rng = np.random.default_rng(71)
    for _ in range(12):
        w = ls.build_critical_point(random_certified_spec(shape, b.d_y, rng), b, shape)
        assert ls.classify(w, b, data).verdict != "not_critical"
        _assert_same_spec(canonical_form(w, b), canonical_form(_fresh(w), b))


# ---------------------------------------------------------------------------
# The builder's seed: S, Z and the Z chains of a point built with D = I
# ---------------------------------------------------------------------------


def _assert_seeded_equals_read_off(w, b, data, dirs):
    """The seeded analysis of w against that of the same layers in a fresh
    Weights, which reads r and the blocks off the layers: equal r and
    structure, and each factor of the certificate to 1e-12 relative."""
    plain = _fresh(w)
    assert w._record.seed is not None and plain._record is None
    st, r, _ = curvature._tightened(w, b)
    assert (st, r) == curvature._tightened(plain, b)[:2]
    for v in dirs:
        dec, ref = (ls.ft_st_decomposition(x, v, b, data) for x in (w, plain))
        assert dec.structure == ref.structure == st
        for name in ("a1", "A2", "A3", "A4"):
            x, y = getattr(dec, name), getattr(ref, name)
            assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y), name
    assert plain._record.seed is None


@pytest.mark.parametrize("H", range(3, 9))
def test_seeded_and_read_off_analyses_agree_on_the_tightened_family(H):
    data = ls.generate_gaussian_data(7, 4, 40, seed=H)
    b = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((7,) + tuple(5 + h % 2 for h in range(H - 1)) + (4,))
    rng = np.random.default_rng(H)
    for r in (1, 2):
        w = ls.build_example_family(r, "tightened", b, shape)
        _assert_seeded_equals_read_off(w, b, data, [random_direction(shape, rng) for _ in range(3)])


@pytest.mark.parametrize("seed, n_certified", [(101, 111), (107, 104)])
def test_seeded_and_read_off_analyses_agree_on_the_certify_rebuilds(seed, n_certified):
    # The certify flow: each non-strict saddle of the corpus is put in
    # canonical form and rebuilt with D = I without the criticality check,
    # so its seed has no chains and _tightened tests the spec first.
    n = 0
    for data, w, _, dirs in itertools.islice(certify_corpus(seed), 800):
        b = ls.build_sigma_bundle(data)
        if ls.classify(w, b, data).verdict != "non_strict_saddle":
            continue
        spec = replace(canonical_form(w, b), d_blocks=None)
        wc = ls.build_critical_point(spec, b, w.shape, require_certified=False)
        assert wc._record.seed[2] is None
        _assert_seeded_equals_read_off(wc, b, data, dirs)
        n += 1
    assert n == n_certified


def _counting(monkeypatch, module, name):
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_second_bundle_gets_a_fresh_support_and_fresh_chains(deep_problem, monkeypatch,
                                                                counted):
    # Equal data in another bundle object: the seed of the first is not
    # read, so r and the blocks come off the layers again, and the support
    # is recovered again with its own gradient and SVD of K.
    data, b, shape = deep_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    v = random_direction(shape, np.random.default_rng(47))
    ls.classify(w, b, data)
    dec = ls.ft_st_decomposition(w, v, b, data)
    counted["K"], counted["gradient"] = partial_suffix(w, 2), 0
    chains = _counting(monkeypatch, curvature, "_ZChains")
    blocks = _counting(monkeypatch, curvature, "_canonical_blocks")
    b2 = ls.build_sigma_bundle(data)
    assert ls.classify(w, b2, data).support == (1, 2)
    assert (counted["gradient"], counted["svd_K"]) == (1, 1)
    dec2 = ls.ft_st_decomposition(w, v, b2, data)
    assert (len(chains), len(blocks)) == (1, 1) and blocks[0][1] is b2
    assert w._record.bundle() is b2 and w._record.seed is None
    assert dec2.structure == dec.structure
    assert np.linalg.norm(dec2.A2 - dec.A2) <= 1e-12 * np.linalg.norm(dec.A2)


def test_a_large_m_certificate_derives_nothing_the_builder_has(monkeypatch):
    # One operation of the large_m benchmark (m = 1000): the tightened
    # example is built, classified and certified along two directions.  Its
    # tightened analysis takes r = |S| and the builder's chains: no rank cut
    # of the global map, no canonical read-off and no chains beyond the
    # builder's one.
    data = ls.generate_gaussian_data(10, 4, 1000, seed=3)
    shape = ls.NetworkShape((10, 8, 8, 8, 4))
    rng = np.random.default_rng(3)
    dirs = [random_direction(shape, rng) for _ in range(2)]
    ranks = _counting(monkeypatch, curvature, "numeric_rank")
    blocks = _counting(monkeypatch, curvature, "_canonical_blocks")
    chains = _counting(monkeypatch, curvature, "_ZChains")
    built = _counting(monkeypatch, critical_points, "_ZChains")
    b = ls.build_sigma_bundle(data)
    w = ls.build_example_family(2, "tightened", b, shape)
    assert ls.classify(w, b, data).verdict == "non_strict_saddle"
    decs = [ls.ft_st_decomposition(w, v, b, data) for v in dirs]
    assert (len(ranks), len(blocks), len(chains), len(built)) == (0, 0, 0, 1)
    assert w._record.tightened[2] is w._record.seed[2]
    for v, dec in zip(dirs, decs):
        assert dec.c2 == pytest.approx(ls.c2_value(w, v, data), rel=1e-8)
