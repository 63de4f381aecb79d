import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import linsaddle as ls


@pytest.fixture(scope="session")
def small_problem():
    """d_x=6, d_y=4, m=30, H=3 with widths (6,5,5,4)."""
    data = ls.generate_gaussian_data(6, 4, 30, seed=0)
    bundle = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((6, 5, 5, 4))
    return data, bundle, shape


@pytest.fixture(scope="session")
def deep_problem():
    """d_x=7, d_y=4, m=40, H=4 with widths (7,6,5,6,4)."""
    data = ls.generate_gaussian_data(7, 4, 40, seed=1)
    bundle = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((7, 6, 5, 6, 4))
    return data, bundle, shape


@pytest.fixture(scope="session")
def shallow_problem():
    """H=2: d_x=5, d_y=3, m=25, widths (5,4,3)."""
    data = ls.generate_gaussian_data(5, 3, 25, seed=2)
    bundle = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((5, 4, 3))
    return data, bundle, shape


def random_direction(shape, rng):
    return ls.Direction(
        [rng.standard_normal(shape.layer_shape(h)) for h in range(1, shape.H + 1)],
        shape,
    )


def random_weights(shape, rng, scale=1.0):
    return ls.Weights(
        [scale * rng.standard_normal(shape.layer_shape(h)) for h in range(1, shape.H + 1)],
        shape,
    )


def random_certified_spec(shape, d_y, rng, support=None):
    """Random critical (S, Z, D) spec, critical because r = r_max or two Z
    blocks are zero, with well-conditioned random D blocks."""
    from linsaddle.critical_points import CriticalPointSpec, z_block_shape

    if support is None:
        r = int(rng.integers(0, shape.r_max + 1))
        support = tuple(
            sorted(rng.choice(np.arange(1, d_y + 1), size=r, replace=False).tolist())
        )
    r = len(support)
    zero_idx = (
        set(rng.choice(np.arange(shape.H), size=min(2, shape.H), replace=False).tolist())
        if r < shape.r_max
        else set()
    )
    z_blocks = []
    for h in range(1, shape.H + 1):
        Z = np.zeros(z_block_shape(shape, r, h))
        if (h - 1) not in zero_idx and Z.size and rng.random() < 0.7:
            Z[:] = rng.standard_normal(Z.shape)
        z_blocks.append(Z)
    d_blocks = tuple(
        np.eye(shape.dims[h]) + 0.2 * rng.standard_normal((shape.dims[h],) * 2)
        for h in range(1, shape.H)
    )
    return CriticalPointSpec(
        support=support, z_blocks=tuple(z_blocks), d_blocks=d_blocks
    )


def certify_corpus(seed):
    """The points of the benchmark's certify corpus for `seed`, in order,
    replaying the draws of perfbench/workloads.py's ``certify_setup``:
    X -> aX, Y -> bY, and W_1 -> (b/a) W_1 in the weights and in each of the
    three certificate directions.  Yields (data, weights, support,
    directions) without end."""
    rng = np.random.default_rng(seed)
    count = 0
    while True:
        H = (2, 3, 5)[count % 3]
        d_x = int(rng.integers(2, 13))
        d_y = int(rng.integers(1, d_x + 1))
        dims = tuple([d_x] + [int(rng.integers(1, 13)) for _ in range(H - 1)] + [d_y])
        m = d_x + int(rng.integers(3, 20))
        data = ls.generate_gaussian_data(d_x, d_y, m, seed=int(rng.integers(2**31)))
        if not ls.check_assumption_h(data).holds:
            continue
        shape = ls.NetworkShape(dims)
        spec = random_certified_spec(shape, d_y, rng)
        a, b = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        dirs = [random_direction(shape, rng) for _ in range(3)]
        w = ls.build_critical_point(spec, ls.build_sigma_bundle(data), shape)

        def covariant(layers):
            return [layers[0] * (b / a)] + list(layers[1:])

        yield (ls.DataMatrices(data.X * a, data.Y * b), ls.Weights(covariant(w.layers), shape),
               spec.support, [ls.Direction(covariant(v.layers), shape) for v in dirs])
        count += 1


def masked_critical_spec(shape):
    """The critical spec with S = (1, 2) on widths (7, 6, 5, 6, 4) whose Z
    blocks are Gaussian except that Z_2 = 0 and Z_4 Z_3 = 0 with Z_3 and Z_4
    nonzero (Z_3 nonzero in its first row only, Z_4 zero in its first
    column), so that the point is critical without two zero blocks."""
    from linsaddle.critical_points import CriticalPointSpec, z_block_shape

    rng = np.random.default_rng(62)
    z = [rng.standard_normal(z_block_shape(shape, 2, h)) for h in range(1, 5)]
    z[1][:] = 0.0
    z[2][1:, :] = 0.0
    z[3][:, 0] = 0.0
    return CriticalPointSpec(support=(1, 2), z_blocks=tuple(z))
