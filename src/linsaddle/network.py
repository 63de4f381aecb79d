"""The deep linear network: shapes, weights, loss, exact gradients.

Layers are stored input-to-output (W_1 first), so ``layers[h-1]`` is the
d_h x d_{h-1} matrix W_h and the realized global map is
W_H ... W_1 = layers[-1] @ ... @ layers[0].
Empty index ranges in products denote identity matrices throughout.

This module is the one place where layer products are formed.  Each
``Weights``/``Direction`` carries a product table, built on first use by any
of ``partial_prefix``, ``partial_suffix``, ``global_map`` or ``gradient``:
the H + 1 prefixes W_h..W_1 and the H + 1 suffixes W_H..W_h, read-only and
shared by every later caller.  Building it costs 2H matrix products and O(H)
memory.  Middle products W_{i-1}..W_{j+1} come from ``partial_middle``;
there are O(H^2) of them, so they are formed on demand and not kept.

A stack also keeps its layers' spectral norms (``layer_norms``), which floor
every rank cut on its products (``ranktol.chain_floor``), and the analysis
record of one bundle object (``_analysis``, the one writer of bundle-keyed
entries), whose stages other modules fill once each: ``build_critical_point``
its seed, the rest on first use.  Nothing goes stale: layers and bundle arrays
are read-only, and the record holds its bundle through a weak reference.

``layer_products`` builds the table.  The loss and its gradient read its
prefixes and one ``residual_moment`` E = W_H..W_1 Sigma_XX - Sigma_YX:
``products_loss`` takes the loss from E and ``products_gradient`` walks E
back through the layers, with no suffix.  They see the samples only through
Sigma_XX, Sigma_YX and tr Sigma_YY, never through an array with m columns.
All of them also take a stack of n networks, each layer an (n, d_h, d_{h-1})
array: numpy's batched matmul makes the same BLAS call per network as for
one network alone, so each network of a stack gets bitwise the results it
would get by itself.  ``products_gradient`` writes each layer's block
straight into a caller's parameter vector in the layout of ``flatten``.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .data_model import SigmaBundle
from .errors import InvalidShape
from .ranktol import spectral_norms


@dataclass(frozen=True)
class NetworkShape:
    dims: tuple  # (d_0, d_1, ..., d_H)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 3:
            raise InvalidShape("need at least depth H = 2, i.e. 3 dimensions")
        if any(d < 1 for d in dims):
            raise InvalidShape("all layer widths must be positive")
        object.__setattr__(self, "dims", dims)

    @property
    def H(self) -> int:
        return len(self.dims) - 1

    @property
    def d_x(self) -> int:
        return self.dims[0]

    @property
    def d_y(self) -> int:
        return self.dims[-1]

    @property
    def r_max(self) -> int:
        return min(self.dims)

    def layer_shape(self, h: int) -> tuple[int, int]:
        """Shape of W_h (1-based layer index)."""
        return (self.dims[h], self.dims[h - 1])

    @property
    def n_params(self) -> int:
        return sum(self.dims[h] * self.dims[h - 1] for h in range(1, self.H + 1))


class _LayerStack:
    """Immutable ordered list of layer matrices compatible with a shape.

    Besides the read-only layers it keeps, on first use, the product table,
    the layer norms and the ``_Analysis`` of one bundle object (``_analysis``)."""

    __slots__ = ("layers", "shape", "_products", "_norms", "_record")

    def __init__(self, layers, shape: NetworkShape):
        mats = []
        for h, M in enumerate(layers, start=1):
            M = np.ascontiguousarray(np.asarray(M, dtype=float))
            if M.shape != shape.layer_shape(h):
                raise InvalidShape(
                    f"layer {h}: expected {shape.layer_shape(h)}, got {M.shape}"
                )
            if not np.isfinite(M).all():
                raise InvalidShape(f"layer {h} has non-finite entries")
            M.flags.writeable = False
            mats.append(M)
        if len(mats) != shape.H:
            raise InvalidShape(f"expected {shape.H} layers, got {len(mats)}")
        object.__setattr__(self, "layers", tuple(mats))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_products", None)
        object.__setattr__(self, "_norms", None)
        object.__setattr__(self, "_record", None)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("immutable")

    def layer(self, h: int) -> np.ndarray:
        """W_h by 1-based index."""
        return self.layers[h - 1]

    def layer_norms(self) -> tuple:
        """The spectral norms ||W_1||_2 .. ||W_H||_2 (``spectral_norms``),
        taken on first use and kept like the product table."""
        if self._norms is None:
            object.__setattr__(self, "_norms", tuple(spectral_norms(self.layers)))
        return self._norms

    def frob_norm(self) -> float:
        return math.sqrt(self.sq_norm())

    def sq_norm(self) -> float:
        return float(sum(np.vdot(M, M) for M in self.layers))


class Weights(_LayerStack):
    pass


class Direction(_LayerStack):
    """A tangent perturbation, same layout as Weights."""


def prefix_products(layers) -> list:
    """[None, W_1, W_2 W_1, ..., W_H..W_1] from H - 1 products of the layers
    of one network or a stack (see ``layer_products``); entry 0, the
    identity, is left to the caller."""
    prefixes = [None, layers[0]]
    for M in layers[1:]:
        prefixes.append(M @ prefixes[-1])
    return prefixes


def layer_products(layers):
    """(prefixes, suffixes) of a layer list, with prefixes[h] = W_h ... W_1 for
    h in [0, H] and suffixes[h] = W_H ... W_h for h in [1, H + 1]
    (suffixes[0] unused).  The layers are either the 2-D matrices of one
    network or a stack of n networks, each layer an (n, d_h, d_{h-1}) array;
    the identities at the ends are 2-D and broadcast over the stack.
    prefixes[1] is W_1 and suffixes[H] is W_H, the layer objects themselves:
    a product with an identity would give them back bit for bit."""
    H = len(layers)
    prefixes = prefix_products(layers)
    prefixes[0] = np.eye(layers[0].shape[-1])
    suffixes = [None] * (H + 2)
    suffixes[H + 1] = np.eye(layers[-1].shape[-2])
    suffixes[H] = layers[-1]
    for h in range(H - 1, 0, -1):
        suffixes[h] = suffixes[h + 1] @ layers[h - 1]
    return prefixes, suffixes


def _product_table(w: _LayerStack):
    """The read-only ``layer_products`` of w, built on first use."""
    table = w._products
    if table is None:
        prefixes, suffixes = layer_products(w.layers)
        for P in prefixes + suffixes[1:]:
            P.flags.writeable = False
        table = (tuple(prefixes), tuple(suffixes))
        object.__setattr__(w, "_products", table)
    return table


class _Analysis:
    """A stack's stages for the bundle object ``bundle`` (a weak reference),
    each None until filled: ``gate`` (gradient norm, scale), ``support``
    (rank_tol, tau, an exact ``SupportResult``), ``seed`` (S, Z_1..Z_H,
    ``_ZChains`` if certified, ``build_critical_point``) and ``tightened``."""

    __slots__ = ("bundle", "gate", "support", "seed", "tightened")

    def __init__(self, bundle):
        self.bundle = weakref.ref(bundle)
        self.gate = self.support = self.seed = self.tightened = None


def _analysis(w: _LayerStack, bundle) -> _Analysis:
    """The analysis record of w for this bundle object, made empty if w has none."""
    record = w._record
    if record is None or record.bundle() is not bundle:
        record = _Analysis(bundle)
        object.__setattr__(w, "_record", record)
    return record


def _check_index(h: int, lo: int, hi: int) -> None:
    if not lo <= h <= hi:
        raise IndexError(f"layer index {h} outside [{lo}, {hi}]")


def global_map(w: _LayerStack) -> np.ndarray:
    """The product W_H ... W_1 (identity for empty ranges by convention)."""
    return _product_table(w)[0][-1]


def partial_prefix(w: _LayerStack, h: int) -> np.ndarray:
    """W_h ... W_1, with h = 0 giving I_{d_x}."""
    _check_index(h, 0, w.shape.H)
    return _product_table(w)[0][h]


def partial_suffix(w: _LayerStack, h: int) -> np.ndarray:
    """W_H ... W_h, with h = H + 1 giving I_{d_y}."""
    _check_index(h, 1, w.shape.H + 1)
    return _product_table(w)[1][h]


def partial_middle(w: _LayerStack, i: int, j: int) -> np.ndarray:
    """W_{i-1} ... W_{j+1} for 0 <= j < i <= H + 1, with i = j + 1 giving
    I_{d_j} and i = j + 2 the read-only layer W_{j+1} itself.  Longer
    products are formed afresh on every call."""
    _check_index(i, j + 1, w.shape.H + 1)
    _check_index(j, 0, w.shape.H)
    if i == j + 1:
        return np.eye(w.shape.dims[j])
    M = w.layer(j + 1)
    for k in range(j + 2, i):
        M = w.layer(k) @ M
    return M


def flatten(mats) -> np.ndarray:
    """Layer matrices W_1 .. W_H, each 2-D or stacked, concatenated row-major
    into parameter vectors of shape (..., n_params)."""
    return np.concatenate([M.reshape(M.shape[:-2] + (-1,)) for M in mats], axis=-1)


def unflatten(flat: np.ndarray, dims) -> list:
    """Inverse of ``flatten`` for a network of widths dims = (d_0, ..., d_H):
    views W_1 .. W_H of shape (..., d_h, d_{h-1}) into parameter vectors of
    shape (..., n_params)."""
    mats, off = [], 0
    for rows, cols in zip(dims[1:], dims):
        mats.append(flat[..., off:off + rows * cols].reshape(flat.shape[:-1] + (rows, cols)))
        off += rows * cols
    return mats


def residual_moment(P, bundle) -> np.ndarray:
    """E = P Sigma_XX - Sigma_YX for the global map P = W_H..W_1, which is
    R X^T for the residual R = P X - Y, from anything carrying the moments
    ``sigma_xx`` and ``sigma_yx``; P may be a stack of n maps."""
    E = P @ bundle.sigma_xx
    E -= bundle.sigma_yx
    return E


def products_loss(P, E, bundle: SigmaBundle):
    """Square loss ||P X - Y||^2 of the global map P from its
    ``residual_moment`` E, as <E - Sigma_YX, P> + tr Sigma_YY: a float64
    scalar for one network, an (n,) array for a stack of n."""
    G = E - bundle.sigma_yx
    G *= P
    return G.reshape(G.shape[:-2] + (-1,)).sum(axis=-1) + bundle.sigma_yy_trace


def products_gradient(layers, prefixes, E, blocks) -> None:
    """Gradient of the square loss into ``blocks``, the ``unflatten`` views of
    a parameter vector, from the layers, the prefixes W_h..W_1 (h < H) and
    the ``residual_moment`` E: block h is 2 B_h (W_{h-1}..W_1)^T, with
    B_H = E and B_{h-1} = W_h^T B_h, in 2H - 2 matrix products."""
    B = 2.0 * E
    for h in range(len(layers), 1, -1):
        np.matmul(B, prefixes[h - 1].swapaxes(-1, -2), out=blocks[h - 1])
        if h > 2:
            B = layers[h - 1].swapaxes(-1, -2) @ B
    np.matmul(layers[1].swapaxes(-1, -2), B, out=blocks[0])


def loss(w: Weights, bundle: SigmaBundle) -> float:
    if w.shape.d_x != bundle.d_x or w.shape.d_y != bundle.d_y:
        raise InvalidShape("weights incompatible with bundle dimensions")
    P = global_map(w)
    return float(products_loss(P, residual_moment(P, bundle), bundle))


def gradient(w: Weights, bundle: SigmaBundle) -> Direction:
    """Exact partial gradients of the square loss (see ``products_gradient``),
    with empty products equal to identity."""
    if w.shape.d_x != bundle.d_x or w.shape.d_y != bundle.d_y:
        raise InvalidShape("weights incompatible with bundle dimensions")
    prefixes = _product_table(w)[0]
    blocks = unflatten(np.empty(w.shape.n_params), w.shape.dims)
    products_gradient(w.layers, prefixes, residual_moment(prefixes[-1], bundle), blocks)
    return Direction(blocks, w.shape)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def weights_to_json(w: _LayerStack) -> str:
    return json.dumps(
        {"dims": list(w.shape.dims), "layers": [M.tolist() for M in w.layers]}
    )


def weights_from_json(text: str) -> Weights:
    obj = json.loads(text)
    shape = NetworkShape(tuple(obj["dims"]))
    return Weights([np.asarray(L, dtype=float) for L in obj["layers"]], shape)
