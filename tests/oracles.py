"""Grid operators that only the tests call, kept here as oracles.

The package applies the symmetric gradient one entry at a time
(``grid._sym_grad_entry``), dealiases by zeroing slabs (``grid._dealias_in_place``)
and never takes a curl or a single component of a field.  These operators
state those ideas whole, for the tests that check the package against them.
"""

import math

import numpy as np

from swlp.grid import Grid, SpectralField, _jacobian, _sym_grad_entry, parseval_sum


def component(field: SpectralField, i: int) -> SpectralField:
    """Component ``i`` of a field, as a scalar field."""
    return SpectralField(field.grid, field.coeffs[i : i + 1])


def sym_grad(field: SpectralField) -> np.ndarray:
    """Symmetric gradient D(u) = (grad u + grad u^T)/2 of a vector field.

    Returns the coefficient tensor with shape ``(dim, dim, n, ..., n)``;
    entry ``[i, j]`` holds (D u)_{ij} = (d_j u_i + d_i u_j)/2.
    """
    g = field.grid
    if field.ncomp != g.dim:
        raise ValueError("sym_grad expects a dim-component field")
    tensor = np.empty((g.dim, *field.coeffs.shape), dtype=np.complex128)
    for i, j in zip(*np.triu_indices(g.dim)):
        tensor[i, j] = tensor[j, i] = _sym_grad_entry(field.coeffs, g, i, j)
    return tensor


def curl_norm(field: SpectralField) -> float:
    """L2 norm of the curl (all antisymmetric gradient components), by Parseval."""
    g = field.grid
    if field.ncomp != g.dim:
        raise ValueError("curl expects a dim-component field")
    jac = _jacobian(field.coeffs, g)
    i, j = np.triu_indices(g.dim, 1)
    w = jac[j, i] - jac[i, j]
    return math.sqrt(g.volume * parseval_sum(w, g))


def dealias_mask(grid: Grid, fraction: float = 2.0 / 3.0) -> np.ndarray:
    """Boolean mask of retained modes: |k_i| < fraction * n/2 on every axis."""
    cut = fraction * grid.n / 2.0
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = grid.n
        k = grid.wavenumbers().reshape(shape)
        mask &= np.abs(k) < cut
    return mask
