"""One shape rule for every public evaluation: x is a point or a grid of
any shape, and every result has x's shape (jets and tau grids x.shape +
(order+1,))."""

import numpy as np
import pytest

from solitonlab import identities as I, numerics as N, solitons as S, transforms as T
from solitonlab.jets import Jet
from solitonlab.solitons import SolitonConfig

CFG = SolitonConfig((0.7, 1.3, 2.1), (1.5, 3.0, 0.4))
SEEDS, TARGET = T.eigenfunction_seeds(CFG, [1, 3]), T.eigenfunction_seed(CFG, 2)
FREE = [T.free_seed(0.8, 1.3), T.free_seed(1.6, -0.9)]
X = np.linspace(-2.0, 2.0, 6).reshape(2, 3)

ROUTES = {
    "tau_jet_sums": lambda x: S.tau_jet_sums(
        CFG, [None, S.eigenfunction_rule(CFG, 2), S.pair_rule(CFG, 1, 3)], x, [2, 1, 0]
    ),
    "tau_hirota_grid": lambda x: S.tau_hirota_grid(CFG, S.eigenfunction_rule(CFG, 2), x),
    "tau_logdet_grid": lambda x: S.tau_logdet_grid(CFG, None, x),
    "eigenfunctions": lambda x: S.eigenfunctions(CFG, [1, 3], x, 2),
    "eigenfunction": lambda x: S.eigenfunction(CFG, 2, x, 1),
    "potential_fn": lambda x: S.potential_fn(CFG)(x),
    "potential": lambda x: S.potential(CFG, x),
    "potential_jet": lambda x: S.potential_jet(CFG, x, 3),
    "dt_potential": lambda x: S.dt_potential(CFG, x),
    "kdv_residual": lambda x: N.kdv_residual(CFG, x, 0.1),
    "inner_tail": lambda x: I.inner_tail(CFG, 1, 3, x),
    "wronskian": lambda x: T.wronskian([*SEEDS, TARGET], x, 1),
    "seed_jets": lambda x: T.seed_jets([*SEEDS, *FREE], x, 1),
    "generic_darboux": lambda x: T.generic_darboux(SEEDS, TARGET, x, 1),
    "deleted_seed_image": lambda x: T.deleted_seed_image(SEEDS, 0, x, 1),
    "darboux_potential": lambda x: T.darboux_potential(SEEDS, S.potential_fn(CFG), x),
    "generic_am-add": lambda x: T.generic_am(SEEDS, "add", [1.5, 0.8], TARGET, x),
    "generic_am-delete": lambda x: T.generic_am(SEEDS, "delete", None, TARGET, x),
}

#: routes whose call at one point may round differently from the grid
#: call (BLAS and the vectorized ufunc loops pick their kernels by size):
#: measured 1 ulp on tau_logdet_grid and 1.4e-14 on the kdv residual
ROUNDING = {"tau_logdet_grid", "potential_fn", "potential", "potential_jet", "dt_potential", "kdv_residual",
            "darboux_potential"}


def arrays(result) -> list:
    """The arrays of a result, each with x's shape leading."""
    if isinstance(result, (list, tuple)):
        return [a for r in result for a in arrays(r)]
    if isinstance(result, Jet):
        return [result.center, result.coeffs]
    if isinstance(result, S.TauGrid):
        return [result.xs, result.coeffs, result.gauge, result.sign]
    if isinstance(result, T.AMResult):
        return [result.x, result.potential, result.target_value]
    return [np.asarray(result)]


@pytest.mark.parametrize("route", ROUTES)
def test_grid_of_any_shape_gives_results_of_its_shape(route):
    # bitwise the flat grid's results reshaped, and at each point the call
    # at that point alone, a result of shape ()
    f = ROUTES[route]
    grid, flat = arrays(f(X)), arrays(f(X.ravel()))
    assert len(grid) == len(flat)
    for a, b in zip(grid, flat):
        assert a.shape == X.shape + b.shape[1:] and np.array_equal(a, b.reshape(a.shape))
    for i in np.ndindex(X.shape):
        point = arrays(f(float(X[i])))
        assert len(point) == len(grid)
        for a, p in zip(grid, point):
            assert p.shape == a.shape[X.ndim :]
            if route in ROUNDING:
                assert np.allclose(a[i], p, rtol=1e-13, atol=1e-13)
            else:
                assert np.array_equal(a[i], p)
