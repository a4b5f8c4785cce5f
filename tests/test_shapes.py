"""One shape rule for every public evaluation: x is a point or a grid of
any shape, and every result has x's shape (jets and tau grids x.shape +
(order+1,)). A stacked result (tau_jet_sums, eigenfunctions, seed_jets)
leads with its stack axis, and each of its rows keeps the rule."""

import functools

import numpy as np
import pytest

from solitonlab import identities as I, solitons as S, transforms as T
from solitonlab.jets import Jet
from solitonlab.solitons import SolitonConfig

CFG = SolitonConfig((0.7, 1.3, 2.1), (1.5, 3.0, 0.4))
FREE = [T.free_seed(0.8, 1.3), T.free_seed(1.6, -0.9)]
X = np.linspace(-2.0, 2.0, 6).reshape(2, 3)


def seeds(cfg):
    """The seeds phi_1, phi_3 of cfg and the target phi_2."""
    return T.eigenfunction_seeds(cfg, [1, 3]), T.eigenfunction_seed(cfg, 2)


def rows(stack: S.TauGrid, n: int) -> list:
    """The rows of a stacked TauGrid of n rows, each a result of x's shape."""
    assert stack.xs.shape[:1] == (n,) and stack.coeffs.shape[:1] == (n,)
    return [stack[r] for r in range(n)]


#: every public evaluation of x, each a function of (cfg, x)
ROUTES = {
    "tau_jet_sums": lambda cfg, x: rows(
        S.tau_jet_sums(cfg, [None, S.eigenfunction_rule(cfg, 2), S.pair_rule(cfg, 1, 3)], x, 2), 3
    ),
    "tau_hirota_grid": lambda cfg, x: S.tau_hirota_grid(cfg, S.eigenfunction_rule(cfg, 2), x),
    "tau_logdet_grid": lambda cfg, x: S.tau_logdet_grid(cfg, None, x),
    "eigenfunctions": lambda cfg, x: rows(S.eigenfunctions(cfg, [1, 3], x, 2), 2),
    "eigenfunction": lambda cfg, x: S.eigenfunction(cfg, 2, x, 1),
    "potential_fn": lambda cfg, x: S.potential_fn(cfg)(x),
    "potential": lambda cfg, x: S.potential(cfg, x),
    "potential_jet": lambda cfg, x: S.potential_jet(cfg, x, 3),
    "dt_potential": lambda cfg, x: S.dt_potential(cfg, x),
    "kdv_residual": lambda cfg, x: S.kdv_residual(cfg, x),
    "inner_tail": lambda cfg, x: I.inner_tail(cfg, 1, 3, x),
    "wronskian": lambda cfg, x: T.wronskian([*seeds(cfg)[0], seeds(cfg)[1]], x, 1),
    "seed_jets": lambda cfg, x: rows(T.seed_jets([*seeds(cfg)[0], *FREE], x, 1), 4),
    "generic_darboux": lambda cfg, x: T.generic_darboux(*seeds(cfg), x, 1),
    "deleted_seed_image": lambda cfg, x: T.deleted_seed_image(seeds(cfg)[0], 0, x, 1),
    "darboux_potential": lambda cfg, x: T.darboux_potential(seeds(cfg)[0], S.potential_fn(cfg), x),
    "generic_am-add": lambda cfg, x: T.generic_am(cfg, [1, 3], "add", [1.5, 0.8], 2, x),
    "generic_am-delete": lambda cfg, x: T.generic_am(cfg, [1, 3], "delete", None, 2, x),
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
    f = functools.partial(ROUTES[route], CFG)
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


GRID = np.linspace(-2.0, 2.0, 7)

#: the identity checks, each a function of (cfg, grid)
CHECKS = {
    "verify_wronskian_identity": lambda cfg, g: I.verify_wronskian_identity(cfg, [1, 3], g),
    "verify_bilinear_derivative": lambda cfg, g: I.verify_bilinear_derivative(cfg, 1, 3, g),
    "verify_deletion_determinant": lambda cfg, g: I.verify_deletion_determinant(cfg, [1, 3], g),
    "verify_addition_determinant": lambda cfg, g: I.verify_addition_determinant(cfg, [1, 3], [1.5, 0.8], g),
    "verify_tau_split": lambda cfg, g: I.verify_tau_split(cfg, 2, g),
    "verify_seed_wronskian": lambda cfg, g: I.verify_seed_wronskian(cfg.k, [1.3, -0.9, 2.0], g),
}

#: hierarchy times that move every c by O(1)
TIMED = SolitonConfig(CFG.k, CFG.c, {3: 0.05, 5: -0.002})


@pytest.mark.parametrize("route", [*ROUTES, *CHECKS])
def test_hierarchy_times_are_folded_where_c_is_read(route):
    # a config with times gives bitwise the results of its flowed config:
    # the times are folded once, by the code that reads c
    if route in CHECKS:
        timed, flowed = (repr(CHECKS[route](cfg, GRID)) for cfg in (TIMED, TIMED.flowed()))
        assert timed == flowed
        return
    timed, flowed = (arrays(ROUTES[route](cfg, X)) for cfg in (TIMED, TIMED.flowed()))
    assert len(timed) == len(flowed)
    for a, b in zip(timed, flowed):
        assert np.array_equal(a, b)
