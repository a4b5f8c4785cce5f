"""Deformation inputs are checked in one place each: every entry that takes
state indices, Abraham-Moses parameters, jet orders or evaluation points x
gives a ConfigError (the CLI exit 2) for a bad one, never a silently wrong
result or an untyped error."""

import math

import numpy as np
import pytest

from solitonlab import cli, identities as I, solitons as S, transforms as T
from solitonlab.solitons import ConfigError, SolitonConfig
from test_shapes import ROUTES

CFG = SolitonConfig((0.7, 1.3, 2.1), (1.5, 3.0, 0.4))
GRID = np.linspace(-1.0, 1.0, 5)

#: entries that take an index set D
INDEX_SETS = {
    "verify_wronskian_identity": lambda d: I.verify_wronskian_identity(CFG, d, GRID),
    "verify_deletion_determinant": lambda d: I.verify_deletion_determinant(CFG, d, GRID),
    "verify_addition_determinant": lambda d: I.verify_addition_determinant(CFG, d, [2.0] * len(d), GRID),
    "am_delete": lambda d: T.am_delete(CFG, d),
    "krein_adler_delete": lambda d: T.krein_adler_delete(CFG, d),
    "am_add": lambda d: T.am_add(CFG, [(j, 2.0) for j in d]),
    "generic_am-add": lambda d: T.generic_am(CFG, d, "add", [2.0] * len(d)),
    "generic_am-delete": lambda d: T.generic_am(CFG, d, "delete"),
}

#: entries that take one index
INDICES = {
    "verify_bilinear_derivative-j": lambda j: I.verify_bilinear_derivative(CFG, j, 1, GRID),
    "verify_bilinear_derivative-l": lambda j: I.verify_bilinear_derivative(CFG, 1, j, GRID),
    "verify_tau_split": lambda j: I.verify_tau_split(CFG, j, GRID),
    "eigenfunction": lambda j: S.eigenfunction(CFG, j, GRID, 0),
    "generic_am-target": lambda j: T.generic_am(CFG, [1], "delete", target=j),
}

#: entries that take Abraham-Moses parameters, as (j, e_j) pairs
ADDITIONS = {
    "verify_addition_determinant": lambda p: I.verify_addition_determinant(
        CFG, [j for j, _ in p], [e for _, e in p], GRID
    ),
    "am_add": lambda p: T.am_add(CFG, p),
    "generic_am": lambda p: T.generic_am(CFG, [j for j, _ in p], "add", [e for _, e in p]),
}

BAD_INDICES = [0, CFG.n + 1, 1.5, True, np.True_, "1"]
BAD_PARAMS = [[(1, 2.0), (1, 3.0)]] + [[(1, e)] for e in (0.0, -1.0, math.inf, math.nan, "2", True, np.True_, None)]


@pytest.mark.parametrize("entry", INDEX_SETS)
@pytest.mark.parametrize("dset", [[], *([j] for j in BAD_INDICES), [2, 1.5]], ids=repr)
def test_bad_index_set_is_a_config_error(entry, dset):
    with pytest.raises(ConfigError):
        INDEX_SETS[entry](dset)


@pytest.mark.parametrize("entry", INDICES)
@pytest.mark.parametrize("j", BAD_INDICES, ids=repr)
def test_bad_index_is_a_config_error(entry, j):
    with pytest.raises(ConfigError):
        INDICES[entry](j)


@pytest.mark.parametrize("entry", ADDITIONS)
@pytest.mark.parametrize("params", BAD_PARAMS, ids=repr)
def test_bad_addition_parameters_are_a_config_error(entry, params):
    with pytest.raises(ConfigError):
        ADDITIONS[entry](params)


def test_no_rules_is_a_config_error():
    with pytest.raises(ConfigError):
        S.tau_jet_sums(CFG, [], GRID, [])


#: entries that take a jet order
ORDERS = {
    "tau_jet_sums": lambda q: S.tau_jet_sums(CFG, [None], 0.3, [q]),
    "tau_jet_sums-second-rule": lambda q: S.tau_jet_sums(CFG, [None, None], GRID, [1, q]),
    "eigenfunction": lambda q: S.eigenfunction(CFG, 1, 0.3, q),
    "potential_jet": lambda q: S.potential_jet(CFG, 0.3, q),
}


@pytest.mark.parametrize("entry", ORDERS)
@pytest.mark.parametrize("order", [-1, 1.7, 2.9, 2.0, True, np.True_, "1", None], ids=repr)
def test_bad_jet_order_is_a_config_error(entry, order):
    # an order is read like an index: 1.7 was order 1, 2.9 a TypeError
    with pytest.raises(ConfigError):
        ORDERS[entry](order)


def test_numpy_integers_are_jet_orders():
    ref = S.tau_jet_sums(CFG, [None], GRID, [2])[0]
    assert np.array_equal(S.tau_jet_sums(CFG, [None], GRID, [np.int64(2)])[0].coeffs, ref.coeffs)
    assert np.array_equal(S.potential_jet(CFG, GRID, np.int32(2)).coeffs, S.potential_jet(CFG, GRID, 2).coeffs)


@pytest.mark.parametrize("params", BAD_PARAMS, ids=repr)
def test_cli_bad_addition_parameters_exit_2(tmp_path, capsys, params):
    path = tmp_path / "cfg.json"
    path.write_text(cli.config_to_json(CFG))
    args = [a for j, e in params for a in ("--e", f"{j}={e!r}")]
    assert cli.main(["transform", str(path), "--scheme", "am-add", *args]) == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_numpy_integers_are_indices():
    assert T.am_delete(CFG, np.array([3, 1])) == T.am_delete(CFG, [1, 3])
    assert T.am_add(CFG, {np.int64(2): 1.5}) == T.am_add(CFG, {2: 1.5})


def test_addition_parameters_stay_with_their_index():
    # the caller's order of the indices carries its e values with it
    ref = T.am_add(CFG, {1: 2.0, 3: 0.7})
    assert T.am_add(CFG, [(3, 0.7), (1, 2.0)]).after_c == ref.after_c
    fwd = I.verify_addition_determinant(CFG, [1, 3], [2.0, 0.7], GRID)
    rev = I.verify_addition_determinant(CFG, [3, 1], [0.7, 2.0], GRID)
    assert repr(fwd) == repr(rev)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("where", ["point", "grid"])
def test_non_finite_x_is_a_config_error(route, bad, where):
    # one rule at solitons._points: NaN was an IndexError from dd.exp's
    # table on the jet-sum routes and NaN or -inf on the float routes
    x = bad if where == "point" else np.array([0.0, bad, 1.0])
    with pytest.raises(ConfigError):
        ROUTES[route](CFG, x)
