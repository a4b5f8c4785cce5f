"""Deformation inputs are checked in one place each: every entry that takes
state indices, Abraham-Moses parameters, jet orders or evaluation points x
gives a ConfigError (the CLI exit 2) for a bad one, never a silently wrong
result or an untyped error."""

import math

import numpy as np
import pytest

from solitonlab import cli, identities as I, solitons as S, transforms as T
from solitonlab.solitons import ConfigError, SolitonConfig
from test_shapes import CHECKS, ROUTES, arrays

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "2", True, np.True_], ids=repr)
def test_bad_rule_factor_is_a_config_error(bad):
    # float() read "2" as 2.0 and True as 1.0, and a NaN or inf factor gave
    # NaN from the jet sums and log|u| = -inf with sign 0 from the
    # determinant, which reads as an underflow
    with pytest.raises(ConfigError):
        S.CoefficientRule((bad, 1.0, 1.0))
    with pytest.raises(ConfigError):
        S.rescale_rule(CFG.n, 1, bad)


def test_no_rules_is_a_config_error():
    with pytest.raises(ConfigError):
        S.tau_jet_sums(CFG, [], GRID, 0)


#: entries that take a jet order
ORDERS = {
    "tau_jet_sums": lambda q: S.tau_jet_sums(CFG, [None], 0.3, q),
    "tau_jet_sums-second-rule": lambda q: S.tau_jet_sums(CFG, [None, S.drop_rule(3, 2)], GRID, q),
    "eigenfunction": lambda q: S.eigenfunction(CFG, 1, 0.3, q),
    "potential_jet": lambda q: S.potential_jet(CFG, 0.3, q),
    "wronskian": lambda q: T.wronskian(T.eigenfunction_seeds(CFG, [1, 2]), 0.3, q),
    "generic_darboux": lambda q: T.generic_darboux(T.eigenfunction_seeds(CFG, [1]), T.free_seed(0.5, 1.0), 0.3, q),
    "deleted_seed_image": lambda q: T.deleted_seed_image(T.eigenfunction_seeds(CFG, [1, 3]), 0, 0.3, q),
}


@pytest.mark.parametrize("entry", ORDERS)
@pytest.mark.parametrize("order", [-1, 1.7, 2.9, 2.0, True, np.True_, "1", None], ids=repr)
def test_bad_jet_order_is_a_config_error(entry, order):
    # an order is read like an index: 1.7 was order 1, 2.9 a TypeError
    with pytest.raises(ConfigError):
        ORDERS[entry](order)


def test_numpy_integers_are_jet_orders():
    ref = S.tau_jet_sums(CFG, [None], GRID, 2)
    assert np.array_equal(S.tau_jet_sums(CFG, [None], GRID, np.int64(2)).coeffs, ref.coeffs)
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


@pytest.mark.parametrize(
    "times",
    [{3.5: 0.1}, {3.0: 0.1}, {True: 0.1}, {"3.5": 0.1}, {"x": 0.1}, {3: 0.1, 3.5: 0.2}, {3: 0.1, "3": 0.2}],
    ids=repr,
)
def test_bad_hierarchy_time_key_is_a_config_error(times):
    # int() truncated the keys: {3.5: t} was the t_3 flow, and {3: 0.1,
    # 3.5: 0.2} silently dropped t_3 = 0.1
    with pytest.raises(ConfigError):
        SolitonConfig(CFG.k, CFG.c, times)


def test_hierarchy_time_keys_from_json_and_numpy():
    ref = SolitonConfig(CFG.k, CFG.c, {3: 0.1, 5: -0.02})
    assert SolitonConfig(CFG.k, CFG.c, {"3": 0.1, "5": -0.02}) == ref
    assert SolitonConfig(CFG.k, CFG.c, {np.int64(3): 0.1, 5: -0.02}) == ref
    assert cli.parse_config(cli.config_to_json(ref)) == ref


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("where", ["point", "grid"])
def test_non_finite_x_is_a_config_error(route, bad, where):
    # one rule at solitons._points: NaN was an IndexError from dd.exp's
    # table on the jet-sum routes and NaN or -inf on the float routes
    x = bad if where == "point" else np.array([0.0, bad, 1.0])
    with pytest.raises(ConfigError):
        ROUTES[route](CFG, x)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("x", [np.array([]), np.array([-1e3, 1e3])], ids=["empty", "far"])
def test_empty_and_far_field_x_give_finite_results(route, x):
    # results of x's shape, finite wherever the true values are: an empty
    # x was an untyped ValueError on every route through jet_det, and
    # generic_am's deletion read far-field underflow as a singularity
    for a in arrays(ROUTES[route](CFG, x)):
        assert a.shape[:1] == x.shape and np.isfinite(a).all()


@pytest.mark.parametrize("check", CHECKS)
def test_empty_grid_is_a_config_error(check):
    # one rule for every check: no point, no identity to check (an untyped
    # ValueError or a failed report with an infinite deviation before)
    with pytest.raises(ConfigError):
        CHECKS[check](CFG, np.array([]))


def test_grid_of_excluded_points_keeps_its_failed_report():
    # points exist but every one underflows below the exclusion floor
    r = I.verify_deletion_determinant(CFG, [1, 3], np.array([990.0, 1000.0]))
    assert not r.passed and r.excluded_points == 2 and r.max_abs_deviation == math.inf


#: seed inputs, each of which gave a NaN Wronskian, the constant 1 or a
#: bare ZeroDivisionError
BAD_SEEDS = {
    "free_seed-k-nan": lambda: T.free_seed(math.nan, 1.0),
    "free_seed-ctilde-inf": lambda: T.free_seed(1.0, math.inf),
    "free_seed-ctilde-string": lambda: T.free_seed(1.0, "2"),
    "plane_wave_seed-nan": lambda: T.plane_wave_seed(math.nan),
    "verify_seed_wronskian-inf": lambda: I.verify_seed_wronskian([1.0, math.inf], [1.0, -1.0], GRID),
    "deleted_seed_image-past-the-end": lambda: T.deleted_seed_image(T.eigenfunction_seeds(CFG, [1, 3]), 5, GRID),
    "deleted_seed_image-negative": lambda: T.deleted_seed_image(T.eigenfunction_seeds(CFG, [1, 3]), -1, GRID),
    "deleted_seed_image-fraction": lambda: T.deleted_seed_image(T.eigenfunction_seeds(CFG, [1, 3]), 0.5, GRID),
    "deleted_seed_image-bool": lambda: T.deleted_seed_image(T.eigenfunction_seeds(CFG, [1, 3]), True, GRID),
    "verify_seed_wronskian-repeated-k": lambda: I.verify_seed_wronskian([1.0, 1.0], [1.0, -1.0], GRID),
    "verify_seed_wronskian-string": lambda: I.verify_seed_wronskian([1.0, 2.0], ["1", -1.0], GRID),
}


@pytest.mark.parametrize("entry", BAD_SEEDS)
def test_bad_seed_input_is_a_config_error(entry):
    with pytest.raises(ConfigError):
        BAD_SEEDS[entry]()


def test_repeated_free_seed_wavenumber_is_named():
    with pytest.raises(ConfigError, match="wavenumber 1.0 is repeated"):
        T.seed_config_from_free([1.0, 2.0, 1.0], [1.0, -1.0, 1.0])


def test_free_seed_is_the_one_row_of_the_batch():
    k, ctilde = [0.8, 1.6, 2.2], [1.3, -0.9, 0.0]
    stack = T._free_seed_jets(k, ctilde, GRID, 3)
    for j, (kj, ct) in enumerate(zip(k, ctilde)):
        row = T.free_seed(kj, ct).evaluator(GRID, 3)
        for f in ("xs", "coeffs", "gauge", "sign"):
            assert np.array_equal(getattr(stack[j], f), getattr(row, f))
