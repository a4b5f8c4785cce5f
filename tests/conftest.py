"""Fixtures shared by the test modules."""

import importlib
import pkgutil

import pytest

import solitonlab
from solitonlab import solitons as S


@pytest.fixture
def grid_tau_calls(monkeypatch):
    """Records the (rules, orders) of every call of the jet-sum core,
    tau_jet_sums, wherever it is reached: it is patched in every module of
    the package that binds the name, so a module that starts calling the
    core is counted too. It is the one jet-sum entry point: the one-point
    tau_jet_sum, eigenfunctions and every engine reach it."""
    calls = []
    real = S.tau_jet_sums

    def counted(cfg, rules, xs, orders):
        calls.append((list(rules), list(orders)))
        return real(cfg, rules, xs, orders)

    for info in pkgutil.iter_modules(solitonlab.__path__):
        module = importlib.import_module(f"solitonlab.{info.name}")
        if getattr(module, "tau_jet_sums", None) is real:
            monkeypatch.setattr(module, "tau_jet_sums", counted)
    return calls
