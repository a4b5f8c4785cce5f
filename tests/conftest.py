"""Fixtures shared by the test modules."""

import pytest

from solitonlab import identities as I, solitons as S


@pytest.fixture
def grid_tau_calls(monkeypatch):
    """Records the (rules, orders) of every call of the jet-sum core,
    tau_jet_sums, wherever it is reached: tau_jet_sum_grid is its one-rule
    call."""
    calls = []
    real = S.tau_jet_sums

    def counted(cfg, rules, xs, orders):
        calls.append((list(rules), list(orders)))
        return real(cfg, rules, xs, orders)

    for module in (I, S):
        monkeypatch.setattr(module, "tau_jet_sums", counted)
    return calls
