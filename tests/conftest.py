"""Fixtures shared by the test modules."""

import pytest

from solitonlab import identities as I, solitons as S, transforms as T


@pytest.fixture
def grid_tau_calls(monkeypatch):
    """Records every call of the grid tau core, wherever it is reached."""
    calls = []
    real = S.tau_jet_sum_grid

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (I, S, T):
        monkeypatch.setattr(module, "tau_jet_sum_grid", counted)
    return calls
