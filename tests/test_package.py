"""The package namespace re-exports the submodules' public names, and every
integer argument, and every real argument read outside a config type, follows
one rule."""

import dataclasses

import numpy as np
import pytest

import stochtaylor
from stochtaylor import (
    ComponentParams,
    Dataset,
    DomainError,
    Envelope,
    FitConfig,
    GeneralIntensity,
    GridSpec,
    PointPattern,
    RngStream,
    choose_origin,
    default_spec,
    envelope,
    fit_fixed_m,
    get_test_function,
    make_dataset,
    mc_mean,
    mc_values,
    objective_value,
    select_model,
    sigma2_mle,
)


def test_every_exported_name_resolves():
    assert len(stochtaylor.__all__) == len(set(stochtaylor.__all__))
    missing = [name for name in stochtaylor.__all__ if not hasattr(stochtaylor, name)]
    assert missing == []


COMP_3D = ComponentParams(1.0, 0.0, (1.0,) * 3, (0.0,) * 3, (0.0,) * 3)
COMP_1D = ComponentParams(1.0, 0.1, (1.0,), (0.1,), (0.0,))
INTENSITY_1D = GeneralIntensity(2.0, (1.0,), (COMP_1D,), 1, (0.0,))
DATA_1D = Dataset(np.linspace(1.0, 2.0, 20)[:, None], np.linspace(1.0, 3.0, 20))
TINY_FIT = FitConfig(n_starts=1, max_iters=2)
IDENTITY = get_test_function("identity")


def spec_field(name, value):
    return getattr(dataclasses.replace(default_spec("identity"), **{name: value}), name)


def order_count(m_max):
    sel = select_model(DATA_1D, m_max, TINY_FIT, (0.0,))
    return len(sel.per_m) + len(sel.failures) + len(sel.skipped)


# Each site maps an integer argument to what the call stores or returns for it.
INTEGER_SITES = {
    "GeneralIntensity.d": lambda v: GeneralIntensity(1.0, (1.0,), (COMP_3D,), v, (0.0,) * 3).d,
    "PointPattern.d": lambda v: PointPattern(np.zeros((0, 4)), v).d,
    "Envelope.n_real": lambda v: Envelope(np.ones((1, 1)), [0.0], [0.0], [0.0], 0.1, v).n_real,
    "mc_values.n_real": lambda v: mc_values(INTENSITY_1D, [[1.5]], v, RngStream(0)).shape[0],
    "mc_mean.n_real": lambda v: mc_mean(INTENSITY_1D, (1.5,), v, RngStream(0)),
    "GridSpec.points_per_dim": lambda v: GridSpec((0.0,), (1.0,), v).points_per_dim,
    "FitConfig.n_starts": lambda v: FitConfig(n_starts=v).n_starts,
    "FitConfig.max_iters": lambda v: FitConfig(max_iters=v).max_iters,
    "sigma2_mle.K": lambda v: sigma2_mle(6.0, v),
    "objective_value.M": lambda v: objective_value(np.zeros(15), v, DATA_1D, (0.0,)),
    "fit_fixed_m.M": lambda v: fit_fixed_m(DATA_1D, v, TINY_FIT, (0.0,)).model.m,
    "select_model.M_max": order_count,
    "ExperimentSpec.K": lambda v: spec_field("K", v),
    "ExperimentSpec.m_max": lambda v: spec_field("m_max", v),
    "ExperimentSpec.n_seeds": lambda v: spec_field("n_seeds", v),
    "make_dataset.K": lambda v: make_dataset(IDENTITY, v, 0.0, RngStream(0)).K,
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_arguments_share_one_rule(site):
    call = INTEGER_SITES[site]
    for refused in (True, 2.5):
        with pytest.raises(DomainError):
            call(refused)
    want = call(3)
    for accepted in (np.int64(3), 3.0):
        got = call(accepted)
        assert got == want and type(got) is type(want)


# Each site maps a real argument to what the call stores or returns for it.
REAL_SITES = {
    "choose_origin.delta_frac": lambda v: float(choose_origin([[1.0], [2.0]], v)[0]),
    "sigma2_mle.rss": lambda v: sigma2_mle(v, 2),
    "envelope.alpha": lambda v: envelope(INTENSITY_1D, [[1.5]], 4, v, RngStream(0)).alpha,
    "Envelope.alpha": lambda v: Envelope(np.ones((1, 1)), [0.0], [0.0], [0.0], v, 1).alpha,
}


@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_real_arguments_share_one_rule(site):
    call = REAL_SITES[site]
    for refused in (True, np.bool_(True), np.inf, np.nan, None, "x"):
        with pytest.raises(DomainError):
            call(refused)
    want = call(0.5)
    for accepted in (np.float64(0.5), "0.5"):
        got = call(accepted)
        assert got == want and type(got) is type(want)
