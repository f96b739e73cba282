"""The package namespace re-exports the submodules' public names, importing
the package loads no scipy, and every integer argument, every real argument
read outside a config type, every point matrix, every coordinate vector and
every value array follows one rule."""

import dataclasses
import os
import subprocess
import sys

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
    SteModel,
    default_spec,
    envelope,
    fit_fixed_m,
    get_test_function,
    integrated_sq_distance,
    make_dataset,
    mc_mean,
    mc_values,
    objective_value,
    predict_grid,
    predict_original_units,
    select_model,
    shift_window_above,
    sigma2_mle,
    ste_realization,
)


def test_every_exported_name_resolves():
    assert len(stochtaylor.__all__) == len(set(stochtaylor.__all__))
    missing = [name for name in stochtaylor.__all__ if not hasattr(stochtaylor, name)]
    assert missing == []


def test_import_loads_no_scipy():
    # A fresh interpreter: other tests in this process may import scipy.
    src = os.path.dirname(os.path.dirname(os.path.abspath(stochtaylor.__file__)))
    code = (
        "import sys; import stochtaylor, stochtaylor.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


COMP_3D = ComponentParams(1.0, 0.0, (1.0,) * 3, (0.0,) * 3, (0.0,) * 3)
COMP_1D = ComponentParams(1.0, 0.1, (1.0,), (0.1,), (0.0,))
INTENSITY_1D = GeneralIntensity(2.0, (1.0,), (COMP_1D,), 1, (0.0,))
DATA_1D = Dataset(np.linspace(1.0, 2.0, 20)[:, None], np.linspace(1.0, 3.0, 20))
TINY_FIT = FitConfig(n_starts=1, max_iters=2)
IDENTITY = get_test_function("identity")
MODEL_1D = SteModel(components=(COMP_1D,), d=1, x0=(0.0,), rescale=(2.0, 3.0))


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


# Each site maps an array-like of d = 1 points to what the call stores or
# returns for them. Sites marked any-width take matrices of any width.
POINT_SITES = {
    "predict_grid": lambda p: predict_grid(MODEL_1D, p),
    "predict_original_units": lambda p: predict_original_units(MODEL_1D, p),
    "Dataset.X": lambda p: Dataset(p, [1.0, 2.0]).X,
    "choose_origin.X": choose_origin,
    "TestFunction.__call__": lambda p: IDENTITY(p),
    "Envelope.grid": lambda p: Envelope(p, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 0.1, 1).grid,
    "envelope.grid": lambda p: envelope(INTENSITY_1D, p, 4, 0.5, RngStream(0)).mean,
    "mc_values.grid": lambda p: mc_values(INTENSITY_1D, p, 4, RngStream(0)),
}
ANY_WIDTH = {"Dataset.X", "choose_origin.X", "Envelope.grid"}


@pytest.mark.parametrize("site", sorted(POINT_SITES))
def test_point_matrices_share_one_rule(site):
    call = POINT_SITES[site]
    refused = [[["x"]], np.full((2, 1, 1), 1.5)]
    if site not in ANY_WIDTH:
        refused.append(np.full((2, 2), 1.5))
    for points in refused:
        with pytest.raises(DomainError):
            call(points)
    want = call([[1.5], [2.5]])
    for accepted in (np.array([[1.5], [2.5]]), [1.5, 2.5]):
        assert np.array_equal(call(accepted), want)


# Each site maps a d = 1 coordinate vector to what the call stores or returns
# for it, next to a vector that the site accepts.
VECTOR_SITES = {
    "GeneralIntensity.x0": (
        lambda v: GeneralIntensity(2.0, (1.0,), (COMP_1D,), 1, v).x0, (0.0,)
    ),
    "objective_value.x0": (lambda v: objective_value(np.zeros(5), 1, DATA_1D, v), (0.0,)),
    "ExperimentSpec.fit_lower": (lambda v: spec_field("fit_lower", v), (0.0,)),
    "ExperimentSpec.fit_upper": (lambda v: spec_field("fit_upper", v), (5.0,)),
    "ExperimentSpec.eval_lower": (lambda v: spec_field("eval_lower", v), (0.0,)),
    "ExperimentSpec.eval_upper": (lambda v: spec_field("eval_upper", v), (7.0,)),
    "ExperimentSpec.x0": (lambda v: spec_field("x0", v), (0.0,)),
    "shift_window_above.x0": (
        lambda v: shift_window_above(GridSpec((0.0,), (1.0,), 3), v).lower, (0.0,)
    ),
    "ste_realization.x0": (
        lambda v: ste_realization(PointPattern([[2.0, 1.0]], 1), (3.0,), v), (0.0,)
    ),
}


@pytest.mark.parametrize("site", sorted(VECTOR_SITES))
def test_coordinate_vectors_share_one_rule(site):
    call, good = VECTOR_SITES[site]
    for refused in ([True], ["x"], 0.0, "0", (*good, *good)):
        with pytest.raises(DomainError):
            call(refused)
    assert call(np.array(good)) == call(list(good))


# Each site passes a value array to a call that reads it.
VALUE_SITES = {
    "Dataset.y": lambda v: Dataset([[1.0], [2.0]], v),
    "Envelope.lower": lambda v: Envelope([[1.0], [2.0]], v, [1.0, 1.0], [0.0, 0.0], 0.1, 1),
    "Envelope.upper": lambda v: Envelope([[1.0], [2.0]], [0.0, 0.0], v, [0.0, 0.0], 0.1, 1),
    "Envelope.mean": lambda v: Envelope([[1.0], [2.0]], [0.0, 0.0], [0.0, 0.0], v, 0.1, 1),
    "PointPattern.events": lambda v: PointPattern([v], 1),
    "integrated_sq_distance.f_hat": lambda v: integrated_sq_distance(
        v, [0.0, 0.0], GridSpec((0.0,), (1.0,), 2)
    ),
}


@pytest.mark.parametrize("site", sorted(VALUE_SITES))
def test_value_arrays_refuse_non_numeric_entries(site):
    with pytest.raises(DomainError):
        VALUE_SITES[site](["x", 1.0])
    VALUE_SITES[site]([0.5, 1.0])
