"""The one rule for numeric arguments, ``errors.checked``.

A number is a Python or numpy int or float, never a bool, a string or an
array; a count is an integer and is never truncated.  Every library entry
point and every number option of the command line asks the same rule, so
a bad scalar raises ``ValueError`` naming its argument before any
simulation or fit, and numpy scalars give the results Python scalars do.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from jdsmooth.bandwidth import (
    asymptotic_h_opt,
    block_cv,
    rule_of_thumb,
)
from jdsmooth.cli import _num
from jdsmooth.errors import ConfigError, is_number
from jdsmooth.inference import (
    BandCompanions,
    asymptotic_moments,
    confidence_band,
    identify_jump_components,
)
from jdsmooth.kernels import (
    KernelFamily,
    KernelPlan,
    KernelSpec,
    PointRegime,
    RegimeKind,
    classify_point,
)
from jdsmooth.locallinear import CurveEstimate, Target
from jdsmooth.mc import BandwidthSetting, McConfig
from jdsmooth.proxy import ProxySeries, build_proxy
from jdsmooth.simulate import (
    baseline_model,
    replicate_seed,
    simulate_path,
    true_moments,
)

MODEL = baseline_model()
XS = np.array([0.05, 0.1])


def _proxy():
    path = simulate_path(MODEL, 5.0, 200, 1)
    return build_proxy(path.y, path.delta)


def _plan():
    return KernelPlan(KernelFamily.GAMMA, np.linspace(0.0, 0.3, 7))


def _mc(**overrides):
    base = dict(model=MODEL, T=10.0, n=300, replicates=2, eval_points=(0.1,))
    return McConfig(**{**base, **overrides})


@pytest.mark.parametrize("call, name", [
    # bools: True is an int to isinstance and used to pass as 1
    pytest.param(lambda: _plan().weights(True, XS), "bandwidth h", id="weights_bool"),
    pytest.param(lambda: classify_point(True, 0.01), "evaluation point x",
                 id="classify_bool"),
    pytest.param(lambda: rule_of_thumb(_proxy(), True, 5.0), "scale constant c",
                 id="rule_of_thumb_bool"),
    pytest.param(lambda: simulate_path(MODEL, True, 10, 0), "horizon T",
                 id="simulate_bool"),
    pytest.param(lambda: build_proxy(np.arange(5.0), True), "delta", id="proxy_bool"),
    pytest.param(lambda: true_moments(MODEL, 0.1, True), "horizon T",
                 id="true_moments_bool"),
    pytest.param(lambda: identify_jump_components(True, 1.0, 1.0), "m2",
                 id="jump_components_bool"),
    # numeric strings used to be converted by float()
    pytest.param(lambda: _plan().weights("0.05", XS), "bandwidth h",
                 id="weights_string"),
    pytest.param(lambda: ProxySeries("0.01", np.arange(5.0)), "delta",
                 id="proxy_series_string"),
    pytest.param(lambda: classify_point(0.1, 0.01, "20"), "tau", id="classify_string"),
    # fractional counts used to be truncated, or to fail mid-run
    pytest.param(lambda: simulate_path(MODEL, 1.0, 2.5, 0), "n", id="simulate_n"),
    pytest.param(lambda: simulate_path(MODEL, 1.0, 10, 2.5), "seed", id="simulate_seed"),
    # numpy's own refusal named no argument
    pytest.param(lambda: simulate_path(MODEL, 1.0, 10, -1), "seed",
                 id="simulate_negative_seed"),
    pytest.param(lambda: replicate_seed(-1, 0), "base_seed", id="replicate_seed"),
    pytest.param(lambda: block_cv(_proxy(), h_grid=[0.05], k=2.7), "block half-width k",
                 id="block_cv_k"),
    pytest.param(lambda: _mc(n=50.5), "n", id="mc_n"),
    pytest.param(lambda: _mc(replicates=2.5), "replicates", id="mc_replicates"),
    pytest.param(lambda: _mc(mse_grid_size=5.5), "mse_grid_size", id="mc_grid_size"),
    # used to fail only inside the first replicate
    pytest.param(lambda: _mc(T=math.inf), "T", id="mc_T_inf"),
    # a bool kappa used to be stored as given
    pytest.param(lambda: PointRegime(RegimeKind.BOUNDARY, kappa=True), "kappa",
                 id="regime_kappa_bool"),
    pytest.param(lambda: PointRegime(RegimeKind.BOUNDARY, kappa=-1.0), "kappa",
                 id="regime_kappa_negative"),
])
def test_bad_scalar_raises_naming_its_argument(call, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call()


def _band(f, i):
    curve = CurveEstimate(
        grid=np.array([0.3, 0.4]),
        values=np.array([1.0, 2.0]),
        slopes=np.zeros(2),
        kernel=KernelSpec(KernelFamily.GAMMA, f(0.0625)),
        target=Target.DRIFT,
    )
    comp = BandCompanions(np.full(2, 0.125), np.full(2, 2.0), np.full(2, 3.0))
    return confidence_band(curve, comp, 0.05, n=i(1000), delta=f(0.25), tau=f(4.0))


# each call takes (float type, int type); the values are exact in float32
CALLS = {
    "kernel_spec": lambda f, i: KernelSpec(KernelFamily.GAMMA, f(0.5)),
    "weights": lambda f, i: _plan().weights(f(0.125), XS),
    "classify_point": lambda f, i: classify_point(f(0.5), f(0.25), f(20.0)),
    "proxy_series": lambda f, i: ProxySeries(f(0.25), np.arange(5.0)),
    "model_spec": lambda f, i: dataclasses.replace(MODEL, jump_total=f(20.0)),
    "simulate_path": lambda f, i: simulate_path(MODEL, f(1.0), i(10), i(3)),
    "thin": lambda f, i: simulate_path(MODEL, 1.0, 10, 3).thin(i(5)),
    "true_moments": lambda f, i: true_moments(MODEL, 0.1, f(10.0)),
    "rule_of_thumb": lambda f, i: rule_of_thumb(_proxy(), f(2.0), f(5.0)),
    "block_cv": lambda f, i: block_cv(_proxy(), h_grid=[0.25], k=i(2)),
    "asymptotic_moments": lambda f, i: asymptotic_moments(
        f(0.5), f(0.0625), i(1000), f(0.25), Target.DRIFT, f(3.0), f(0.125), f(2.0),
        PointRegime(RegimeKind.INTERIOR),
    ),
    "asymptotic_h_opt": lambda f, i: asymptotic_h_opt(
        f(0.5), i(1000), f(0.25), f(0.125), f(2.0), f(3.0),
        PointRegime(RegimeKind.INTERIOR), Target.DRIFT,
    ),
    "confidence_band": _band,
    "jump_components": lambda f, i: identify_jump_components(f(0.5), f(0.25), f(0.125)),
    "point_regime": lambda f, i: PointRegime(RegimeKind.BOUNDARY, f(0.5)),
    "bandwidth_setting": lambda f, i: BandwidthSetting(fixed=f(0.25)).label,
    "mc_config": lambda f, i: _mc(
        T=f(10.0), n=i(300), replicates=i(2), base_seed=i(1), tau=f(20.0),
        workers=i(1), mse_grid_size=i(5),
    ).to_dict(),
}


def _fields(result):
    """A result as plain data, so two results compare field by field."""
    if dataclasses.is_dataclass(result):
        return {f.name: _fields(getattr(result, f.name))
                for f in dataclasses.fields(result)}
    if isinstance(result, tuple):
        return [_fields(v) for v in result]
    return result


@pytest.mark.parametrize("name", CALLS)
def test_numpy_scalars_give_the_python_scalar_result(name):
    call = CALLS[name]
    np.testing.assert_equal(
        _fields(call(np.float32, np.int64)), _fields(call(float, int))
    )


def test_boundary_kappa_is_stored_as_a_float():
    assert type(PointRegime(RegimeKind.BOUNDARY, np.float32(0.5)).kappa) is float
    assert type(PointRegime(RegimeKind.BOUNDARY, 2).kappa) is float


@pytest.mark.parametrize("value, integer, real", [
    (3, True, True),
    (2.5, False, True),
    (np.int64(3), True, True),
    (np.float32(2.5), False, True),
    (np.float64(3.0), False, True),
    (True, False, False),
    (False, False, False),
    ("3", False, False),
    (None, False, False),
    ([3], False, False),
    (np.array([3.0]), False, False),
])
def test_is_number_and_the_cli_number_parser_agree(value, integer, real):
    assert is_number(value, integer=True) is integer
    assert is_number(value) is real
    for cast, number in ((int, integer), (float, real)):
        opt = _num("k", 0, cast)
        if number:
            assert opt.value(value) == value
        else:
            kind = "an integer" if cast is int else "a number"
            with pytest.raises(ConfigError, match=f"^k \\(--k\\) must be {kind}, got"):
                opt.value(value)
