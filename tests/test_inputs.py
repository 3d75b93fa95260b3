"""Every public numeric entry point refuses a boolean, text, a non-finite
value and, where it takes real numbers, a complex one, with a ValueError:
numpy would take True as 1, parse "1" as 1.0 and drop an imaginary part.
`volkov_phi` and `reconstruct_psi_x` have their own tables in
test_propagator.py and test_volterra.py."""

import math

import numpy as np
import pytest

from deltawell.approx import (
    DecayAnsatz,
    YArgs,
    decay_closed_pair,
    decay_closed_psi0,
    first_scheme_psi0,
    y_integral,
)
from deltawell.params import default_units, derive_params
from deltawell.propagator import bound_state
from deltawell.scenario import ScenarioConfig
from deltawell.specfun import (
    airy_ai,
    airy_ai_prime,
    cerfc,
    hyp1f1_one,
    hyp1f1_one_family,
    moshinsky,
)
from deltawell.volterra import ComplexSeries, TimeGrid, abel_weights

_P = default_units(0.5)
_ANSATZ = DecayAnsatz.from_wkb(_P)


def _series(v):
    # a two-node series with v as its second sample, or v as the samples
    return ComplexSeries(TimeGrid(1.0, 1), [1.0, v] if np.ndim(v) == 0 else v, _P)


# (name, call with the bad value in one argument, whether that argument is real)
ENTRY_POINTS = [
    ("cerfc", cerfc, False),
    ("airy_ai", airy_ai, True),
    ("airy_ai_prime", airy_ai_prime, True),
    ("hyp1f1_one(b)", lambda v: hyp1f1_one(v, 1.0), True),
    ("hyp1f1_one(z)", lambda v: hyp1f1_one(7.0 / 6.0, v), False),
    ("hyp1f1_one_family(b0)", lambda v: hyp1f1_one_family(v, 2, 1.0), True),
    ("hyp1f1_one_family(z)", lambda v: hyp1f1_one_family(7.0 / 6.0, 2, v), False),
    ("moshinsky(x)", lambda v: moshinsky(v, 1j, 1.0), True),
    ("moshinsky(k)", lambda v: moshinsky(1.0, v, 1.0), False),
    ("moshinsky(t)", lambda v: moshinsky(1.0, 1j, v), True),
    ("bound_state", lambda v: bound_state(v, _P), True),
    ("first_scheme_psi0", lambda v: first_scheme_psi0(_P, v), True),
    ("decay_closed_psi0", lambda v: decay_closed_psi0(_P, v, _ANSATZ), True),
    ("decay_closed_pair", lambda v: decay_closed_pair(_P, v, _ANSATZ), True),
    ("y_integral(xi1)", lambda v: y_integral(YArgs(v, 0j)), False),
    ("y_integral(xi2)", lambda v: y_integral(YArgs(0j, v)), False),
    ("DecayAnsatz(E_f)", lambda v: DecayAnsatz(E_f=v, gamma=0.1, delta=0.0), True),
    ("DecayAnsatz(gamma)", lambda v: DecayAnsatz(E_f=-0.5, gamma=v, delta=0.0), True),
    ("DecayAnsatz(delta)", lambda v: DecayAnsatz(E_f=-0.5, gamma=0.1, delta=v), True),
    ("DecayAnsatz(c)", lambda v: DecayAnsatz(E_f=-0.5, gamma=0.1, delta=0.0, c=v), True),
    ("ComplexSeries(values)", _series, False),
    ("abel_weights(h)", lambda v: abel_weights(2, v), True),
    ("TimeGrid(t_max)", lambda v: TimeGrid(v, 10), True),
    *((f"derive_params({name})", lambda v, k=k: derive_params(*[1.0, 1.0, 1.0, 0.5][:k], v,
                                                              *[1.0, 1.0, 1.0, 0.5][k + 1:]), True)
      for k, name in enumerate(("hbar", "mass", "v0", "field"))),
    *((f"ScenarioConfig({name})", lambda v, name=name: ScenarioConfig(**{name: v}).validate(), True)
      for name in ("f", "hbar", "mass", "v0", "t_max", "c")),
    ("ScenarioConfig(gamma)", lambda v: ScenarioConfig(ansatz_source="explicit", gamma=v, delta=0.0).validate(),
     True),
    ("ScenarioConfig(delta)", lambda v: ScenarioConfig(ansatz_source="explicit", gamma=0.1, delta=v).validate(),
     True),
]

BAD = [True, np.True_, "1", [0.5, "1"], math.nan, math.inf, -math.inf]
CASES = [
    pytest.param(call, bad, id=f"{name}-{bad!r}")
    for name, call, real in ENTRY_POINTS
    for bad in BAD + [1.0 + 1.0j] * real
]


@pytest.mark.parametrize("call, bad", CASES)
def test_entry_point_refuses_a_bad_argument(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("name, call, real", ENTRY_POINTS, ids=[e[0] for e in ENTRY_POINTS])
def test_entry_point_takes_a_good_argument(name, call, real):
    # the table's calls are valid with a good value, so each refusal above
    # is the bad value's
    call(7.0 / 6.0 if "(b" in name else 0.5)


@pytest.mark.parametrize("n", [True, "2", 2.0, 0])
def test_abel_weights_refuse_a_count_that_is_not_a_positive_integer(n):
    with pytest.raises(ValueError, match="integer|at least one panel"):
        abel_weights(n, 0.1)


@pytest.mark.parametrize("bad", [[1.0], np.ones(2)])
def test_scenario_config_takes_one_number_per_field(bad):
    # a JSON list for a scalar field
    with pytest.raises(ValueError, match="t_max must be one number"):
        ScenarioConfig(t_max=bad, n_steps=20).validate()


def test_a_python_int_beyond_the_double_range_is_not_finite():
    with pytest.raises(ValueError, match="t_max must be finite"):
        TimeGrid(10**400, 10)
