"""Every graded argument is refused with a SuperbandError that names it.

Each entry point that takes a Grassmann element at a graded position checks
it in one order: a GrassmannElement (else ConfigError), of the expected
algebra (else ContextError), of the expected parity (else ParityError).
The table below gives each site a non-element, an element of another
algebra and an element of the wrong parity.
"""

import pytest

from superband.algebra import annihilator_odd, create_algebra
from superband.errors import ConfigError, ContextError, ParityError
from superband.evolution import commutativity_obstruction, orbit
from superband.families import (
    intertwiner_check,
    make_family,
    nilpotent_time_commute_check,
)
from superband.gamma import GammaSet
from superband.poly import GrassmannPoly
from superband.supermatrix import SuperVector, det_even

CTX = create_algebra(3)
OTHER = create_algebra(4)
ODD = CTX.gen(1)
EVEN = CTX.monomial((1, 2))
P = make_family("P", ODD)
T = make_family("T", ODD)
X0 = SuperVector([CTX.one()], [CTX.gen(2)])


def _contains(x):
    return annihilator_odd([ODD]).contains(x)


def _intertwiner(slot):
    return lambda x: intertwiner_check(
        **{"sigma": ODD, "rho": ODD, "u": EVEN, "v": EVEN, "alpha": ODD, slot: x}
    )


#: (id, call taking the argument, name in the message, wanted parity,
#:  whether the site knows its algebra before it reads the argument)
SITES = [
    ("annihilator_odd", lambda x: annihilator_odd([x], CTX), "generator", "odd", True),
    ("contains", _contains, "member", "odd", True),
    ("gamma_span", lambda x: GammaSet([x], ctx=CTX), "span vector", "odd", True),
    ("gamma_stabilizer", lambda x: GammaSet([ODD], stabilizing_evens=[x]),
     "stabilizer", "even", True),
    ("make_family", lambda x: make_family("P", x), "alpha", "odd", False),
    ("time", lambda x: nilpotent_time_commute_check(P, T, x, ODD), "tau", "even", True),
    ("sigma", _intertwiner("sigma"), "sigma", "odd", True),
    ("rho", _intertwiner("rho"), "rho", "odd", True),
    ("u", _intertwiner("u"), "u", "even", True),
    ("v", _intertwiner("v"), "v", "even", True),
    ("obstruction", lambda x: commutativity_obstruction(X0, x), "alpha", "odd", True),
    ("eval_at", lambda x: GrassmannPoly.variable(CTX, "t").eval_at({"t": x}),
     "parameter t", "even", True),
    ("matrix_eval_at", lambda x: P.eval_at({"t": x}), "parameter t", "even", True),
    ("det_even", lambda x: det_even([[CTX.one(), CTX.zero()], [CTX.zero(), x]]),
     "determinant entr", "even", True),
]

#: sites that convert a rational argument to a scalar, so 3 is no refusal
_CONVERTING = {"time", "eval_at", "matrix_eval_at"}


def _cases():
    for site, call, name, parity, has_ctx in SITES:
        bad = [("none", None, ConfigError), ("text", "xi1", ConfigError)]
        if site not in _CONVERTING:
            bad.append(("int", 3, ConfigError))
        if has_ctx:
            wrong = OTHER.gen(1) if parity == "odd" else OTHER.monomial((1, 2))
            bad.append(("other_algebra", wrong, ContextError))
        bad.append(("wrong_parity", EVEN if parity == "odd" else ODD, ParityError))
        for label, arg, error in bad:
            yield pytest.param(call, arg, error, name, id=f"{site}-{label}")


@pytest.mark.parametrize("call, arg, error, name", list(_cases()))
def test_graded_argument_is_refused_by_name(call, arg, error, name):
    with pytest.raises(error) as info:
        call(arg)
    assert name in str(info.value)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: intertwiner_check(3, ODD, EVEN, EVEN, ODD), id="intertwiner"),
        pytest.param(lambda: commutativity_obstruction(X0, 5), id="obstruction"),
        pytest.param(lambda: GammaSet([ODD], stabilizing_evens=[2]), id="stabilizer"),
        pytest.param(lambda: det_even([[3]]), id="det_even"),
        pytest.param(lambda: orbit(P, None), id="orbit"),
        pytest.param(lambda: GammaSet([3]), id="span_without_ctx"),
    ],
)
def test_non_element_is_a_config_error(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize(
    "call",
    [lambda: orbit(P, X0.odd), lambda: commutativity_obstruction(X0.odd, ODD)],
    ids=["orbit", "obstruction"],
)
def test_x0_must_be_a_supervector(call):
    with pytest.raises(ConfigError, match="^x0 must be a SuperVector, got tuple$"):
        call()
