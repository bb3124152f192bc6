"""Every graded, container, parameter-name, integer and value argument is
refused with a SuperbandError that names it.

Each entry point that takes a Grassmann element at a graded position checks
it in one order: a GrassmannElement (else ConfigError), of the expected
algebra (else ContextError), of the expected parity (else ParityError).
The first table gives each site a non-element, an element of another
algebra and an element of the wrong parity; the tables after it do the same
for matrices, vectors, families, component lists, parameter names,
collections, integers and the remaining value arguments.
"""

import json
import random

import pytest

from superband.algebra import AnnihilatorBasis, GrassmannElement, annihilator_odd, create_algebra
from superband.analysis import (
    ComponentList,
    band_component_system_check,
    components_of,
    derivative_tail,
    equivalence_report,
    n_differential_defect,
    n_functional_residual,
    random_band_components,
)
from superband.config import SuiteConfig
from superband.errors import ConfigError, ContextError, ParityError, ParseError, ShapeError
from superband.evolution import (
    cauchy_defect,
    commutativity_obstruction,
    laplace,
    moving_time_check,
    orbit,
    resolvent_defect,
    resolvent_tail,
)
from superband.families import (
    ParamSuperMatrix,
    ParamSuperVector,
    commutator,
    differential_sequence,
    functional_residual,
    generator_of,
    in_var,
    intertwiner_check,
    make_family,
    matrix_exp_nilpotent,
    nilpotent_time_commute_check,
    rectangular_band_element,
    smoothing,
)
from superband.gamma import (
    GammaSet,
    antitriangle_product_blocks,
    band_pair_check,
    chain_product_verify,
    closure_check,
    gamma_membership,
    idempotent_strong_check,
    random_strong_family,
    strong_gamma_check,
)
from superband.poly import GrassmannPoly, LaurentScalar
from superband.randgen import random_supervector
from superband.serialize import dump_element, dumps, loads
from superband.suites import run_suite
from superband.supermatrix import (
    SuperMatrix,
    SuperVector,
    ber_parts,
    berezinian,
    classify_reduction,
    det_even,
    even_inverse,
    supertrace,
)

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


# -- containers and parameter names ---------------------------------------
#
# Each entry point that takes a graded matrix, vector, family or component
# list checks it by one rule: no graded container at all is a ConfigError,
# one of another class (another entry ring) a ShapeError, one of another
# shape or block sizes a ShapeError and one of another algebra a
# ContextError.  A parameter name outside the kind's variables is a
# ConfigError.  Every message names the argument.

M = P.eval_at({"t": 0})  # [[0, 0], [xi1, 1]], antitriangle
M12 = SuperMatrix.zero(CTX, 1, 2)
M_OTHER = SuperMatrix.zero(OTHER, 1, 1)
P12 = ParamSuperMatrix.zero(CTX, 1, 2)
P_OTHER = make_family("P", OTHER.gen(1))
X0_21 = SuperVector([CTX.one(), CTX.one()], [CTX.gen(2)])
X0_OTHER = SuperVector([OTHER.one()], [OTHER.gen(2)])
PX0 = ParamSuperVector([GrassmannPoly.constant(CTX.one())], [GrassmannPoly.constant(CTX.gen(2))])
SPAN = GammaSet([ODD])

#: (id, call taking the argument, name in the message, a container of another
#:  ring, one of another shape or None, one of another algebra or None)
CONTAINER_SITES = [
    ("berezinian", berezinian, "matrix", P, None, None),
    ("supertrace", supertrace, "matrix", P, None, None),
    ("ber_parts", ber_parts, "matrix", P, M12, None),
    ("classify_reduction", classify_reduction, "matrix", P, None, None),
    ("idempotent_strong_check", idempotent_strong_check, "matrix", P, None, None),
    ("matrix_exp_nilpotent", matrix_exp_nilpotent, "matrix", P, None, None),
    ("resolvent_tail", resolvent_tail, "family", M, None, None),
    ("resolvent_defect", resolvent_defect, "resolvent", P, None, None),
    ("generator_of", generator_of, "family", M, None, None),
    ("smoothing", smoothing, "family", M, None, None),
    ("functional_residual", functional_residual, "family", M, None, None),
    ("laplace", laplace, "family", M, None, None),
    ("moving_time_check", moving_time_check, "family", M, None, None),
    ("components_of", components_of, "family", M, None, None),
    ("equivalence_report", equivalence_report, "family", M, None, None),
    ("closure_check", closure_check, "family", M, None, None),
    ("orbit_family", lambda x: orbit(x, X0), "family", M, P12, None),
    ("cauchy_defect", lambda x: cauchy_defect(x, X0), "family", M, P12, None),
    ("orbit_x0", lambda x: orbit(P, x), "x0", PX0, None, None),
    ("obstruction_x0", lambda x: commutativity_obstruction(x, ODD), "x0", PX0, X0_21, None),
    ("time_f", lambda x: nilpotent_time_commute_check(x, T, 0, ODD), "f", M, None, None),
    ("time_g", lambda x: nilpotent_time_commute_check(P, x, 0, ODD), "g", M, P12, P_OTHER),
    ("component_list", lambda x: ComponentList([M, x]), "component K1", P, M12, M_OTHER),
    ("strong_gamma_check", lambda x: strong_gamma_check([M, x]), "family member 1",
     P, M12, M_OTHER),
    ("chain", lambda x: chain_product_verify([M, x]), "matrix 1 of a chain",
     P, M12, M_OTHER),
    ("membership", lambda x: gamma_membership(x, SPAN), "matrix", P, M12, M_OTHER),
    ("blocks_left", lambda x: antitriangle_product_blocks(x, M), "left factor",
     P, None, None),
    ("blocks_right", lambda x: antitriangle_product_blocks(M, x), "right factor",
     P, M12, M_OTHER),
    ("add", lambda x: M + x, "right operand", P, M12, M_OTHER),
    ("sub", lambda x: M - x, "right operand", P, M12, M_OTHER),
    ("matmul", lambda x: M @ x, "right operand", P, M12, M_OTHER),
    ("vector_sub", lambda x: X0 - x, "right operand", PX0, X0_21, X0_OTHER),
    ("apply", M.apply, "vector", PX0, X0_21, X0_OTHER),
    ("band_pair_left", lambda x: band_pair_check(x, M), "left operand", P, None, None),
    ("commutator_f", lambda x: commutator(x, P), "f", M, None, None),
    ("commutator_g", lambda x: commutator(P, x), "g", M, P12, P_OTHER),
    ("in_var", lambda x: in_var(x, "s"), "family", M, None, None),
]


def _container_cases():
    for site, call, name, ring, shape, algebra in CONTAINER_SITES:
        bad = [("non_container", 5, ConfigError), ("other_ring", ring, ShapeError)]
        if shape is not None:
            bad.append(("other_shape", shape, ShapeError))
        if algebra is not None:
            bad.append(("other_algebra", algebra, ContextError))
        for label, arg, error in bad:
            yield pytest.param(call, arg, error, name, id=f"{site}-{label}")


@pytest.mark.parametrize("call, arg, error, name", list(_container_cases()))
def test_container_argument_is_refused_by_name(call, arg, error, name):
    with pytest.raises(error) as info:
        call(arg)
    assert name in str(info.value)


#: (id, call taking the collection, name in the message); a collection
#: argument that is not iterable is a ConfigError
COLLECTION_SITES = [
    ("strong_gamma_check", strong_gamma_check, "family"),
    ("chain", chain_product_verify, "chain"),
    ("component_list", ComponentList, "components"),
    ("n_functional_residual", n_functional_residual, "components"),
    ("band_component_system_check", band_component_system_check, "components"),
    ("n_differential_defect", n_differential_defect, "components"),
    ("derivative_tail", derivative_tail, "components"),
    ("gamma_span", GammaSet, "span"),
    ("gamma_stabilizers", lambda x: GammaSet([ODD], stabilizing_evens=x),
     "stabilizing_evens"),
    ("annihilator_odd", annihilator_odd, "annihilator generators"),
]


@pytest.mark.parametrize(
    "call, name", [pytest.param(c, n, id=i) for i, c, n in COLLECTION_SITES]
)
def test_non_iterable_collection_is_refused_by_name(call, name):
    with pytest.raises(ConfigError, match=f"^{name} must be a collection, got int$"):
        call(5)


XI1_T = GrassmannPoly.term(ODD, t=1)

#: (id, exponent of t given to ``XI1_T.coefficient``, start of the message):
#: ``coefficient`` refuses exactly the keys that ``term`` refuses
COEFFICIENT_KEYS = [
    ("float", 1.0, "exponent keys must be pairs of integers"),
    ("bool", True, "exponent keys must be pairs of integers"),
    ("text", "x", "exponent keys must be pairs of integers"),
    ("above_cap", 10, "exponents of GrassmannPoly must lie in 0..9"),
]

#: (id, call passing the int 5 where an AlgebraContext belongs)
NOT_A_CONTEXT = [
    ("element", lambda: GrassmannElement(5, {})),
    ("poly", lambda: GrassmannPoly(5, {})),
    ("poly_zero", lambda: GrassmannPoly.zero(5)),
    ("poly_variable", lambda: GrassmannPoly.variable(5, "t")),
    ("matrix_zero", lambda: SuperMatrix.zero(5, 1, 1)),
    ("matrix_identity", lambda: SuperMatrix.identity(5, 1, 1)),
    ("annihilator_odd", lambda: annihilator_odd([], ctx=5)),
    ("gamma_empty", lambda: GammaSet([], ctx=5)),
    ("gamma", lambda: GammaSet([ODD], ctx=5)),
    ("annihilator_basis", lambda: AnnihilatorBasis(5, [], [])),
    ("random_strong_family", lambda: random_strong_family(5, 5)),
    ("random_band_components", lambda: random_band_components(5, 5)),
]


@pytest.mark.parametrize(
    "call, error, name",
    [
        pytest.param(lambda: P.eval_at(5), ConfigError, "assignment", id="eval_at"),
        pytest.param(lambda: P.substitute("t", "x"), ConfigError, "replacement",
                     id="matrix_substitute"),
        pytest.param(lambda: P.rows[0][1].substitute("t", "x"), ConfigError,
                     "replacement", id="substitute"),
        pytest.param(lambda: rectangular_band_element(ODD, "x", 1), ConfigError, "top",
                     id="band_element_top"),
        pytest.param(lambda: rectangular_band_element(ODD, 1, "x"), ConfigError,
                     "bottom", id="band_element_bottom"),
        pytest.param(lambda: gamma_membership(M, 5), ConfigError, "span",
                     id="membership_span"),
        pytest.param(lambda: differential_sequence(ODD, True), ConfigError, "nmax",
                     id="sequence_bool"),
        pytest.param(lambda: SuperVector(5, 5), ConfigError, "even", id="vector_even"),
        pytest.param(lambda: SuperVector([CTX.one()], 5), ConfigError, "odd", id="vector_odd"),
        pytest.param(lambda: SuperMatrix(1, 1, 5), ConfigError, "rows", id="matrix_rows"),
        pytest.param(lambda: SuperMatrix(1, 1, [[CTX.one(), CTX.zero()], 5]), ConfigError,
                     "a row of rows", id="matrix_row"),
        pytest.param(lambda: det_even(5), ConfigError, "rows", id="det_even"),
        pytest.param(lambda: even_inverse(5), ConfigError, "rows", id="even_inverse"),
        pytest.param(lambda: SuperMatrix.from_blocks(5, 5, 5, 5), ConfigError, "block A",
                     id="from_blocks"),
        pytest.param(lambda: SuperMatrix.from_blocks([[CTX.one()]], 5, [[ODD]], [[CTX.one()]]),
                     ConfigError, "block Gamma", id="from_blocks_gamma"),
        pytest.param(lambda: SuperMatrix.from_blocks([[CTX.one()]], [[ODD]], 5, [[CTX.one()]]),
                     ConfigError, "block Delta", id="from_blocks_delta"),
        pytest.param(lambda: SuperMatrix.from_blocks([[CTX.one()]], [[ODD]], [[ODD]], [5]),
                     ConfigError, "a row of block B", id="from_blocks_b_row"),
        pytest.param(lambda: CTX.monomial(5), ConfigError, "monomial indices", id="monomial"),
        pytest.param(lambda: CTX.monomial((1,), "x"), ConfigError, "coefficient",
                     id="monomial_coefficient"),
        pytest.param(lambda: CTX.element(5), ConfigError, "terms", id="element"),
        pytest.param(lambda: CTX.element({(1,): None}), ConfigError, "coefficient",
                     id="element_coefficient"),
        pytest.param(lambda: GrassmannPoly(CTX, 5), ConfigError, "terms", id="poly"),
        pytest.param(lambda: LaurentScalar(CTX, 5), ConfigError, "terms", id="laurent"),
        pytest.param(lambda: CTX.scalar("x"), ConfigError, "scalar", id="scalar_text"),
        pytest.param(lambda: CTX.scalar(float("inf")), ConfigError, "scalar",
                     id="scalar_infinite"),
        pytest.param(lambda: SuperMatrix.from_blocks([[CTX.one()]], [[ODD], [ODD]], [[ODD]],
                                                     [[CTX.one()]]),
                     ShapeError, "block Gamma must be 1x1 for shape (1|1)", id="gamma_rows"),
        pytest.param(lambda: SuperMatrix.from_blocks([[CTX.one()]], [], [[ODD]], [[CTX.one()]]),
                     ShapeError, "block Gamma must be 1x1", id="gamma_empty"),
        pytest.param(lambda: SuperMatrix.from_blocks([[CTX.one()]], [[ODD]], [[ODD, ODD]],
                                                     [[CTX.one()]]),
                     ShapeError, "block Delta must be 1x1", id="delta_columns"),
        pytest.param(lambda: GrassmannPoly.term(5, t=1), ConfigError,
                     "value must be a GrassmannElement, got int", id="poly_term"),
        pytest.param(lambda: GrassmannPoly.constant(5), ConfigError,
                     "value must be a GrassmannElement, got int", id="poly_constant"),
        pytest.param(lambda: ParamSuperMatrix.from_supermatrix(5), ConfigError,
                     "matrix must be a SuperMatrix, got int", id="from_supermatrix"),
        *(pytest.param(lambda x=x: P.scale(x), ConfigError,
                       f"factor must be a GrassmannPoly or a scalar, got {type(x).__name__}",
                       id=f"scale_{type(x).__name__}") for x in ("x", None, 1.5)),
        *(pytest.param(lambda t=t: XI1_T.coefficient(t=t), ConfigError, name,
                       id=f"coefficient_{site}") for site, t, name in COEFFICIENT_KEYS),
        pytest.param(lambda: loads(5), ConfigError,
                     "text must be a str, bytes or bytearray, got int", id="loads"),
        pytest.param(lambda: run_suite(5), ConfigError, "cfg must be a SuiteConfig, got int",
                     id="run_suite"),
        pytest.param(lambda: AnnihilatorBasis(5, 5, 5), ConfigError,
                     "basis must be a collection, got int", id="annihilator_basis"),
        pytest.param(lambda: AnnihilatorBasis(CTX, [], 5), ConfigError,
                     "free must be a collection, got int", id="annihilator_free"),
        *(pytest.param(call, ConfigError, "ctx must be an AlgebraContext, got int",
                       id=f"ctx_{site}") for site, call in NOT_A_CONTEXT),
    ],
)
def test_value_argument_is_refused_by_name(call, error, name):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(name)


def _json_with(value, key, x):
    """loads of the JSON form of ``value`` with ``key`` replaced by x."""
    obj = json.loads(dumps(value))
    obj[key] = x
    return loads(json.dumps(obj))


def _poly_term_with(t):
    return loads(json.dumps({"n": 3, "poly": [{"c": dump_element(ODD), "s": 0, "t": t}]}))


#: (id, call taking the integer, name in the message, error of a non-integer,
#:  an out-of-range integer, its error); True is no integer
INT_SITES = [
    ("create_algebra", create_algebra, "number of generators", ConfigError, 17, ConfigError),
    ("gen", CTX.gen, "generator index", ConfigError, 4, ConfigError),
    ("power", lambda k: ODD ** k, "power", ConfigError, -1, ConfigError),
    ("seed", lambda x: SuiteConfig(seed=x).validate(), "seed", ConfigError, -1, ConfigError),
    ("samples", lambda x: SuiteConfig(samples=x).validate(), "samples", ConfigError, 0,
     ConfigError),
    ("nmax", lambda x: differential_sequence(ODD, x), "nmax", ConfigError, 9, ConfigError),
    ("matrix_p", lambda x: SuperMatrix(x, 1, M.rows), "block size p", ConfigError, 0,
     ShapeError),
    ("identity_p", lambda x: SuperMatrix.identity(CTX, x, 1), "block size p", ConfigError, 0,
     ShapeError),
    ("identity_q", lambda x: SuperMatrix.identity(CTX, 1, x), "block size q", ConfigError, 0,
     ShapeError),
    ("supervector_p", lambda x: random_supervector(random.Random(0), CTX, x, 1),
     "block size p", ConfigError, 0, ShapeError),
    ("json_n", lambda x: _json_with(ODD, "n", x), "element generator count", ParseError, 17,
     ParseError),
    ("json_p", lambda x: _json_with(M, "p", x), "p", ParseError, 0, ParseError),
    ("json_exponent", _poly_term_with, "t exponent", ParseError, 10, ParseError),
]


def _int_cases():
    for site, call, name, error, out_of_range, range_error in INT_SITES:
        for label, arg, err in [("bool", True, error), ("text", "1", error),
                                ("out_of_range", out_of_range, range_error)]:
            yield pytest.param(call, arg, err, name, id=f"{site}-{label}")


@pytest.mark.parametrize("call, arg, error, name", list(_int_cases()))
def test_integer_argument_is_refused_by_name(call, arg, error, name):
    with pytest.raises(error) as info:
        call(arg)
    message = str(info.value)
    # a block size below 1 is a ShapeError that names both sizes
    assert message.startswith("block sizes" if error is ShapeError else name)


def test_family_in_s_is_refused_by_name():
    """A family that must be in t only refuses one in s."""
    family_in_s = P.rename("t", "s")
    for call in (smoothing, functional_residual, laplace, resolvent_tail,
                 moving_time_check, components_of, equivalence_report, closure_check):
        with pytest.raises(ConfigError, match="^family must be in t only"):
            call(family_in_s)


ENTRY = P.rows[0][1]  # xi1*t
LAURENT = LaurentScalar.term(CTX.one(), iz=1)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda u: GrassmannPoly.variable(CTX, u), id="variable"),
        pytest.param(lambda u: ENTRY.degree(u), id="degree"),
        pytest.param(lambda u: ENTRY.derivative(u), id="derivative"),
        pytest.param(lambda u: ENTRY.integrate(u), id="integrate"),
        pytest.param(lambda u: ENTRY.substitute(u, ENTRY), id="substitute"),
        pytest.param(lambda u: ENTRY.rename(u, "s"), id="rename_src"),
        pytest.param(lambda u: ENTRY.rename("t", u), id="rename_dst"),
        pytest.param(lambda u: ENTRY.eval_at({"t": 0, u: 0}), id="eval_at"),
        pytest.param(lambda u: LAURENT.rename(u, "w"), id="laurent_rename_src"),
        pytest.param(lambda u: LAURENT.rename("z", u), id="laurent_rename_dst"),
        pytest.param(lambda u: P.derivative(u), id="matrix_derivative"),
        pytest.param(lambda u: P.substitute(u, ENTRY), id="matrix_substitute"),
        pytest.param(lambda u: P.rename(u, "s"), id="matrix_rename"),
        pytest.param(lambda u: P.eval_at({"t": 0, u: 0}), id="matrix_eval_at"),
        pytest.param(lambda u: in_var(P, u), id="in_var"),
        pytest.param(lambda u: ParamSuperVector([ENTRY * ODD], [ENTRY]).derivative(u),
                     id="vector_derivative"),
        pytest.param(lambda u: ComponentList([M]).family(u), id="component_family"),
        pytest.param(lambda u: M.rename(u, "s"), id="constant_matrix_rename"),
    ],
)
def test_unknown_parameter_is_refused_by_name(call):
    with pytest.raises(ConfigError, match="unknown parameter 'u'"):
        call("u")
