"""Exact arithmetic for Grassmann algebras, supermatrices, and one-parameter
idempotent families, with a verification command line (``superband``).

Everything is computed symbolically over the rationals: no floating point,
no approximation.  The package provides

* finitely generated Grassmann algebras and their odd annihilators,
* (p|q)-graded supermatrices with Berezinian and reduction analysis,
* antitriangle band pairs, chains, and strong idempotent families,
* the seven named one-parameter families and their multiplication table,
* band / functional-equation / differential-equation analysis of
  polynomial families,
* orbits, formal Laplace transforms, and resolvent identities,
* deterministic seeded verification suites behind the CLI.
"""

from .algebra import (
    AlgebraContext,
    AnnihilatorBasis,
    GrassmannElement,
    annihilator_odd,
    create_algebra,
)
from .analysis import (
    ComponentList,
    band_component_system_check,
    components_of,
    derivative_tail,
    equivalence_report,
    n_differential_defect,
    n_functional_residual,
    random_band_components,
)
from .errors import (
    ConfigError,
    ContextError,
    ParityError,
    ParseError,
    ShapeError,
    SuperbandError,
)
from .evolution import (
    LaurentMatrix,
    LaurentScalar,
    cauchy_defect,
    commutativity_obstruction,
    laplace,
    moving_time_check,
    orbit,
    resolvent_defect,
)
from .families import (
    FAMILY_KINDS,
    ParamSuperMatrix,
    ParamSuperVector,
    cayley_table_verify,
    commutator,
    differential_sequence,
    generator_of,
    make_family,
    matrix_exp_nilpotent,
    nilpotent_time_commute_check,
    rectangular_band_element,
    smoothing,
)
from .gamma import (
    GammaSet,
    band_pair_check,
    band_pair_components,
    chain_product_verify,
    closure_check,
    gamma_membership,
    idempotent_strong_check,
    random_strong_family,
    strong_gamma_check,
)
from .poly import GrassmannPoly
from .serialize import dumps, load_value, loads, parse_input, to_obj
from .suites import SuiteConfig, run_suite
from .supermatrix import SuperMatrix, SuperVector, berezinian

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext",
    "AnnihilatorBasis",
    "ComponentList",
    "ConfigError",
    "ContextError",
    "FAMILY_KINDS",
    "GammaSet",
    "GrassmannElement",
    "GrassmannPoly",
    "LaurentMatrix",
    "LaurentScalar",
    "ParamSuperMatrix",
    "ParamSuperVector",
    "ParityError",
    "ParseError",
    "ShapeError",
    "SuiteConfig",
    "SuperMatrix",
    "SuperVector",
    "SuperbandError",
    "annihilator_odd",
    "band_component_system_check",
    "band_pair_check",
    "band_pair_components",
    "berezinian",
    "cauchy_defect",
    "cayley_table_verify",
    "chain_product_verify",
    "closure_check",
    "commutativity_obstruction",
    "commutator",
    "components_of",
    "create_algebra",
    "derivative_tail",
    "differential_sequence",
    "dumps",
    "equivalence_report",
    "gamma_membership",
    "generator_of",
    "idempotent_strong_check",
    "laplace",
    "load_value",
    "loads",
    "make_family",
    "matrix_exp_nilpotent",
    "moving_time_check",
    "n_differential_defect",
    "n_functional_residual",
    "nilpotent_time_commute_check",
    "orbit",
    "parse_input",
    "random_band_components",
    "random_strong_family",
    "rectangular_band_element",
    "resolvent_defect",
    "run_suite",
    "smoothing",
    "to_obj",
]
