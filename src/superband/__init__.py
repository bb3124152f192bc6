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

Exports resolve lazily (PEP 562): ``superband.X`` imports the module that
defines ``X`` on first use, so a process loads only what it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

#: exported name -> defining submodule
_EXPORTS = {
    name: module
    for module, names in (
        ("algebra", "AlgebraContext AnnihilatorBasis GrassmannElement"
                    " annihilator_odd create_algebra"),
        ("analysis", "ComponentList band_component_system_check components_of"
                     " derivative_tail equivalence_report n_differential_defect"
                     " n_functional_residual random_band_components"),
        ("config", "FAMILY_KINDS SuiteConfig"),
        ("errors", "ConfigError ContextError ParityError ParseError ShapeError"
                   " SuperbandError"),
        ("evolution", "LaurentMatrix cauchy_defect"
                      " commutativity_obstruction laplace moving_time_check orbit"
                      " resolvent_defect"),
        ("families", "ParamSuperMatrix ParamSuperVector"
                     " cayley_table_verify commutator differential_sequence"
                     " generator_of make_family matrix_exp_nilpotent"
                     " nilpotent_time_commute_check rectangular_band_element"
                     " smoothing"),
        ("gamma", "GammaSet band_pair_check band_pair_components"
                  " chain_product_verify closure_check gamma_membership"
                  " idempotent_strong_check random_strong_family"
                  " strong_gamma_check"),
        ("poly", "GrassmannPoly LaurentScalar"),
        ("serialize", "dumps load_value loads parse_input to_obj"),
        ("suites", "run_suite"),
        ("supermatrix", "SuperMatrix SuperVector berezinian"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        # not an export: let ``from superband import <submodule>`` fall
        # through to the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
