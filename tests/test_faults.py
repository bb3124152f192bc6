"""Each injected fault turns the ``verify`` labels that should catch it red.

A label that no fault can turn red checks nothing, so each row names a
fault, injected as ``tests/test_witnesses.py`` injects its faults (a name
replaced in the module or class that looks it up), plus the suite, seeds and
sample count it runs at and the labels that must fail at each of those seeds.
The rows assert that those labels fail, not that the others pass: one fault
can break several laws.  This is mutation testing (DeMillo, Lipton and
Sayward, "Hints on Test Data Selection", IEEE Computer 1978).
"""

from __future__ import annotations

import pytest

from superband import algebra, families, suites
from superband.algebra import AnnihilatorBasis, GrassmannElement, _mask, _unchecked
from superband.config import SuiteConfig
from superband.poly import GrassmannPoly
from superband.supermatrix import det_even


def _no_swaps(real):
    # every monomial product positive, as if the generators commuted
    return lambda mask: 0


def _all_swaps(real):
    # each generator of the right monomial counted as passing one of the left
    return lambda mask: -1


def _drop_highest_term(real):
    # a product of two terms or more loses the term of its highest mask
    def broken(self, other):
        out = real(self, other)
        if out is NotImplemented or len(out.terms) < 2:
            return out
        terms = dict(out.terms)
        del terms[max(terms)]
        return _unchecked(GrassmannElement, out.ctx, terms)
    return broken


def _ber_times_det_b(real):
    # det(Schur) * det B instead of det(Schur) / det B
    return lambda m: real(m) * det_even(m.block_b()) ** 2


def _obstruction_of_the_even_part(real):
    # alpha * x0.even[0] in place of the obstruction, which on x0 = (1, m) is alpha * m
    return lambda x0, alpha: alpha * x0.even[0]


def _ber_parts_plus_one(real):
    # the odd-reduced part off by the scalar 1
    def broken(m):
        even, odd = real(m)
        return even, odd + 1
    return broken


def _whole_odd_part(real):
    # the annihilator of no element, so it holds every odd monomial
    return lambda generators, ctx=None: real([], generators[0].ctx)


def _drop_last_vector(real):
    def broken(generators, ctx=None):
        ann = real(generators, ctx)
        return AnnihilatorBasis(ann.ctx, ann.basis[:-1], [_mask(f) for f in ann.free[:-1]])
    return broken


def _without_zero_argument(real):
    return tuple(entry for entry in real if entry[0] != "0")


def _integral_without_scale(real):
    # c t^e -> c t^(e+1), without the 1/(e+1) of integrate
    return lambda family: family.scale(GrassmannPoly.variable(family.ctx, "t"))


def _derivatives_for_s1_to_s3(real):
    def broken(alpha, nmax):
        seq = real(alpha, nmax)
        return seq[:1] + [s.derivative("t") for s in seq[1:4]] + seq[4:]
    return broken


def _renaming_nothing(real):
    return lambda family, var: family


#: the seeds of the rows that must hold at more than one seed
SEEDS = range(8)

#: (id, module or class, name replaced, fault from the real value, suite,
#:  seeds, samples, labels that must fail at each seed)
FAULTS = [
    ("sign_never_flips", algebra, "_above", _no_swaps,
     "algebra", SEEDS, 40, {"anticomm", "oddsq"}),
    ("sign_always_flips", algebra, "_above", _all_swaps,
     "algebra", SEEDS, 40, {"anticomm", "assoc", "central", "inv", "oddsq"}),
    ("product_drops_highest_term", GrassmannElement, "__mul__", _drop_highest_term,
     "algebra", SEEDS, 40, {"assoc", "distrib", "inv"}),
    ("ber_times_det_b", suites, "berezinian", _ber_times_det_b,
     "supermatrix", (0,), 20, {"7a", "ber11"}),
    ("annihilator_drops_last", suites, "annihilator_odd", _drop_last_vector,
     "algebra", SEEDS, 40, {"ann_complete"}),
    ("annihilator_of_nothing", suites, "annihilator_odd", _whole_odd_part,
     "algebra", SEEDS, 16, {"ann_sound"}),
    ("ber_parts_plus_one", suites, "ber_parts", _ber_parts_plus_one,
     "supermatrix", (0,), 16, {"b0", "7a"}),
    ("obstruction_of_the_even_part", suites, "commutativity_obstruction",
     _obstruction_of_the_even_part, "resolvent", (0,), 16, {"apx"}),
    ("menu_without_y0", families, "_ARGUMENTS", _without_zero_argument,
     "families", (0,), 16, {"table"}),
    ("smoothing_unscaled", suites, "smoothing", _integral_without_scale,
     "families", (0,), 16, {"v1", "v2", "pv"}),
    ("sequence_differentiated", suites, "differential_sequence", _derivatives_for_s1_to_s3,
     "families", (0,), 16, {"ss2", "pv"}),
    ("in_var_identity", suites, "in_var", _renaming_nothing,
     "families", (0,), 16, {"ptu", "pppa"}),
]


@pytest.mark.parametrize(
    "module, name, fault, suite, seeds, samples, labels",
    [pytest.param(*row[1:], id=row[0]) for row in FAULTS],
)
def test_fault_turns_its_labels_red(monkeypatch, module, name, fault, suite, seeds,
                                    samples, labels):
    for seed in seeds:
        cfg = SuiteConfig(generators=4, seed=seed, suite=suite, samples=samples)
        (clean,) = suites.run_suite(cfg)["suites"]
        assert all(c["passed"] for c in clean["checks"] if c["label"] in labels), seed

        with monkeypatch.context() as patch:
            patch.setattr(module, name, fault(getattr(module, name)))
            (report,) = suites.run_suite(cfg)["suites"]

        verdicts = {c["label"]: c["passed"] for c in report["checks"]}
        assert labels <= verdicts.keys()
        assert not any(verdicts[label] for label in labels), (seed, verdicts)
