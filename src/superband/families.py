"""One-parameter (1|1) supermatrix families and their algebraic laws.

A ParamSuperMatrix is the graded matrix of ``supermatrix`` over the ring of
GrassmannPoly values in the formal parameters t and s: the same grading
(diagonal blocks even, off-diagonal blocks odd, coefficientwise) and the
same arithmetic as a SuperMatrix, plus parameter handling.  All the named
families are built from one odd element alpha:

    P(t) = [[0, alpha*t], [alpha, 1]]      left-zero band of projectors
    Q(t) = [[0, alpha],   [alpha*t, 1]]    right-zero mirror of P
    Y(t) = [[0, alpha*t], [alpha, 0]]      nilpotent companion family
    E    = [[0, alpha],   [alpha, 1]]      the common idempotent P(1) = Q(1)
    T(t) = [[1, alpha*t], [0, 1]]          the semigroup exp(A t) = I + A t
    A    = [[0, alpha],   [0, 0]]          the common generator, A^2 = 0
    Z    = 0

cayley_table_verify multiplies the seven standard operands pairwise, names
every product by matching against a closed menu of canonical forms, and
reports each cell that contradicts the stored reference table; direct
multiplication is ground truth and reference rows are never corrected
silently.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .algebra import EVEN, ODD, GrassmannElement, _graded_arg, _int_arg, _Rational, _unchecked
from .config import FAMILY_KINDS
from .errors import ConfigError
from .poly import MAX_VAR_DEGREE, GrassmannPoly
from .supermatrix import GradedMatrix, GradedVector, SuperMatrix, _container_arg


class ParamSuperVector(GradedVector):
    """A supervector of polynomials in t and s: p even slots, q odd slots."""

    __slots__ = ()

    _entry = GrassmannPoly

    def derivative(self, var: str = "t"):
        return self._map(lambda x: x.derivative(var))


class ParamSuperMatrix(GradedMatrix):
    """A (p|q) supermatrix of polynomials in t and s, graded coefficientwise."""

    __slots__ = ()

    _entry = GrassmannPoly
    _vector = ParamSuperVector

    @classmethod
    def _from_coefficients(cls, like, coeffs):
        """sum r K t^e s^f over ``coeffs`` = {(e, f): (K, r)}, for constant K
        shaped like ``like``, nonzero rationals r and e, f <= MAX_VAR_DEGREE:
        each nonzero entry of K, times r, becomes its entry's (e, f) term."""
        d = like.p + like.q
        rows = [[{} for _ in range(d)] for _ in range(d)]
        for key, (k, r) in coeffs.items():
            for row, k_row in zip(rows, k.rows):
                for terms, x in zip(row, k_row):
                    if x.terms:
                        terms[key] = x._times(r)
        return cls._graded(like.p, like.q, [
            [_unchecked(GrassmannPoly, like.ctx, t) for t in row] for row in rows
        ])

    def variables(self):
        used = set()
        for row in self.rows:
            for x in row:
                used |= x.variables()
        return used

    def derivative(self, var: str = "t"):
        return self._map(lambda x: x.derivative(var))

    def substitute(self, var: str, replacement: GrassmannPoly):
        """Each entry's ``substitute``, sharing one table of replacement powers."""
        i = GrassmannPoly._index(var)
        powers = self.rows[0][0]._powers(replacement)
        m = self._map(lambda x: x._substituted(i, powers))
        # an odd replacement can break the grading, so that result is checked
        return m if powers[1].is_even() else type(self)(m.p, m.q, m.rows)

    def eval_at(self, assignment: dict) -> SuperMatrix:
        """Each entry's ``eval_at``, checking ``assignment`` once for all of them."""
        powers = self.rows[0][0]._value_powers(assignment, self.variables())
        return self._map(lambda x: x._evaluated(powers), SuperMatrix)


# ---------------------------------------------------------------------------
# the named families
# ---------------------------------------------------------------------------

def _family_alpha(alpha: GrassmannElement) -> GrassmannElement:
    return _graded_arg(alpha, None, ODD, "family parameter alpha")


def make_family(kind: str, alpha: GrassmannElement) -> ParamSuperMatrix:
    """Build one of the named families (in the parameter t) from an odd alpha."""
    alpha = _family_alpha(alpha)
    ctx = alpha.ctx
    zero = GrassmannPoly.zero(ctx)
    one = GrassmannPoly.constant(ctx.one())
    a_const = GrassmannPoly.constant(alpha)
    a_t = GrassmannPoly.term(alpha, t=1)
    if kind == "P":
        rows = [[zero, a_t], [a_const, one]]
    elif kind == "Q":
        rows = [[zero, a_const], [a_t, one]]
    elif kind == "Y":
        rows = [[zero, a_t], [a_const, zero]]
    elif kind == "E":
        rows = [[zero, a_const], [a_const, one]]
    elif kind == "T":
        rows = [[one, a_t], [zero, one]]
    elif kind == "A":
        rows = [[zero, a_const], [zero, zero]]
    elif kind == "Z":
        rows = [[zero, zero], [zero, zero]]
    else:
        raise ConfigError(f"unknown family kind {kind!r}, expected one of {FAMILY_KINDS}")
    return ParamSuperMatrix._graded(1, 1, rows)


def _family_arg(family):
    """family, once it is a ParamSuperMatrix in t only (else ConfigError)."""
    _container_arg(family, ParamSuperMatrix, "family")
    if "s" in family.variables():
        raise ConfigError("family must be in t only, got one in s")
    return family


def in_var(family: ParamSuperMatrix, var: str) -> ParamSuperMatrix:
    """The same family written in another parameter (t -> s renaming)."""
    return _container_arg(family, ParamSuperMatrix, "family").rename("t", var)


def rectangular_band_element(alpha: GrassmannElement, top, bottom) -> ParamSuperMatrix:
    """[[0, alpha*top], [alpha*bottom, 1]] for polynomial, element or rational args.

    These arise as products P(top) Q(bottom) and multiply as a rectangular
    band: the left factor keeps its top argument, the right factor its bottom.
    """
    alpha = _family_alpha(alpha)
    ctx = alpha.ctx
    zero = GrassmannPoly.zero(ctx)
    one = GrassmannPoly.constant(ctx.one())
    return ParamSuperMatrix(
        1,
        1,
        [[zero, alpha * one._arg(top, "top")], [alpha * one._arg(bottom, "bottom"), one]],
    )


def commutator(f: ParamSuperMatrix, g: ParamSuperMatrix) -> ParamSuperMatrix:
    _container_arg(f, ParamSuperMatrix, "f")
    _container_arg(g, ParamSuperMatrix, "g", like=f)
    return f @ g - g @ f


def generator_of(family: ParamSuperMatrix) -> SuperMatrix:
    """d/dt at t = 0 (and s = 0), as a constant supermatrix."""
    _container_arg(family, ParamSuperMatrix, "family")
    return family.derivative("t").eval_at({"t": 0, "s": 0})


def product_and_shift(family: ParamSuperMatrix):
    """F(t) F(s) and F(t+s) for a family in t only.

    The band law compares the product with F(t), the exponential law with
    F(t+s); every law of the family's two-parameter product starts here.
    """
    _family_arg(family)
    t_plus_s = GrassmannPoly.variable(family.ctx, "t") + GrassmannPoly.variable(
        family.ctx, "s"
    )
    return family @ in_var(family, "s"), family.substitute("t", t_plus_s)


def functional_residual(family: ParamSuperMatrix) -> ParamSuperMatrix:
    """N(t, s) = F(t+s) - F(t) F(s), the defect in the exponential law."""
    product, shifted = product_and_shift(family)
    return shifted - product


def nilpotent_time_commute_check(
    f: ParamSuperMatrix,
    g: ParamSuperMatrix,
    tau,
    alpha: GrassmannElement,
) -> bool:
    """Whether f and g commute once both parameters are frozen at tau.

    tau must be even; for the P/T families built from ``alpha`` the result is
    true exactly when tau * alpha == 0, which is what the callers assert.
    """
    alpha = _family_alpha(alpha)
    frozen = commutator(f, g)
    if isinstance(tau, _Rational):
        tau = f.ctx.scalar(tau)
    _graded_arg(tau, f.ctx, EVEN, "time tau")
    return frozen.eval_at({"t": tau, "s": tau}).is_zero()


def matrix_exp_nilpotent(m: SuperMatrix) -> ParamSuperMatrix:
    """exp(M t) as a terminating series; M^MAX_VAR_DEGREE must vanish."""
    _container_arg(m, SuperMatrix, "matrix")
    coeffs = {}
    power = SuperMatrix.identity(m.ctx, m.p, m.q)
    for k in range(MAX_VAR_DEGREE + 1):
        if power.is_zero():
            return ParamSuperMatrix._from_coefficients(m, coeffs)
        coeffs[k, 0] = (power, Fraction(1, factorial(k)))
        power = power @ m
    raise ConfigError(f"M^{MAX_VAR_DEGREE} is nonzero: exp(M t) passes the degree cap")


def smoothing(family: ParamSuperMatrix) -> ParamSuperMatrix:
    """Entrywise integral from 0 to t."""
    return _family_arg(family)._map(lambda x: x.integrate("t"))


def differential_sequence(alpha: GrassmannElement, nmax: int):
    """S_k(t) = (t^k / k!) P(t / (k+1)) for k = 0..nmax.

    The sequence forms an antiderivative chain: d/dt S_k = S_{k-1},
    d/dt S_0 = A, and S_1 is the smoothing of P.
    """
    _int_arg(nmax, "nmax", 1, 8)
    alpha = _family_alpha(alpha)
    ctx = alpha.ctx
    p_family = make_family("P", alpha)
    out = []
    for k in range(nmax + 1):
        scaled_time = GrassmannPoly.term(ctx.scalar(Fraction(1, k + 1)), t=1)
        member = p_family.substitute("t", scaled_time)
        tk = GrassmannPoly.term(ctx.scalar(Fraction(1, factorial(k))), t=k)
        out.append(member.scale(tk))
    return out


# ---------------------------------------------------------------------------
# named-form matching and the multiplication table
# ---------------------------------------------------------------------------

_ARGUMENTS = (
    ("0", lambda ctx: GrassmannPoly.zero(ctx)),
    ("t", lambda ctx: GrassmannPoly.variable(ctx, "t")),
    ("s", lambda ctx: GrassmannPoly.variable(ctx, "s")),
    ("2t", lambda ctx: GrassmannPoly.term(ctx.scalar(2), t=1)),
    ("2s", lambda ctx: GrassmannPoly.term(ctx.scalar(2), s=1)),
    ("t+s", lambda ctx: GrassmannPoly.variable(ctx, "t")
        + GrassmannPoly.variable(ctx, "s")),
)


def _canonical_forms(alpha: GrassmannElement):
    """Deterministically ordered menu {label: form} of named (1|1) forms built
    from alpha; it holds the seven table operands."""
    ctx = alpha.ctx
    a_fam = make_family("A", alpha)
    forms = {"Z": make_family("Z", alpha), "A": a_fam}
    for var in ("t", "s"):
        forms[f"A*{var}"] = a_fam.scale(GrassmannPoly.variable(ctx, var))
    forms["E"] = make_family("E", alpha)
    for kind in ("P", "Y", "T"):
        base = make_family(kind, alpha)
        for name, build in _ARGUMENTS:
            forms[f"{kind}({name})"] = base.substitute("t", build(ctx))
    return forms


def match_named_form(value: ParamSuperMatrix, alpha: GrassmannElement, forms=None):
    """Label of the first canonical form equal to ``value``, or None.

    ``forms`` is the menu ``_canonical_forms(alpha)``; a caller matching many
    values against one alpha builds it once and passes it in.
    """
    if forms is None:
        forms = _canonical_forms(alpha)
    for label, form in forms.items():
        if value == form:
            return label
    return None


#: the table rows as published; row operand is the left factor.
REFERENCE_TABLE = {
    "P(t)": ["P(t)", "P(t)", "Z", "Z", "P(t)", "P(t)", "P(t)"],
    "P(s)": ["P(s)", "P(s)", "Z", "Z", "P(s)", "P(s)", "P(s)"],
    "A": ["A", "A", "Z", "Z", "Z", "A", "A"],
    "Z": ["Z", "Z", "Z", "Z", "Z", "Z", "Z"],
    "Y(t)": ["A*t", "A*s", "Z", "Z", "Z", "Y(t)", "Y(t)"],
    "T(t)": ["P(2t)", "P(t+s)", "A", "Z", "Y(t)", "T(2t)", "T(t+s)"],
    "T(s)": ["P(t+s)", "P(2s)", "A", "Z", "Y(t)", "T(t+s)", "T(2s)"],
}

OPERAND_LABELS = ("P(t)", "P(s)", "A", "Z", "Y(t)", "T(t)", "T(s)")

#: cells where direct multiplication contradicts the stored reference rows;
#: each entry is (row, column, computed, reference).  Products with Y keep
#: Y's own argument, so the printed P(t)/P(s)/A*s values cannot arise.
KNOWN_TABLE_DISCREPANCIES = frozenset(
    {
        ("P(t)", "Y(t)", "Y(0)", "P(t)"),
        ("P(s)", "Y(t)", "Y(0)", "P(s)"),
        ("Y(t)", "P(s)", "A*t", "A*s"),
    }
)


class CayleyReport(
    namedtuple(
        "CayleyReport", "operands computed reference discrepancies unmatched products"
    )
):
    """Result of multiplying the seven standard operands pairwise.

    ``computed`` maps (row_label, col_label) to the matched form label;
    ``discrepancies`` lists (row, col, computed, reference) for every cell
    whose direct product contradicts the stored reference table.
    """

    __slots__ = ()

    @property
    def all_matched(self) -> bool:
        return not self.unmatched

    @property
    def matches_known(self) -> bool:
        """Every product is named, and the cells that contradict the
        reference rows are exactly the known ones."""
        return self.all_matched and set(self.discrepancies) == KNOWN_TABLE_DISCREPANCIES


def standard_operands(alpha: GrassmannElement):
    """The seven table operands, each in its own display parameter."""
    forms = _canonical_forms(_family_alpha(alpha))
    return {label: forms[label] for label in OPERAND_LABELS}


def cayley_table_verify(alpha: GrassmannElement) -> CayleyReport:
    """Multiply all 49 operand pairs, name each product, and compare with the
    reference rows."""
    alpha = _family_alpha(alpha)
    forms = _canonical_forms(alpha)
    computed = {}
    products = {}
    discrepancies = []
    unmatched = []
    for row_label in OPERAND_LABELS:
        for idx, col_label in enumerate(OPERAND_LABELS):
            product = forms[row_label] @ forms[col_label]
            label = match_named_form(product, alpha, forms)
            products[(row_label, col_label)] = product
            computed[(row_label, col_label)] = label
            expected = REFERENCE_TABLE[row_label][idx]
            if label is None:
                unmatched.append((row_label, col_label))
            elif label != expected:
                discrepancies.append((row_label, col_label, label, expected))
    return CayleyReport(
        operands=OPERAND_LABELS,
        computed=computed,
        reference=REFERENCE_TABLE,
        discrepancies=tuple(discrepancies),
        unmatched=tuple(unmatched),
        products=products,
    )


# ---------------------------------------------------------------------------
# grouped identity checks used by the suites and the acceptance tests
# ---------------------------------------------------------------------------

def intertwiner_check(sigma, rho, u, v, alpha) -> dict:
    """Check the two conjugating families between T and P.

    U = [[sigma*alpha, sigma], [0, rho*alpha]] satisfies T(t) U = U P(t) and
    U^2 = sigma*rho*A; Ustar = [[0, alpha*v*t], [alpha*u, v]] satisfies
    Ustar T(t) = P(t) Ustar.  sigma, rho must be odd; u, v even.
    """
    alpha = _family_alpha(alpha)
    ctx = alpha.ctx
    for name, x, parity in (
        ("sigma", sigma, ODD), ("rho", rho, ODD), ("u", u, EVEN), ("v", v, EVEN)
    ):
        _graded_arg(x, ctx, parity, name)

    zero = GrassmannPoly.zero(ctx)
    cp = GrassmannPoly.constant
    u_mat = ParamSuperMatrix._graded(
        1, 1, [[cp(sigma * alpha), cp(sigma)], [zero, cp(rho * alpha)]]
    )
    ustar = ParamSuperMatrix._graded(
        1,
        1,
        [[zero, GrassmannPoly.term(alpha * v, t=1)], [cp(alpha * u), cp(v)]],
    )
    p_fam = make_family("P", alpha)
    t_fam = make_family("T", alpha)
    a_fam = make_family("A", alpha)
    return {
        "tu": t_fam @ u_mat == u_mat @ p_fam,
        "ut": ustar @ t_fam == p_fam @ ustar,
        "u_squared": u_mat @ u_mat == a_fam.scale(sigma * rho),
        "U": u_mat,
        "Ustar": ustar,
    }


def inverse_relations_check(alpha: GrassmannElement) -> dict:
    """The one-sided inverse laws tying P, T and Y together; the power laws
    ``tp1`` (T^n P = P(t (n + 1))) and ``tp2`` (P^n T = P) for n = 1..5."""
    alpha = _family_alpha(alpha)
    p = make_family("P", alpha)
    t_fam = make_family("T", alpha)
    y = make_family("Y", alpha)
    a_fam = make_family("A", alpha)
    ctx = alpha.ctx
    tvar = GrassmannPoly.variable(ctx, "t")

    def p_at(scale: int):
        return p.substitute("t", GrassmannPoly.term(ctx.scalar(scale), t=1))

    out = {
        "ptp": p @ t_fam @ p == p,
        "tpt": t_fam @ p @ t_fam == p_at(2),
        "ty": t_fam @ y == y and y @ t_fam == y,
        "yp1": p @ y == y.substitute("t", GrassmannPoly.zero(ctx)),
        "yp2": y @ p == a_fam.scale(tvar),
        "yy": y @ in_var(y, "s") == make_family("Z", alpha),
    }
    tn = ParamSuperMatrix.identity(ctx, 1, 1)
    pn = ParamSuperMatrix.identity(ctx, 1, 1)
    tp1 = True
    tp2 = True
    for n in range(1, 6):
        tn = tn @ t_fam
        pn = pn @ p
        tp1 = tp1 and tn @ p == p_at(n + 1)
        tp2 = tp2 and pn @ t_fam == p
    out["tp1"] = tp1
    out["tp2"] = tp2
    return out
