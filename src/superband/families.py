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

from .algebra import GrassmannElement
from .errors import ConfigError, ContextError, ParityError
from .poly import GrassmannPoly
from .supermatrix import GradedMatrix, GradedVector, SuperMatrix

FAMILY_KINDS = ("P", "Q", "Y", "E", "T", "A", "Z")


class ParamSuperVector(GradedVector):
    """A supervector of polynomials in t and s: p even slots, q odd slots."""

    __slots__ = ()

    _entry = GrassmannPoly

    def derivative(self, var: str = "t"):
        return ParamSuperVector(
            [x.derivative(var) for x in self.even],
            [x.derivative(var) for x in self.odd],
        )


class ParamSuperMatrix(GradedMatrix):
    """A (p|q) supermatrix of polynomials in t and s, graded coefficientwise."""

    __slots__ = ()

    _entry = GrassmannPoly
    _vector = ParamSuperVector
    _constant = staticmethod(GrassmannPoly.constant)

    def variables(self):
        used = set()
        for row in self.rows:
            for x in row:
                used |= x.variables()
        return used

    def map_entries(self, fn):
        return ParamSuperMatrix(
            self.p, self.q, [[fn(x) for x in row] for row in self.rows]
        )

    def derivative(self, var: str = "t"):
        # integer multiples of graded coefficients keep the grading
        return self._graded(
            self.p, self.q, [[x.derivative(var) for x in row] for row in self.rows]
        )

    def substitute(self, var: str, replacement: GrassmannPoly):
        return self.map_entries(lambda x: x.substitute(var, replacement))

    def eval_at(self, assignment: dict) -> SuperMatrix:
        return SuperMatrix(
            self.p,
            self.q,
            [[x.eval_at(assignment) for x in row] for row in self.rows],
        )


# ---------------------------------------------------------------------------
# the named families
# ---------------------------------------------------------------------------

def _family_alpha(alpha: GrassmannElement) -> GrassmannElement:
    if not isinstance(alpha, GrassmannElement):
        raise ConfigError("alpha must be a GrassmannElement")
    if not alpha.is_odd():
        raise ParityError(f"family parameter alpha must be odd or zero, got {alpha}")
    return alpha


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
    return ParamSuperMatrix(1, 1, rows)


def in_var(family: ParamSuperMatrix, var: str) -> ParamSuperMatrix:
    """The same family written in another parameter (t -> s renaming)."""
    if var == "t":
        return family
    return family.rename("t", var)


def rectangular_band_element(alpha: GrassmannElement, top, bottom) -> ParamSuperMatrix:
    """[[0, alpha*top], [alpha*bottom, 1]] for polynomial (or rational) args.

    These arise as products P(top) Q(bottom) and multiply as a rectangular
    band: the left factor keeps its top argument, the right factor its bottom.
    """
    alpha = _family_alpha(alpha)
    ctx = alpha.ctx
    zero = GrassmannPoly.zero(ctx)
    one = GrassmannPoly.constant(ctx.one())
    if not isinstance(top, GrassmannPoly):
        top = GrassmannPoly.constant(ctx.scalar(top))
    if not isinstance(bottom, GrassmannPoly):
        bottom = GrassmannPoly.constant(ctx.scalar(bottom))
    return ParamSuperMatrix(
        1,
        1,
        [[zero, GrassmannPoly.constant(alpha) * top],
         [GrassmannPoly.constant(alpha) * bottom, one]],
    )


def commutator(f: ParamSuperMatrix, g: ParamSuperMatrix) -> ParamSuperMatrix:
    return f @ g - g @ f


def generator_of(family: ParamSuperMatrix) -> SuperMatrix:
    """d/dt at t = 0 (and s = 0), as a constant supermatrix."""
    return family.derivative("t").eval_at({"t": 0, "s": 0})


def functional_residual(family: ParamSuperMatrix) -> ParamSuperMatrix:
    """N(t, s) = F(t+s) - F(t) F(s), the defect in the exponential law."""
    if "s" in family.variables():
        raise ConfigError("expected a family in t only")
    t_plus_s = GrassmannPoly.variable(family.ctx, "t") + GrassmannPoly.variable(
        family.ctx, "s"
    )
    return family.substitute("t", t_plus_s) - family @ in_var(family, "s")


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
    ctx = f.ctx
    tau = tau if isinstance(tau, GrassmannElement) else ctx.scalar(tau)
    if not tau.is_even():
        raise ParityError("time values must be even")
    frozen = commutator(f, g).eval_at({"t": tau, "s": tau})
    return frozen.is_zero()


def matrix_exp_nilpotent(m: SuperMatrix, var: str = "t") -> ParamSuperMatrix:
    """exp(M t) as a terminating series; M must be nilpotent as a matrix."""
    ctx = m.ctx
    acc = ParamSuperMatrix.identity(ctx, m.p, m.q)
    power = ParamSuperMatrix.from_supermatrix(m)
    k = 1
    factorial = 1
    tvar = GrassmannPoly.variable(ctx, var)
    tpow = tvar
    while not power.is_zero():
        if k > 2 * (m.p + m.q) * (ctx.n + 1):
            raise ConfigError("matrix is not nilpotent; exp series does not terminate")
        acc = acc + power.scale(tpow * Fraction(1, factorial))
        power = power @ ParamSuperMatrix.from_supermatrix(m)
        k += 1
        factorial *= k
        tpow = tpow * tvar
    return acc


def smoothing(family: ParamSuperMatrix) -> ParamSuperMatrix:
    """Entrywise integral from 0 to t."""
    if "s" in family.variables():
        raise ConfigError("expected a family in t only")
    return family.map_entries(lambda x: x.integrate("t"))


def differential_sequence(alpha: GrassmannElement, nmax: int):
    """S_k(t) = (t^k / k!) P(t / (k+1)) for k = 0..nmax.

    The sequence forms an antiderivative chain: d/dt S_k = S_{k-1},
    d/dt S_0 = A, and S_1 is the smoothing of P.
    """
    if not isinstance(nmax, int) or not 1 <= nmax <= 8:
        raise ConfigError(f"nmax must be in 1..8, got {nmax!r}")
    alpha = _family_alpha(alpha)
    ctx = alpha.ctx
    p_family = make_family("P", alpha)
    out = []
    factorial = 1
    for k in range(nmax + 1):
        if k:
            factorial *= k
        scaled_time = GrassmannPoly.term(ctx.scalar(Fraction(1, k + 1)), t=1)
        member = p_family.substitute("t", scaled_time)
        tk = GrassmannPoly.term(ctx.scalar(Fraction(1, factorial)), t=k)
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
    """Deterministically ordered menu of named (1|1) forms built from alpha."""
    ctx = alpha.ctx
    forms = []
    z = make_family("Z", alpha)
    a_fam = make_family("A", alpha)
    forms.append(("Z", z))
    forms.append(("A", a_fam))
    forms.append(("A*t", a_fam.scale(GrassmannPoly.variable(ctx, "t"))))
    forms.append(("A*s", a_fam.scale(GrassmannPoly.variable(ctx, "s"))))
    forms.append(("E", make_family("E", alpha)))
    for kind in ("P", "Y", "T"):
        base = make_family(kind, alpha)
        for name, build in _ARGUMENTS:
            forms.append((f"{kind}({name})", base.substitute("t", build(ctx))))
    return forms


def match_named_form(value: ParamSuperMatrix, alpha: GrassmannElement, forms=None):
    """Label of the first canonical form equal to ``value``, or None.

    ``forms`` is the menu ``_canonical_forms(alpha)``; a caller matching many
    values against one alpha builds it once and passes it in.
    """
    if forms is None:
        forms = _canonical_forms(alpha)
    for label, form in forms:
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


def standard_operands(alpha: GrassmannElement):
    """The seven table operands, each in its own display parameter."""
    p = make_family("P", alpha)
    y = make_family("Y", alpha)
    t_fam = make_family("T", alpha)
    return {
        "P(t)": p,
        "P(s)": in_var(p, "s"),
        "A": make_family("A", alpha),
        "Z": make_family("Z", alpha),
        "Y(t)": y,
        "T(t)": t_fam,
        "T(s)": in_var(t_fam, "s"),
    }


def cayley_table_verify(alpha: GrassmannElement) -> CayleyReport:
    """Multiply all 49 operand pairs, name each product, and compare with the
    reference rows."""
    alpha = _family_alpha(alpha)
    operands = standard_operands(alpha)
    forms = _canonical_forms(alpha)
    computed = {}
    products = {}
    discrepancies = []
    unmatched = []
    for row_label in OPERAND_LABELS:
        for idx, col_label in enumerate(OPERAND_LABELS):
            product = operands[row_label] @ operands[col_label]
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
    for name, x, want_odd in (
        ("sigma", sigma, True),
        ("rho", rho, True),
        ("u", u, False),
        ("v", v, False),
    ):
        if x.ctx != ctx:
            raise ContextError(f"{name} from a different algebra")
        if want_odd and not x.is_odd():
            raise ParityError(f"{name} must be odd or zero")
        if not want_odd and not x.is_even():
            raise ParityError(f"{name} must be even or zero")

    zero = GrassmannPoly.zero(ctx)
    cp = GrassmannPoly.constant
    u_mat = ParamSuperMatrix(
        1, 1, [[cp(sigma * alpha), cp(sigma)], [zero, cp(rho * alpha)]]
    )
    ustar = ParamSuperMatrix(
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


def inverse_relations_check(alpha: GrassmannElement, max_power: int = 5) -> dict:
    """The one-sided inverse laws tying P, T and Y together."""
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
    for n in range(1, max_power + 1):
        tn = tn @ t_fam
        pn = pn @ p
        tp1 = tp1 and tn @ p == p_at(n + 1)
        tp2 = tp2 and pn @ t_fam == p
    out["tp1"] = tp1
    out["tp2"] = tp2
    return out
