"""(p|q) graded supermatrices and supervectors over three entry rings.

A graded matrix is a (p+q) x (p+q) array in the block form

    [ A      Gamma ]      A: p x p,  B: q x q   (entries even or zero)
    [ Delta  B     ]      Gamma: p x q, Delta: q x p (entries odd or zero)

which is the grading of an even morphism; the constructor rejects anything
else with ParityError.  GradedMatrix holds the shape, the grading check and
the arithmetic once, and each sibling subclass fixes the entry ring:

    matrix class       defined in    entries
    SuperMatrix        supermatrix   GrassmannElement constants
    ParamSuperMatrix   families      GrassmannPoly in t and s
    LaurentMatrix      evolution     LaurentScalar in z and w

GrassmannPoly and LaurentScalar are the two kinds of poly.SparsePoly; such
an entry is graded coefficientwise, and a constant element becomes one by
``_entry._lift``.  Arithmetic and equality need two matrices of one class,
so the kinds never mix.  A GradedVector is the one-column grid such a
matrix acts on, p even rows over q odd ones: SuperVector for constants,
ParamSuperVector for polynomials.  Both kinds of grid share one base,
``_Graded``, which holds ``_graded`` and its rule, ``_map``, ``is_zero``, ``-`` and ``==``.

Every function taking a graded matrix, vector, family or component list
checks it by one rule, ``_container_arg``, and a list of them by
``_container_list``; the ``errors`` module docstring states the rule.

The Berezinian is computed from the Schur complement,
Ber M = det(A - Gamma B^-1 Delta) / det B, which needs the body of det B to
be nonzero.  Determinants of even blocks are ordinary cofactor determinants:
even elements are central, so the classical formulas apply verbatim.
"""

from __future__ import annotations

from operator import add, sub

from .algebra import (
    EVEN, AlgebraContext, GrassmannElement, _collection, _context_arg, _graded_arg, _int_arg,
)
from .errors import ConfigError, ContextError, ParityError, ShapeError

DET_SIZE_CAP = 6

ODD_REDUCED = "odd_reduced"
EVEN_REDUCED = "even_reduced"
GENERAL = "general"

def _as_grid(rows):
    return tuple(map(tuple, rows))


def _grid_arg(rows, what):
    """``rows`` as a tuple of row tuples, once it and each of its rows are
    collections (else ConfigError naming ``what``)."""
    row = f"a row of {what}"
    return tuple(_collection(r, row) for r in _collection(rows, what))


def _grid_mul(x, y):
    """The grid product x y, summing only the pairs of nonzero entries; an
    entry with no such pair is row[0] * col[0], a zero of the product's kind."""
    cols = list(zip(*y))
    out = []
    for row in x:
        out_row = []
        for col in cols:
            acc = None
            for a, b in zip(row, col):
                if a.terms and b.terms:
                    acc = a * b if acc is None else acc + a * b
            out_row.append(row[0] * col[0] if acc is None else acc)
        out.append(out_row)
    return out


def _block_rows(a, gamma, delta, b):
    """The rows of [[a, gamma], [delta, b]]."""
    rows = [list(a[i]) + list(gamma[i]) for i in range(len(a))]
    rows += [list(delta[i]) + list(b[i]) for i in range(len(b))]
    return rows


def _check_blocks(p, q):
    if min(_int_arg(p, "block size p"), _int_arg(q, "block size q")) < 1:
        raise ShapeError(f"block sizes must be at least 1, got ({p}|{q})")


def _grid_is_zero(grid):
    return all(x.is_zero() for row in grid for x in row)


def _entrywise(op, x, y):
    """The grid of op(a, b) over the entries a of x and b of y, paired by place."""
    return [[op(a, b) for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _container_arg(x, cls, what, like=None, shape=None, ctx=None):
    """x, once it is a ``cls`` (a class or a tuple of them), of the shape and
    algebra of the container ``like``, of block sizes ``shape`` = (p, q) and
    of the algebra ``ctx``, each when given; errors as the module docstring
    states, each naming the argument ``what``."""
    if not isinstance(x, cls):
        error = ShapeError if isinstance(x, _Graded) else ConfigError
        kinds = dict.fromkeys(c.__name__ for c in (cls if type(cls) is tuple else (cls,)))
        raise error(f"{what} must be a {' or '.join(kinds)}, got {type(x).__name__}")
    if like is not None:
        if x.p != like.p or x.q != like.q:
            raise ShapeError(f"{what} has shape ({x.p}|{x.q}), expected ({like.p}|{like.q})")
        ctx = like.ctx
    if shape is not None and (x.p, x.q) != shape:
        raise ShapeError(f"{what} must be ({shape[0]}|{shape[1]}), got ({x.p}|{x.q})")
    if ctx is not None and x.ctx is not ctx:
        raise ContextError(f"{what} from a different algebra")
    return x


def _container_list(xs, cls, what, member):
    """The members of the collection ``xs`` (named ``what``) as a tuple, each a ``cls``
    of the shape and algebra of the first; ``member.format(i)`` names member i."""
    mats = _collection(xs, what)
    for i, m in enumerate(mats):
        _container_arg(m, cls, member.format(i), like=mats[0])
    return mats


def _check_entries(owner, ctx, entries, even, where):
    """Check that each of ``entries`` is an ``owner._entry`` value over
    ``ctx``, even or odd as ``even`` says; ``where`` names their place in a
    parity error."""
    entry = owner._entry
    for x in entries:
        if not isinstance(x, entry):
            raise ShapeError(
                f"{type(owner).__name__} entries must be {entry.__name__} values"
            )
        if x.ctx != ctx:
            raise ContextError(f"{type(owner).__name__} entries from different algebras")
        if not (x.is_even() if even else x.is_odd()):
            parity = "even" if even else "odd"
            raise ParityError(f"{where} holds a non-{parity} value {x}")


class _Graded:
    """What graded matrices and vectors share: the algebra, the block sizes
    (p|q) and the grid ``rows`` of entries, whose first p rows are the even
    ones; a vector's grid is the one column a matrix multiplies."""

    __slots__ = ("ctx", "p", "q", "rows")

    #: the entry ring
    _entry = None

    @classmethod
    def _graded(cls, p, q, rows):
        """A value around ``rows`` without re-checking shape or grading.

        Rows may skip the check only if they are graded by construction:
        they come from arithmetic on graded values of one shape and algebra
        (a matrix acting on a vector included), from ``_map``, from
        ``_antitriangle``, or from literal rows of this class's entries over
        one algebra, placed by parity: in a matrix, odd entries only off the
        diagonal blocks and even ones only on them; in a vector, even entries
        in the first p rows and odd ones in the last q.  Everything else goes
        through the validating constructor.
        """
        m = object.__new__(cls)
        m.rows = _as_grid(rows)
        m.ctx = m.rows[0][0].ctx
        m.p = p
        m.q = q
        return m

    def _map(self, f, cls=None):
        """The value of f(x) for every entry x, as ``cls`` (by default this
        class), unchecked: f must keep the parity of every coefficient."""
        return (cls or type(self))._graded(
            self.p, self.q, [[f(x) for x in row] for row in self.rows]
        )

    def is_zero(self) -> bool:
        return _grid_is_zero(self.rows)

    def __sub__(self, other):
        _container_arg(other, type(self), "right operand", like=self)
        return self._graded(self.p, self.q, _entrywise(sub, self.rows, other.rows))

    def __eq__(self, other):
        return type(other) is type(self) and self.p == other.p and self.rows == other.rows


class GradedVector(_Graded):
    """p even coordinates and q odd ones in the entry ring of a subclass,
    held as the column grid ((e1,), ..., (ep,), (o1,), ..., (oq,)) and
    validated on construction."""

    __slots__ = ()

    def __init__(self, even, odd):
        even = _collection(even, "even")
        odd = _collection(odd, "odd")
        if not even or not odd:
            raise ShapeError("a supervector needs at least one even and one odd slot")
        # a foreign first entry has no ctx and fails the type check
        ctx = getattr(even[0], "ctx", None)
        _check_entries(self, ctx, even, True, "an even slot")
        _check_entries(self, ctx, odd, False, "an odd slot")
        self.ctx = ctx
        self.p = len(even)
        self.q = len(odd)
        self.rows = tuple((x,) for x in even + odd)

    @property
    def even(self):
        return tuple(x for x, in self.rows[: self.p])

    @property
    def odd(self):
        return tuple(x for x, in self.rows[self.p :])

    def __repr__(self):
        ev = ", ".join(str(x) for x in self.even)
        od = ", ".join(str(x) for x in self.odd)
        return f"{type(self).__name__}(even=({ev}), odd=({od}))"


class SuperVector(GradedVector):
    """A supervector of GrassmannElement constants."""

    __slots__ = ()

    _entry = GrassmannElement


class GradedMatrix(_Graded):
    """An even (p|q) matrix over the entry ring of a subclass; see the module
    docstring for the grading."""

    __slots__ = ()

    #: the GradedVector subclass the matrix acts on
    _vector = None

    def __init__(self, p: int, q: int, rows):
        _check_blocks(p, q)
        grid = _grid_arg(rows, "rows")
        d = p + q
        if len(grid) != d or any(len(r) != d for r in grid):
            raise ShapeError(f"expected a {d}x{d} grid for shape ({p}|{q})")
        # a foreign first entry has no ctx and fails the type check
        ctx = getattr(grid[0][0], "ctx", None)
        for i, row in enumerate(grid):
            top = i < p
            left, right = ("A", "Gamma") if top else ("Delta", "B")
            _check_entries(self, ctx, row[:p], top, f"row {i} of block {left}")
            _check_entries(self, ctx, row[p:], not top, f"row {i} of block {right}")
        self.ctx = ctx
        self.p = p
        self.q = q
        self.rows = grid

    # -- constructors --------------------------------------------------

    @classmethod
    def from_blocks(cls, a, gamma, delta, b):
        a, gamma, delta, b = (_grid_arg(x, f"block {name}") for x, name in
                              zip((a, gamma, delta, b), ("A", "Gamma", "Delta", "B")))
        p, q = len(a), len(b)
        for grid, name, rows, cols in ((gamma, "Gamma", p, q), (delta, "Delta", q, p)):
            if len(grid) != rows or any(len(r) != cols for r in grid):
                raise ShapeError(f"block {name} must be {rows}x{cols} for shape ({p}|{q})")
        return cls(p, q, _block_rows(a, gamma, delta, b))

    @classmethod
    def _antitriangle(cls, gamma, delta, b):
        """[[0, gamma], [delta, b]], unchecked: gamma and delta must be odd and
        b even by construction."""
        p = len(gamma)
        zero = cls._entry._lift(b[0][0].ctx.zero())
        return cls._graded(p, len(b), _block_rows([[zero] * p] * p, gamma, delta, b))

    @classmethod
    def from_supermatrix(cls, m: "SuperMatrix"):
        """The constant matrix m with its entries lifted into this ring."""
        return _container_arg(m, SuperMatrix, "matrix")._map(cls._entry._lift, cls)

    @classmethod
    def zero(cls, ctx: AlgebraContext, p: int, q: int):
        _check_blocks(p, q)
        z = cls._entry._lift(_context_arg(ctx).zero())
        d = p + q
        return cls._graded(p, q, [[z] * d for _ in range(d)])

    @classmethod
    def identity(cls, ctx: AlgebraContext, p: int, q: int):
        _check_blocks(p, q)
        z, one = cls._entry._lift(_context_arg(ctx).zero()), cls._entry._lift(ctx.one())
        d = p + q
        return cls._graded(p, q, [[one if i == j else z for j in range(d)] for i in range(d)])

    # -- blocks --------------------------------------------------------

    def block_a(self):
        return [list(r[: self.p]) for r in self.rows[: self.p]]

    def block_gamma(self):
        return [list(r[self.p :]) for r in self.rows[: self.p]]

    def block_delta(self):
        return [list(r[: self.p]) for r in self.rows[self.p :]]

    def block_b(self):
        return [list(r[self.p :]) for r in self.rows[self.p :]]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        _container_arg(other, type(self), "right operand", like=self)
        return self._graded(self.p, self.q, _entrywise(add, self.rows, other.rows))

    def __neg__(self):
        return self._map(lambda a: -a)

    def __matmul__(self, other):
        _container_arg(other, type(self), "right operand", like=self)
        return self._graded(self.p, self.q, _grid_mul(self.rows, other.rows))

    def scale(self, factor):
        """Multiply every entry by an even rational, element or entry."""
        factor = self.rows[0][0]._arg(factor, "factor")
        if not factor.is_even():
            raise ParityError("matrix scaling needs an even (or zero) factor")
        return self._map(lambda a: factor * a)

    def __rmul__(self, factor):
        if self.rows[0][0]._coerce(factor) is None:
            return NotImplemented
        return self.scale(factor)

    def rename(self, src: str, dst: str):
        """Rename variable ``src`` to ``dst`` in every polynomial or Laurent
        entry, by each entry's own ``rename``."""
        return self._map(lambda x: x.rename(src, dst))

    def apply(self, vec: GradedVector) -> GradedVector:
        """Matrix action on a supervector, of constants or of this ring."""
        if self._vector is None:
            raise ShapeError(f"a {type(self).__name__} acts on no vector")
        _container_arg(vec, (self._vector, SuperVector), "vector", like=self)
        return self._vector._graded(self.p, self.q, _grid_mul(self.rows, vec.rows))

    def __repr__(self):
        body = "; ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.rows
        )
        return f"{type(self).__name__}({self.p}|{self.q}: {body})"


class SuperMatrix(GradedMatrix):
    """An even (p|q) supermatrix of GrassmannElement constants."""

    __slots__ = ()

    _entry = GrassmannElement
    _vector = SuperVector

    def rename(self, src: str, dst: str):
        """A constant matrix has no parameter to rename."""
        raise ConfigError(f"unknown parameter {src!r}: a SuperMatrix has no parameters")


# ---------------------------------------------------------------------------
# scalar-block linear algebra (even entries only)
# ---------------------------------------------------------------------------

def _check_even_square(rows):
    grid = _grid_arg(rows, "rows")
    size = len(grid)
    if size == 0 or any(len(r) != size for r in grid):
        raise ShapeError("expected a nonempty square grid")
    if size > DET_SIZE_CAP:
        raise ShapeError(f"determinants are capped at size {DET_SIZE_CAP}")
    ctx = None
    for row in grid:
        for x in row:
            ctx = _graded_arg(x, ctx, EVEN, "determinant entry").ctx
    return grid


def det_even(rows) -> GrassmannElement:
    """Cofactor-expansion determinant of a square grid of even elements."""
    grid = _check_even_square(rows)
    return _det(grid)


def _det(grid):
    size = len(grid)
    if size == 1:
        return grid[0][0]
    if size == 2:
        return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    acc = None
    for j in range(size):
        minor = tuple(row[:j] + row[j + 1 :] for row in grid[1:])
        term = grid[0][j] * _det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def even_inverse(rows):
    """Inverse of a square grid of even elements, via adjugate over det.

    Raises NotInvertible when the body of the determinant vanishes.
    """
    grid = _check_even_square(rows)
    size = len(grid)
    det_inv = _det(grid).inverse()
    if size == 1:
        return [[det_inv]]
    out = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            minor = tuple(
                row[:i] + row[i + 1 :] for k, row in enumerate(grid) if k != j
            )
            cof = _det(minor)
            if (i + j) % 2:
                cof = -cof
            out[i][j] = cof * det_inv
    return out


# ---------------------------------------------------------------------------
# supertrace, Berezinian, reduction shape
# ---------------------------------------------------------------------------

def supertrace(m: SuperMatrix) -> GrassmannElement:
    """str M = tr A - tr B."""
    _container_arg(m, SuperMatrix, "matrix")
    acc = m.ctx.zero()
    for i in range(m.p):
        acc = acc + m.rows[i][i]
    for j in range(m.p, m.p + m.q):
        acc = acc - m.rows[j][j]
    return acc


def berezinian(m: SuperMatrix) -> GrassmannElement:
    """Ber M = det(A - Gamma B^-1 Delta) / det B (Schur-complement form)."""
    _container_arg(m, SuperMatrix, "matrix")
    b = m.block_b()
    b_inv = even_inverse(b)
    schur = _entrywise(sub, m.block_a(),
                       _grid_mul(_grid_mul(m.block_gamma(), b_inv), m.block_delta()))
    # even entries commute, so det(B^-1) = (det B)^-1; det_even caps p, the Schur size
    return det_even(schur) * _det(b_inv)


def ber_parts(m: SuperMatrix):
    """For a (1|1) matrix [[a, alpha], [beta, b]]: (a/b, beta*alpha/b^2).

    The two summands are the Berezinians of the matrix's even-reduced and
    odd-reduced parts; their sum is Ber M.
    """
    _container_arg(m, SuperMatrix, "matrix", shape=(1, 1))
    a, alpha = m.rows[0]
    beta, b = m.rows[1]
    b_inv = b.inverse()
    return (a * b_inv, beta * alpha * b_inv * b_inv)


def classify_reduction(m: SuperMatrix) -> str:
    """"odd_reduced" when A == 0, else "even_reduced" when Delta == 0,
    else "general".  A matrix with both zero reports odd_reduced."""
    _container_arg(m, SuperMatrix, "matrix")
    if _grid_is_zero(m.block_a()):
        return ODD_REDUCED
    if _grid_is_zero(m.block_delta()):
        return EVEN_REDUCED
    return GENERAL
