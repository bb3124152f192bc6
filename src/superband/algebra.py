"""Exact arithmetic in a finitely generated Grassmann (exterior) algebra.

An :class:`AlgebraContext` fixes the number ``n`` of anticommuting generators
xi1..xin (xi_i * xi_j = -xi_j * xi_i, so every xi_i squares to zero).  A
:class:`GrassmannElement` is a rational linear combination of monomials
xi_{i1}*...*xi_{ik} with i1 < ... < ik.  All arithmetic is exact over the
rationals.  Elements are immutable and canonical (zero coefficients
dropped), so structural equality is semantic equality.

The key rule: ``terms`` maps each monomial's mask (bit i - 1 set for xi_i,
0 for the scalar 1) to its nonzero Fraction, and every other name speaks in
increasing index tuples: ``coefficient``, ``sorted_terms``, printing, JSON,
the monomial enumerations, ``AnnihilatorBasis.free`` and the one checked
constructor ``GrassmannElement(ctx, {index_tuple: c})``.  ``_mask`` and
``_indices`` convert.  Masks are the basis-blade bitmaps of Dorst, Fontijne
and Mann (*Geometric Algebra for Computer Science*, 2007, ch. 19): monomials
with ``ma & mb`` share a generator, so their product is zero; otherwise it
is +-(ma | mb), negative when moving each generator of b left past those of
a above it takes an odd number of swaps, that is when
``(_above(ma) & mb).bit_count()`` is odd, a rule only ``__mul__`` applies.

Sums and products work on the int numerator/denominator pairs of the
coefficients and build each output coefficient once, through ``_ratio``:
the pair is reduced by gcd and stored into the two slots of a bare
Fraction.  ``Fraction(n, d)`` gives the same value, but its Python-level
constructor was the largest single cost left in products at n = 4, where
most operands have one term.  ``_ratio`` and ``_merge`` (which adds a
scaled term dict in place) live in ``linalg``, which eliminates with them.
Only ``linalg`` and this module touch those slots; a test pins their names.

``GrassmannElement`` and ``poly.SparsePoly`` both keep an immutable canonical
``terms`` dict over one context, so the storage, the immutability guard,
operand coercion (``_coerce``, and ``_arg``, which refuses by name), ``+``
and the arithmetic that follows from ``+``, unary ``-`` and ``*`` live once,
in their base ``_Sparse``; each kind supplies the hooks ``_lift`` (which
graded matrices lift entries through) and ``_merge_into``.  ``_unchecked``
wraps terms canonical by construction.  ``x / y`` is ``x * y.inverse()``,
with an element or a rational on either side.

Usage:

    ctx = create_algebra(3)
    x = ctx.gen(1) + ctx.gen(2)
    y = ctx.monomial((1, 3))
    x * y                 # -> -xi1*xi2*xi3
    (2 + ctx.monomial((1, 2))).inverse()
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from itertools import combinations

from .errors import ConfigError, ContextError, NotInvertible, ParityError
from . import linalg
from .linalg import _merge, _ratio

MAX_GENERATORS = 16

# parity_of() results
ZERO = "zero"
EVEN = "even"
ODD = "odd"
MIXED = "mixed"

_Rational = (int, Fraction)


@cache
def _basis(n):
    """All monomial index tuples for n generators, in lexicographic order."""
    monos = []
    for r in range(n + 1):
        monos.extend(combinations(range(1, n + 1), r))
    return tuple(sorted(monos))


@cache
def _graded_basis(n, parity):
    """The monomials of _basis(n) whose length has the given parity (0 or 1)."""
    return tuple(m for m in _basis(n) if len(m) % 2 == parity)


@cache
def _masks(n, parity=None):
    """The masks of _basis(n), or of _graded_basis(n, parity), in order."""
    return tuple(map(_mask, _basis(n) if parity is None else _graded_basis(n, parity)))


def _mask(idx):
    """The mask of the index tuple idx."""
    mask = 0
    for i in idx:
        mask |= 1 << (i - 1)
    return mask


def _indices(mask):
    """The index tuple of mask, one lowest set bit at a time."""
    idx = []
    while mask:
        low = mask & -mask
        idx.append(low.bit_length())
        mask ^= low
    return tuple(idx)


def _above(mask):
    """Bit j is the parity of the generators of mask above xi_{j+1}; the four
    shifts fold in the next 16 bits, as many as MAX_GENERATORS."""
    above = mask >> 1
    for k in 1, 2, 4, 8:
        above ^= above >> k
    return above


_CONTEXTS = {}


class AlgebraContext:
    """Immutable context fixing the generator count of a Grassmann algebra.

    There is one context per ``n``: ``AlgebraContext(n)`` (and copying or
    unpickling one) returns the shared instance, so equality, which is
    identity, means equal ``n``.  Elements refuse arithmetic across different
    generator counts with :class:`ContextError`.
    """

    __slots__ = ("n", "_zero", "_one")

    def __new__(cls, n: int):
        _int_arg(n, "number of generators", 1, MAX_GENERATORS)
        ctx = _CONTEXTS.get(n)
        if ctx is None:
            ctx = object.__new__(cls)
            object.__setattr__(ctx, "n", n)
            object.__setattr__(ctx, "_zero", _unchecked(GrassmannElement, ctx, {}))
            object.__setattr__(ctx, "_one", _unchecked(GrassmannElement, ctx, {0: Fraction(1)}))
            _CONTEXTS[n] = ctx
        return ctx

    def __reduce__(self):
        return AlgebraContext, (self.n,)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraContext is immutable")

    def __repr__(self):
        return f"AlgebraContext(n={self.n})"

    # -- constructors -------------------------------------------------

    def zero(self) -> "GrassmannElement":
        return self._zero

    def one(self) -> "GrassmannElement":
        return self._one

    def scalar(self, value) -> "GrassmannElement":
        if type(value) is int:
            value = _ratio(value, 1)
        elif type(value) is not Fraction:
            value = _rational_arg(value, "scalar")
        return _unchecked(GrassmannElement, self, {0: value} if value else {})

    def gen(self, i: int) -> "GrassmannElement":
        """The i-th generator xi_i, 1-based."""
        mask = 1 << (_int_arg(i, "generator index", 1, self.n) - 1)
        return _unchecked(GrassmannElement, self, {mask: Fraction(1)})

    def monomial(self, indices, coeff=1) -> "GrassmannElement":
        return GrassmannElement(self, {_collection(indices, "monomial indices"): coeff})

    def element(self, terms) -> "GrassmannElement":
        """Element from a {index_tuple: coefficient} mapping (zeros dropped)."""
        return GrassmannElement(self, terms)

    def _check_index(self, indices):
        """``indices`` as a tuple, once it is a monomial of this algebra: integers
        in 1..n, each above the one before (else ConfigError at the first that is not)."""
        idx = tuple(indices)
        last = 0
        for i in idx:
            if type(i) is not int or not 1 <= i <= self.n:
                raise ConfigError(f"monomial {idx!r} outside generator range 1..{self.n}")
            if i <= last:
                raise ConfigError(f"monomial indices must be strictly increasing, got {idx!r}")
            last = i
        return idx

    # -- monomial enumeration -----------------------------------------

    def basis(self):
        """All monomial index tuples, lexicographically ordered."""
        return _basis(self.n)

    def odd_monomials(self):
        return _graded_basis(self.n, 1)

    def even_monomials(self):
        return _graded_basis(self.n, 0)


def create_algebra(n: int) -> AlgebraContext:
    """Create the Grassmann algebra context with n generators (1 <= n <= 16)."""
    return AlgebraContext(n)


class _Sparse:
    """An immutable canonical ``terms`` dict over one AlgebraContext: the base
    of GrassmannElement and poly.SparsePoly.

    The constructor stores ``terms`` as given.  ``_coerce`` and ``+`` live
    here; a subclass supplies two hooks for them, ``_lift`` (an element of
    ``ctx`` as a value of its own kind) and ``_merge_into(terms, other)``
    (adds the terms dict ``other`` into ``terms`` in place, dropping cancelled
    keys), and adds its checks, ``__neg__``, ``__mul__``, equality, hashing
    and printing; subtraction, reflected products and powers follow.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: dict):
        _set_ctx(self, ctx)
        _set_terms(self, terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _unchecked, (type(self), self.ctx, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def _coerce(self, other):
        """other as a value of this kind over ``ctx``: as it is when it is one,
        lifted when an element or a rational, None for an unknown type."""
        if type(other) is not type(self):
            if isinstance(other, _Rational):
                return self._lift(self.ctx.scalar(other))
            if not isinstance(other, GrassmannElement):
                return None
            other = self._lift(other)
        if other.ctx is not self.ctx:
            raise ContextError(f"mixing algebras with {self.ctx.n} and {other.ctx.n} generators")
        return other

    def _arg(self, other, what):
        """``_coerce(other)``, refusing an unknown type with ConfigError naming ``what``."""
        x = self._coerce(other)
        if x is None:
            raise ConfigError(
                f"{what} must be a {type(self).__name__} or a scalar, got {type(other).__name__}"
            )
        return x

    def __add__(self, other):
        if type(other) is not type(self) or other.ctx is not self.ctx:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        self._merge_into(terms, other.terms)
        return _unchecked(type(self), self.ctx, terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + (-self)

    def __rmul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other * self

    def __pow__(self, k):
        acc = self._coerce(self.ctx.one())
        for _ in range(_int_arg(k, "power", 0)):
            acc = acc * self
            if not acc:
                break
        return acc


# the slot setters, which bypass the immutability guard in __setattr__
_set_ctx = _Sparse.ctx.__set__
_set_terms = _Sparse.terms.__set__
_new = object.__new__


def _unchecked(cls, ctx, terms):
    """A ``cls`` value around ``terms`` without the subclass's checks.

    Only for terms already canonical for ``cls`` over ``ctx`` (keyed by mask
    for an element): results of arithmetic, and of the builders that make
    them so.  Everything else goes through the checked constructor.  A plain
    function, since this is the hot path of every product.
    """
    x = _new(cls)
    _set_ctx(x, ctx)
    _set_terms(x, terms)
    return x


class GrassmannElement(_Sparse):
    """A canonical sparse element of a Grassmann algebra.

    Do not mutate ``terms``; all public operations return fresh elements.
    Supports +, -, *, /, ** with other elements and with ints/Fractions.
    """

    __slots__ = ()

    def __init__(self, ctx: AlgebraContext, terms):
        """The element of ``ctx`` with the {index_tuple: coefficient} terms, each
        tuple increasing in 1..n and none twice (else ConfigError), zeros dropped."""
        _context_arg(ctx)
        canon = {}
        for idx, coeff in _dict_arg(terms, "terms").items():
            mask = _mask(ctx._check_index(idx))
            if mask in canon:
                raise ConfigError(f"duplicate monomial {tuple(idx)!r}")
            canon[mask] = _rational_arg(coeff, "coefficient")
        super().__init__(ctx, {m: c for m, c in canon.items() if c})

    # -- basics -------------------------------------------------------

    def coefficient(self, indices) -> Fraction:
        return self.terms.get(_mask(self.ctx._check_index(indices)), linalg.ZERO)

    def sorted_terms(self):
        """The (index tuple, coefficient) pairs in lexicographic order."""
        return sorted((_indices(m), c) for m, c in self.terms.items())

    # the hooks of _Sparse._coerce and +: an element is its own lift, and
    # _merge is bound with no frame of its own, since + is a hot path
    _merge_into = staticmethod(_merge)

    @staticmethod
    def _lift(x):
        return x

    # -- ring operations ----------------------------------------------

    def __neg__(self):
        return self._scaled(-1, 1)

    def __mul__(self, other):
        if type(other) is not GrassmannElement or other.ctx is not self.ctx:
            if isinstance(other, _Rational):
                return self._times(other)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return self.ctx._zero
        if len(b) == 1 and 0 in b:
            c = b[0]
            return self._scaled(c._numerator, c._denominator)
        if len(a) == 1 and 0 in a:
            c = a[0]
            return other._scaled(c._numerator, c._denominator)
        # Sums are kept by product mask as unreduced int pairs, so each
        # output coefficient costs one _ratio; a key whose running sum
        # cancels is dropped and re-enters at the end, as with Fraction sums.
        acc = {}
        for ma, ca in a.items():
            na, da = ca._numerator, ca._denominator
            s = _above(ma)
            for mb, cb in b.items():
                if ma & mb:
                    continue
                num = cb._numerator * na
                if (s & mb).bit_count() & 1:
                    num = -num
                den = cb._denominator * da
                m = ma | mb
                prev = acc.get(m)
                if prev is not None:
                    pn, pd = prev
                    if pd == den:
                        num += pn
                    else:
                        num = pn * den + num * pd
                        den *= pd
                    if not num:
                        del acc[m]
                        continue
                acc[m] = (num, den)
        return _unchecked(GrassmannElement, self.ctx,
                          {m: _ratio(n, d) for m, (n, d) in acc.items()})

    def _scaled(self, nc, dc):
        """self times the nonzero rational nc / dc, in lowest terms, dc > 0."""
        if nc == dc:
            return self
        return _unchecked(
            GrassmannElement, self.ctx,
            {idx: _ratio(ca._numerator * nc, ca._denominator * dc)
             for idx, ca in self.terms.items()},
        )

    def _times(self, r):
        """self times the int or Fraction r, with no scalar element built."""
        if not r or not self.terms:
            return self.ctx._zero
        if isinstance(r, int):
            return self._scaled(r, 1)
        return self._scaled(r._numerator, r._denominator)

    def __truediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other * self.inverse()

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            if not isinstance(other, _Rational):
                return NotImplemented
            other = self.ctx.scalar(other)
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        # a scalar equals its Fraction, so it hashes like one
        if not self.terms.keys() - {0}:
            return hash(self.body())
        return hash((self.ctx, tuple(self.sorted_terms())))

    # -- structure ----------------------------------------------------

    def body(self) -> Fraction:
        """Coefficient of the empty monomial (the scalar part)."""
        return self.terms.get(0, linalg.ZERO)

    def soul(self) -> "GrassmannElement":
        """The nilpotent remainder: self minus body."""
        return _unchecked(GrassmannElement, self.ctx,
                          {m: c for m, c in self.terms.items() if m})

    def body_soul(self):
        return self.body(), self.soul()

    def parity(self) -> str:
        """One of "zero", "even", "odd", "mixed" from the monomial lengths."""
        if not self.terms:
            return ZERO
        return EVEN if self.is_even() else ODD if self.is_odd() else MIXED

    def is_even(self) -> bool:
        """Even-or-zero: every monomial has even length (vacuously for 0)."""
        return not any(m.bit_count() & 1 for m in self.terms)

    def is_odd(self) -> bool:
        """Odd-or-zero: every monomial has odd length (vacuously for 0)."""
        return all(m.bit_count() & 1 for m in self.terms)

    # -- inversion and nilpotency -------------------------------------

    def inverse(self) -> "GrassmannElement":
        """Multiplicative inverse via the terminating Neumann series.

        With x = body + soul and body != 0,
        1/x = (1/body) * sum_k (-soul/body)^k; the series stops once the
        power vanishes, which it must because soul is nilpotent.
        """
        body, soul = self.body_soul()
        if body == 0:
            raise NotInvertible("body vanishes, element has no inverse")
        # 1/body = d/n, with the sign moved into d so that n > 0 for _scaled
        n, d = body._numerator, body._denominator
        if n < 0:
            n, d = -n, -d
        step = soul._scaled(-d, n)
        acc = self.ctx.one()
        power = self.ctx.one()
        while True:
            power = power * step
            if not power:
                break
            acc = acc + power
        return acc._scaled(d, n)

    def nilpotency_index(self):
        """Smallest k >= 1 with self**k == 0, or None if body is nonzero."""
        if self.body() != 0:
            return None
        power = self
        k = 1
        while power:
            power = power * self
            k += 1
        return k

    # -- display ------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for idx, c in self.sorted_terms():
            mono = "*".join(f"xi{i}" for i in idx)
            if not idx:
                frag = _coefficient_str(c)
            elif c == 1:
                frag = mono
            elif c == -1:
                frag = f"-{mono}"
            else:
                frag = f"{_coefficient_str(c)}*{mono}"
            parts.append(frag)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"<{self}>"


def _coefficient_str(c) -> str:
    """The text of the coefficient c, as every printed or serialized element
    writes it.  Sums over many entries can grow a coefficient past Python's
    int-to-str digit limit; that refusal is a ConfigError naming the limit."""
    try:
        return str(c)
    except ValueError:
        raise ConfigError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits,"
            " the int-to-str limit of this Python (sys.set_int_max_str_digits)"
        ) from None


class _OddSpan:
    """The span of the odd elements ``basis`` of one algebra, the base of
    AnnihilatorBasis and gamma.GammaSet, with its pivot rows ``_rows`` for
    ``linalg.residue``.  Each subclass names ``contains`` itself, since
    perfbench traces the methods a class defines."""

    __slots__ = ("ctx", "basis", "_rows")

    def __init__(self, ctx, basis, rows):
        self.ctx = ctx
        self.basis = tuple(basis)
        self._rows = rows

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x: GrassmannElement) -> bool:
        """Whether the odd element x of this algebra lies in the span."""
        return not linalg.residue(_graded_arg(x, self.ctx, ODD, "span member").terms, self._rows)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, n={self.ctx.n})"


class AnnihilatorBasis(_OddSpan):
    """A canonical basis of the odd annihilator of a set of odd elements.

    ``basis`` spans {gamma in odd part : gamma * a == 0 for every input a};
    vectors are linearly independent and ordered by the lexicographic odd
    monomial order, so equal inputs always produce the identical basis.
    ``free`` holds each vector's free monomial, read off the pivot rows when
    it is read: the vector has coefficient 1 there and 0 at every other
    vector's free monomial.  The constructor takes those monomials as masks.
    """

    __slots__ = ()
    contains = _OddSpan.contains

    def __init__(self, ctx, basis, free):
        basis = _collection(basis, "basis")
        rows = zip(_collection(free, "free"), (b.terms for b in basis))
        super().__init__(_context_arg(ctx), basis, dict(rows))

    @property
    def free(self):
        return tuple(map(_indices, self._rows))


def annihilator_odd(generators, ctx: AlgebraContext | None = None) -> AnnihilatorBasis:
    """Basis of the odd solutions gamma of gamma * a == 0 for all given a.

    ``generators`` must be odd-or-zero elements of one algebra.  The kernel is
    computed exactly over the rationals with deterministic pivoting, so the
    returned basis is canonical.  An empty or all-zero generator list gives
    the whole odd subspace (an explicit ctx is then required for the empty
    list).
    """
    gens, ctx = _odd_args(generators, ctx, "annihilator generators", "annihilator generator")
    odd = _masks(ctx.n, 1)
    # constraint rows: for each generator a and each monomial that occurs in
    # some odd_j * a, the coefficient of (sum_j c_j * odd_j) * a must vanish.
    # Column j is the position of odd_j in the lexicographic odd list, so
    # pivots and free columns come in that order.
    rows = []
    for a in gens:
        by_target = {}
        for j, monomial in enumerate(_odd_elements(ctx)):
            for m, c in (monomial * a).terms.items():
                by_target.setdefault(m, {})[j] = c
        rows.extend(by_target.values())
    basis, free = linalg.kernel_basis(linalg.echelon(rows), range(len(odd)))
    vectors = [_unchecked(GrassmannElement, ctx, {odd[j]: c for j, c in v.items()})
               for v in basis]
    return AnnihilatorBasis(ctx, vectors, [odd[j] for j in free])


@cache
def _odd_elements(ctx):
    """The odd monomials of ``ctx`` as elements, in lexicographic order."""
    return tuple(_unchecked(GrassmannElement, ctx, {m: linalg.ONE}) for m in _masks(ctx.n, 1))


def _combination(ctx, vectors, coeffs):
    """Sum of ``v * c`` over ``vectors`` with ``c`` drawn lazily, in order, from ``coeffs``."""
    terms = {}
    for v, c in zip(vectors, coeffs):
        if c:
            _merge(terms, v.terms, c.numerator, c.denominator)
    return _unchecked(GrassmannElement, ctx, terms)


def _odd_args(xs, ctx, what, member):
    """The collection ``xs`` (named ``what``) of odd-or-zero elements (each a
    ``member``) of one algebra as a tuple, and ``ctx``, else their context."""
    xs = _collection(xs, what)
    ctx = None if ctx is None else _context_arg(ctx)
    for x in xs:
        ctx = _graded_arg(x, ctx, ODD, member).ctx
    if ctx is None:
        raise ConfigError(f"with no {member} an explicit ctx is needed")
    return xs, ctx


def _collection(xs, what):
    """``xs`` as a tuple, once it is iterable (else ConfigError naming ``what``)."""
    try:
        members = iter(xs)
    except TypeError:
        raise ConfigError(f"{what} must be a collection, got {type(xs).__name__}") from None
    return tuple(members)


def _context_arg(ctx):
    """ctx, once it is an AlgebraContext (else ConfigError)."""
    if type(ctx) is not AlgebraContext:
        raise ConfigError(f"ctx must be an AlgebraContext, got {type(ctx).__name__}")
    return ctx


def _int_arg(x, what, lo=None, hi=None):
    """x, once it is an int (a bool is not) of at least ``lo`` and at most
    ``hi``, each bound when given (else ConfigError naming ``what``)."""
    if type(x) is not int or lo is not None and x < lo or hi is not None and x > hi:
        rule = f" in {lo}..{hi}" if hi is not None else "" if lo is None else f" >= {lo}"
        raise ConfigError(f"{what} must be an integer{rule}, got {x!r}")
    return x


def _dict_arg(x, what):
    """x, once it is a dict (else ConfigError naming ``what``)."""
    if not isinstance(x, dict):
        raise ConfigError(f"{what} must be a dict, got {type(x).__name__}")
    return x


def _rational_arg(x, what):
    """Fraction(x), once that is a rational (else ConfigError naming ``what``)."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"{what} must be a rational, got {x!r}") from None


def _graded_arg(x, ctx, parity, what):
    """x, once it is a GrassmannElement (else ConfigError), of ``ctx`` unless
    that is None (else ContextError), and odd-or-zero or even-or-zero when
    ``parity`` is ODD or EVEN (else ParityError).  Every message names the
    argument ``what``.  A caller checking several elements of one algebra
    passes each the ctx of the one before: ``ctx = _graded_arg(...).ctx``."""
    if not isinstance(x, GrassmannElement):
        raise ConfigError(f"{what} must be a GrassmannElement, got {type(x).__name__}")
    if ctx is not None and x.ctx is not ctx:
        raise ContextError(f"{what} is from a different algebra")
    if parity == ODD and not x.is_odd() or parity == EVEN and not x.is_even():
        raise ParityError(f"{what} must be {parity} or zero, got {x}")
    return x
