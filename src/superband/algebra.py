"""Exact arithmetic in a finitely generated Grassmann (exterior) algebra.

An :class:`AlgebraContext` fixes the number ``n`` of anticommuting generators
xi1..xin (xi_i * xi_j = -xi_j * xi_i, so every xi_i squares to zero).  A
:class:`GrassmannElement` is a rational linear combination of monomials
xi_{i1}*...*xi_{ik} with i1 < ... < ik, stored sparsely as a dict mapping the
strictly increasing index tuple to a nonzero Fraction.  The empty tuple is the
scalar 1.

All arithmetic is exact over the rationals.  Elements are immutable; every
operation returns a new canonical element (zero coefficients dropped, index
tuples kept sorted), so structural equality is semantic equality.

Usage:

    ctx = create_algebra(3)
    x = ctx.gen(1) + ctx.gen(2)
    y = ctx.monomial((1, 3))
    x * y                 # -> -xi1*xi2*xi3
    (2 + ctx.monomial((1, 2))).inverse()
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import ConfigError, ContextError, NotInvertible, ParityError
from . import linalg

MAX_GENERATORS = 16

# parity_of() results
ZERO = "zero"
EVEN = "even"
ODD = "odd"
MIXED = "mixed"

_Rational = (int, Fraction)


@lru_cache(maxsize=None)
def _basis(n):
    """All monomial index tuples for n generators, in lexicographic order."""
    monos = []
    for r in range(n + 1):
        monos.extend(combinations(range(1, n + 1), r))
    return tuple(sorted(monos))


@lru_cache(maxsize=None)
def _graded_basis(n, parity):
    """The monomials of _basis(n) whose length has the given parity (0 or 1)."""
    return tuple(m for m in _basis(n) if len(m) % 2 == parity)


# Bounded: 4096 pairs hold every monomial pair up to n = 6; at larger n the
# least recently used pairs are merged again.
@lru_cache(maxsize=4096)
def _mul_monomials(a, b):
    """Multiply two strictly increasing index tuples.

    Returns (sign, merged) where sign counts the transpositions needed to
    interleave b into a; a repeated index gives (0, ()) since xi*xi = 0.
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    out = []
    i = j = 0
    swaps = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        if a[i] == b[j]:
            return 0, ()
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] moves past the len(a)-i generators still waiting in a
            out.append(b[j])
            j += 1
            swaps += la - i
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if swaps & 1 else 1), tuple(out)


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
        if not isinstance(n, int) or not 1 <= n <= MAX_GENERATORS:
            raise ConfigError(
                f"generator count must be an integer in 1..{MAX_GENERATORS}, got {n!r}"
            )
        ctx = _CONTEXTS.get(n)
        if ctx is None:
            ctx = object.__new__(cls)
            object.__setattr__(ctx, "n", n)
            object.__setattr__(ctx, "_zero", GrassmannElement(ctx, {}))
            object.__setattr__(ctx, "_one", GrassmannElement(ctx, {(): Fraction(1)}))
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
        if type(value) is not Fraction:
            value = Fraction(value)
        return GrassmannElement(self, {(): value} if value else {})

    def gen(self, i: int) -> "GrassmannElement":
        """The i-th generator xi_i, 1-based."""
        if not 1 <= i <= self.n:
            raise ConfigError(f"generator index {i} outside 1..{self.n}")
        return GrassmannElement(self, {(i,): Fraction(1)})

    def monomial(self, indices, coeff=1) -> "GrassmannElement":
        coeff = Fraction(coeff)
        idx = tuple(indices)
        self._check_index(idx)
        return GrassmannElement(self, {idx: coeff} if coeff else {})

    def element(self, terms) -> "GrassmannElement":
        """Element from a {index_tuple: coefficient} mapping (zeros dropped)."""
        canon = {}
        for idx, coeff in terms.items():
            idx = tuple(idx)
            self._check_index(idx)
            coeff = Fraction(coeff)
            if coeff:
                if idx in canon:
                    raise ConfigError(f"duplicate monomial {idx!r}")
                canon[idx] = coeff
        return GrassmannElement(self, canon)

    def _check_index(self, idx):
        for a, b in zip(idx, idx[1:]):
            if a >= b:
                raise ConfigError(f"monomial indices must be strictly increasing, got {idx!r}")
        if idx and (idx[0] < 1 or idx[-1] > self.n):
            raise ConfigError(f"monomial {idx!r} outside generator range 1..{self.n}")

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


class GrassmannElement:
    """A canonical sparse element of a Grassmann algebra.

    Do not mutate ``terms``; all public operations return fresh elements.
    Supports +, -, *, /, ** with other elements and with ints/Fractions.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: dict):
        _set_ctx(self, ctx)
        _set_terms(self, terms)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

    def __reduce__(self):
        return GrassmannElement, (self.ctx, self.terms)

    # -- basics -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, indices) -> Fraction:
        return self.terms.get(tuple(indices), linalg.ZERO)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def _coerce(self, other):
        if isinstance(other, GrassmannElement):
            if other.ctx is not self.ctx:
                raise ContextError(
                    f"mixing algebras with {self.ctx.n} and {other.ctx.n} generators"
                )
            return other
        if isinstance(other, _Rational):
            return self.ctx.scalar(other)
        return None

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            prev = terms.get(idx)
            if prev is None:
                terms[idx] = c
                continue
            s = prev + c
            if s:
                terms[idx] = s
            else:
                del terms[idx]
        return GrassmannElement(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(self.ctx, {idx: -c for idx, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return self.ctx._zero
        if len(b) == 1 and () in b:
            return self._scaled(b[()])
        if len(a) == 1 and () in a:
            return other._scaled(a[()])
        # sums are kept as unreduced (numerator, denominator) int pairs, so
        # each output coefficient costs one Fraction; a key whose running sum
        # cancels is dropped and re-enters at the end, as with Fraction sums
        right = [(ib, cb.numerator, cb.denominator) for ib, cb in b.items()]
        acc = {}
        for ia, ca in a.items():
            na, da = ca.numerator, ca.denominator
            for ib, nb, db in right:
                sign, idx = _mul_monomials(ia, ib)
                if not sign:
                    continue
                num = sign * na * nb
                den = da * db
                prev = acc.get(idx)
                if prev is not None:
                    pn, pd = prev
                    if pd == den:
                        num += pn
                    else:
                        num = pn * den + num * pd
                        den *= pd
                    if not num:
                        del acc[idx]
                        continue
                acc[idx] = (num, den)
        return GrassmannElement(
            self.ctx, {idx: Fraction(n, d) for idx, (n, d) in acc.items()}
        )

    def _scaled(self, c):
        """self times the nonzero rational c."""
        nc, dc = c.numerator, c.denominator
        if nc == dc:
            return self
        return GrassmannElement(
            self.ctx,
            {idx: Fraction(ca.numerator * nc, ca.denominator * dc)
             for idx, ca in self.terms.items()},
        )

    def __rmul__(self, other):
        # scalars commute with everything, so left and right agree here
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __truediv__(self, other):
        if isinstance(other, _Rational):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, GrassmannElement):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ConfigError(f"powers must be nonnegative integers, got {k!r}")
        acc = self.ctx.one()
        for _ in range(k):
            acc = acc * self
            if not acc:
                break
        return acc

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            if not isinstance(other, _Rational):
                return NotImplemented
            other = self.ctx.scalar(other)
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        # a scalar equals its Fraction, so it hashes like one
        if not self.terms.keys() - {()}:
            return hash(self.body())
        return hash((self.ctx, tuple(self.sorted_terms())))

    # -- structure ----------------------------------------------------

    def body(self) -> Fraction:
        """Coefficient of the empty monomial (the scalar part)."""
        return self.terms.get((), linalg.ZERO)

    def soul(self) -> "GrassmannElement":
        """The nilpotent remainder: self minus body."""
        terms = {idx: c for idx, c in self.terms.items() if idx}
        return GrassmannElement(self.ctx, terms)

    def body_soul(self):
        return self.body(), self.soul()

    def parity(self) -> str:
        """One of "zero", "even", "odd", "mixed" from the monomial lengths."""
        if not self.terms:
            return ZERO
        kinds = {len(idx) & 1 for idx in self.terms}
        if kinds == {0}:
            return EVEN
        if kinds == {1}:
            return ODD
        return MIXED

    def is_even(self) -> bool:
        """Even-or-zero: every monomial has even length (vacuously for 0)."""
        for idx in self.terms:
            if len(idx) & 1:
                return False
        return True

    def is_odd(self) -> bool:
        """Odd-or-zero: every monomial has odd length (vacuously for 0)."""
        for idx in self.terms:
            if not len(idx) & 1:
                return False
        return True

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
        step = soul * (Fraction(-1) / body)
        acc = self.ctx.one()
        power = self.ctx.one()
        while True:
            power = power * step
            if not power:
                break
            acc = acc + power
        return acc * (Fraction(1) / body)

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
                frag = str(c)
            elif c == 1:
                frag = mono
            elif c == -1:
                frag = f"-{mono}"
            else:
                frag = f"{c}*{mono}"
            parts.append(frag)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"<{self}>"


# the slot setters, which bypass the immutability guard in __setattr__
_set_ctx = GrassmannElement.ctx.__set__
_set_terms = GrassmannElement.terms.__set__


def coordinates(x: GrassmannElement, monomials) -> list:
    """Coefficient vector of x over an explicit monomial tuple list."""
    return [x.terms.get(m, linalg.ZERO) for m in monomials]


class AnnihilatorBasis:
    """A canonical basis of the odd annihilator of a set of odd elements.

    ``basis`` spans {gamma in odd part : gamma * a == 0 for every input a};
    vectors are linearly independent and ordered by the lexicographic odd
    monomial order, so equal inputs always produce the identical basis.
    ``free`` holds each vector's free monomial: the vector has coefficient 1
    there and 0 at every other vector's free monomial.
    """

    __slots__ = ("ctx", "generators", "basis", "free")

    def __init__(self, ctx, generators, basis, free):
        self.ctx = ctx
        self.generators = tuple(generators)
        self.basis = tuple(basis)
        self.free = tuple(free)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x: GrassmannElement) -> bool:
        if x.ctx != self.ctx:
            raise ContextError("element from a different algebra")
        if not x.is_odd():
            raise ParityError("annihilator membership is defined for odd elements")
        # a member equals sum(x[f] * b) over the basis vectors b and their
        # free monomials f, so x is a member iff that sum leaves no residue
        residual = dict(x.terms)
        for b, f in zip(self.basis, self.free):
            c = x.terms.get(f)
            if c is None:
                continue
            for m, v in b.terms.items():
                r = residual.get(m, 0) - c * v
                if r:
                    residual[m] = r
                else:
                    del residual[m]
        return not residual

    def __repr__(self):
        return f"AnnihilatorBasis(dim={self.dim}, n={self.ctx.n})"


def annihilator_odd(generators, ctx: AlgebraContext | None = None) -> AnnihilatorBasis:
    """Basis of the odd solutions gamma of gamma * a == 0 for all given a.

    ``generators`` must be odd-or-zero elements of one algebra.  The kernel is
    computed exactly over the rationals with deterministic pivoting, so the
    returned basis is canonical.  An empty or all-zero generator list gives
    the whole odd subspace (an explicit ctx is then required for the empty
    list).
    """
    gens = list(generators)
    for g in gens:
        if not isinstance(g, GrassmannElement):
            raise ConfigError("generators must be GrassmannElements")
        if ctx is None:
            ctx = g.ctx
        elif g.ctx != ctx:
            raise ContextError("generators come from different algebras")
        if not g.is_odd():
            raise ParityError(f"annihilator generators must be odd or zero, got {g}")
    if ctx is None:
        raise ConfigError("empty generator list needs an explicit ctx")

    odd = ctx.odd_monomials()
    # constraint rows: for each generator a and each monomial that occurs in
    # some odd_j * a, in basis order, the coefficient of
    # (sum_j c_j * odd_j) * a must vanish
    rows = []
    for a in gens:
        by_target = {}
        for j, m in enumerate(odd):
            for target, c in (ctx.monomial(m) * a).terms.items():
                row = by_target.get(target)
                if row is None:
                    row = by_target[target] = [linalg.ZERO] * len(odd)
                row[j] = c
        rows.extend(by_target[target] for target in sorted(by_target))
    kern, free = linalg.kernel_basis(rows, len(odd))
    basis = []
    for vec in kern:
        terms = {m: c for m, c in zip(odd, vec) if c}
        basis.append(GrassmannElement(ctx, terms))
    return AnnihilatorBasis(ctx, gens, basis, [odd[f] for f in free])


def in_odd_span(x: GrassmannElement, spanning) -> bool:
    """True iff odd-or-zero x is a rational combination of the odd spanning set."""
    if not x.is_odd():
        raise ParityError("span membership here is for odd elements")
    vectors = []
    ctx = x.ctx
    for v in spanning:
        if v.ctx != ctx:
            raise ContextError("spanning vectors from a different algebra")
        if not v.is_odd():
            raise ParityError("spanning vectors must be odd or zero")
        vectors.append(v)
    if x.is_zero():
        return True
    odd = ctx.odd_monomials()
    return linalg.in_span(
        coordinates(x, odd), [coordinates(v, odd) for v in vectors]
    )
