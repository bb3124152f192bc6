"""Exact sparse elimination over Fraction.

A row is a dict {column: nonzero Fraction}, its columns any ordered keys,
and each row's pivot is its leftmost column.  ``algebra.annihilator_odd``
keys columns by position in the lexicographic list of odd monomials; a
``GrassmannElement.terms`` dict is a row keyed by monomial mask.  An echelon
form is a dict {pivot column: row} in which every row is 1 at its own pivot
and 0 at every other pivot, which makes it the reduced row-echelon form.

For a fixed column order the reduced row-echelon form of a matrix is
unique: it depends only on the row space, not on the order in which rows
are eliminated or on how the zeros are stored.  Any exact elimination
therefore finds the same pivots, the same free columns and the same
canonical kernel basis, so callers' outputs are fixed by their inputs.

``echelon`` is the only builder of echelon forms.  It finds the earlier
rows holding each new pivot column through the column index of sparse
direct solvers (T. A. Davis, *Direct Methods for Sparse Linear Systems*,
SIAM 2006): ``holders`` maps each column to the keys of the pivot rows that
have held an entry there, recorded on insertion and for each fill-in; a
holder whose entry has since cancelled is skipped.

Rows are combined by ``_merge``, scaled and negated through ``_ratio``, on
the int numerator and denominator pairs of their Fractions: the rule by
which ``algebra`` sums term dicts as well, so elimination calls none of
``Fraction``'s Python-level operators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

ZERO = Fraction(0)
ONE = Fraction(1)
_new = object.__new__


def _merge(terms, other, nc=1, dc=1):
    """terms += nc / dc * other in place, for rows of Fractions and
    nc / dc nonzero in lowest terms, dc > 0; a key whose sum cancels is
    deleted, and re-enters at the end if it returns."""
    for idx, c in other.items():
        prev = terms.get(idx)
        if prev is None:
            terms[idx] = c if nc == dc else _ratio(c._numerator * nc, c._denominator * dc)
            continue
        pn, pd = prev._numerator, prev._denominator
        cn, cd = c._numerator * nc, c._denominator * dc
        if pd != cd:
            pn, cn, pd = pn * cd, cn * pd, pd * cd
        if num := pn + cn:
            terms[idx] = _ratio(num, pd)
        else:
            del terms[idx]


def _ratio(n, d):
    """The Fraction n/d of the ints n and d > 0.

    Reduces by gcd and sets the two slots of a bare Fraction, as CPython's
    ``fractions`` does internally for a pair it knows to be coprime, so the
    Python-level ``Fraction.__new__`` and its type dispatch are skipped.  The
    result is the same canonical Fraction that ``Fraction(n, d)`` returns.
    """
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    f = _new(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def residue(row, pivots):
    """``row`` minus row[k] * pivots[k] for every pivot column k of ``row``.

    ``pivots`` maps keys to rows that are 1 at their own key and 0 at every
    other key, as an echelon form and a canonical kernel basis (keyed by
    free column) are.  A row in their span equals that sum, so it leaves no
    residue; any other row leaves the part the span cannot reach.
    """
    out = dict(row)
    for key, c in row.items():
        prow = pivots.get(key)
        if prow is not None:
            _merge(out, prow, -c._numerator, c._denominator)
    return out


def echelon(rows) -> dict:
    """The reduced row-echelon form of ``rows`` as {pivot column: row}."""
    pivots = {}
    holders = {}
    for row in rows:
        new = residue(row, pivots)
        if not new:
            continue
        key = min(new)
        n, d = new[key]._numerator, new[key]._denominator
        if n != d:  # divide the row by its pivot n/d, keeping denominators positive
            if n < 0:
                n, d = -n, -d
            new = {col: _ratio(v._numerator * d, v._denominator * n) for col, v in new.items()}
        # clear the new pivot column from the rows holding it; each has its
        # own pivot left of it, so they stay in echelon form
        for k in holders.pop(key, ()):
            prow = pivots[k]
            c = prow.get(key)
            if c is None:  # cancelled since it was recorded
                continue
            for col in new:
                if col not in prow:
                    holders.setdefault(col, []).append(k)
            _merge(prow, new, -c._numerator, c._denominator)
        for col in new:
            if col != key:
                holders.setdefault(col, []).append(key)
        pivots[key] = new
    return pivots


def kernel_basis(pivots, columns):
    """The right kernel {v : rows @ v = 0} of an echelon form, as
    (basis, free columns).

    The free columns are the ``columns`` that are no pivot, in the order
    given.  There is one basis vector per free column, 1 there, 0 at every
    other free column and minus that column's entry at each pivot, so a
    kernel vector v equals sum(v[f] * b for b, f in zip(basis, free)).
    """
    free = [col for col in columns if col not in pivots]
    basis = {f: {f: ONE} for f in free}
    for key, prow in pivots.items():
        for col, v in prow.items():
            if col != key:
                basis[col][key] = _ratio(-v._numerator, v._denominator)
    return list(basis.values()), free
