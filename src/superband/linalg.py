"""Exact sparse elimination over Fraction.

A row is a dict {column: nonzero Fraction}; a ``GrassmannElement.terms``
dict is one, with its monomials as columns.  Columns are ordered by their
keys' natural order, which for monomial tuples is the lexicographic basis
order, and each row's pivot is its leftmost column.  An echelon form is a
dict {pivot column: row} in which every row is 1 at its own pivot and 0 at
every other pivot, which makes it the reduced row-echelon form.

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
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _subtract(out, c, row):
    """out -= c * row, in place, dropping the entries that cancel."""
    for col, v in row.items():
        r = out.get(col, ZERO) - c * v
        if r:
            out[col] = r
        else:
            del out[col]


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
            _subtract(out, c, prow)
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
        inv = ONE / new[key]
        if inv != 1:
            new = {col: v * inv for col, v in new.items()}
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
            _subtract(prow, c, new)
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
                basis[col][key] = -v
    return list(basis.values()), free
