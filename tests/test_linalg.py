"""``linalg.echelon`` against a dense Gauss-Jordan elimination, and the
refusal of dependent spans by ``GammaSet``.

The oracle works on a dense matrix of Fractions over the sorted union of
the rows' columns and shares no code with ``linalg``: the reduced
row-echelon form is unique, so both must give the same pivots dict.  A
second, test-local copy of the elimination that clears each new pivot
column by looking in every earlier row checks the dict order of each row,
which reports print, and counts the fill-ins and cancellations the random
rows exercise.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from superband.algebra import create_algebra
from superband.errors import ConfigError
from superband.gamma import GammaSet
from superband.linalg import echelon

COEFFS = (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2))


def _dense_rref(rows):
    """{pivot column: row} by Gauss-Jordan elimination on a dense matrix."""
    cols = sorted({col for row in rows for col in row})
    m = [[Fraction(row.get(col, 0)) for col in cols] for row in rows]
    top = 0
    for j in range(len(cols)):
        p = next((i for i in range(top, len(m)) if m[i][j]), None)
        if p is None:
            continue
        m[top], m[p] = m[p], m[top]
        m[top] = [x / m[top][j] for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][j]:
                f = m[i][j]
                m[i] = [a - f * b for a, b in zip(m[i], m[top])]
        top += 1
    out = {}
    for row in m[:top]:
        entries = {col: x for col, x in zip(cols, row) if x}
        out[min(entries)] = entries
    return out


def _scan_echelon(rows, events):
    """Elimination that clears each new pivot column from every earlier row
    by looking in each; counts fill-ins and cancellations into ``events``."""

    def subtract(out, c, row):
        lead = min(row)  # the column being cleared, which always cancels
        for col, v in row.items():
            if col not in out:
                events["fill"] += 1
            r = out.get(col, 0) - c * v
            if r:
                out[col] = r
            else:
                events["cancel"] += col != lead
                del out[col]

    pivots = {}
    for row in rows:
        new = dict(row)
        for key, c in row.items():
            if key in pivots:
                subtract(new, c, pivots[key])
        if not new:
            events["dependent"] += 1
            continue
        key = min(new)
        new = {col: v / new[key] for col, v in new.items()}
        for prow in pivots.values():
            if key in prow:
                subtract(prow, prow[key], new)
        pivots[key] = new
    return pivots


def _random_rows(rng, columns):
    rows = []
    for _ in range(rng.randint(1, 12)):
        if rows and rng.random() < 0.3:
            # a combination of earlier rows: dependent on them
            row = {}
            for other in rng.sample(rows, rng.randint(1, min(3, len(rows)))):
                c = rng.choice(COEFFS)
                for col, v in other.items():
                    row[col] = row.get(col, 0) + c * v
            row = {col: v for col, v in row.items() if v}
        else:
            row = {col: rng.choice(COEFFS)
                   for col in rng.sample(columns, rng.randint(1, 4))}
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [3, 4, 5])
def test_echelon_matches_dense_gauss_jordan(n):
    columns = create_algebra(n).odd_monomials()
    events = {"fill": 0, "cancel": 0, "dependent": 0}
    for seed in range(300):
        rows = _random_rows(random.Random(f"{n}:{seed}"), columns)
        got = echelon(dict(row) for row in rows)
        assert got == _dense_rref(rows)
        scan = _scan_echelon(rows, events)
        assert list(got) == list(scan)
        assert all(list(got[k].items()) == list(scan[k].items()) for k in got)
    # the draws reach every branch of the elimination
    assert min(events.values()) > 100, events


def test_echelon_leaves_its_input_rows_alone():
    rows = [{1: Fraction(2), 2: Fraction(1)}, {2: Fraction(1), 3: Fraction(1)}]
    before = [dict(row) for row in rows]
    echelon(rows)
    assert rows == before


@pytest.mark.parametrize("position", [0, 1, 2, 3])
def test_gamma_set_refuses_a_dependent_vector_anywhere(position):
    ctx = create_algebra(4)
    independent = [ctx.gen(1) + ctx.gen(2), ctx.gen(2) - ctx.monomial((1, 2, 3)),
                   ctx.gen(4) * 3]
    GammaSet(independent)  # accepted
    combination = independent[0] - independent[1] * 2 + independent[2]
    for extra in (combination, ctx.zero()):
        span = list(independent)
        span.insert(position, extra)
        with pytest.raises(ConfigError, match="^span vectors must be linearly independent$"):
            GammaSet(span)
