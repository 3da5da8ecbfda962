"""Exact rational linear algebra over sparse vectors with arbitrary keys.

Vectors are ``dict[key, Fraction]`` mappings with no explicit zeros.  Keys
can be basis indices (small ints) or word tuples; the pivot of a vector is
its smallest key under a fixed sort order, which makes every elimination
deterministic: repeated runs produce identical spans, witnesses and
reports.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction


def vec_add(a, b, scale=1):
    """a + scale*b with exact zeros dropped."""
    scale = Fraction(scale)
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + scale * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class FractionSpan:
    """A linear span kept in echelon form, pivoting on the smallest key.

    With ``track=True`` every echelon row also remembers its expression
    over the inserted vectors, so :meth:`reduce` can return an exact
    witness combination for membership.
    """

    def __init__(self, sort_key=None, track=False):
        self._key = sort_key if sort_key is not None else (lambda k: k)
        self._rows: dict = {}    # pivot key -> vector, pivot coefficient 1
        self._combos: dict = {}  # pivot key -> {insertion index: Fraction}
        self._track = track
        self._n_inserted = 0

    @property
    def dim(self):
        return len(self._rows)

    def rows(self):
        """Echelon rows in pivot order (each pivot coefficient is 1)."""
        return [dict(self._rows[p]) for p in sorted(self._rows, key=self._key)]

    def reduce(self, vec):
        """Fully reduce ``vec`` against the span.

        Returns ``(residual, combo)`` with ``vec = sum(combo[i] * inserted_i)
        + residual`` exactly; ``combo`` is empty unless tracking is on.
        The residual is canonical: it has no support on any pivot key.
        """
        work = {k: Fraction(v) for k, v in vec.items() if v}
        order = sorted(work, key=self._key)
        pos = 0
        residual = {}
        combo: dict = {}
        while pos < len(order):
            key = order[pos]
            pos += 1
            coeff = work.pop(key, 0)
            if not coeff:
                continue
            row = self._rows.get(key)
            if row is None:
                residual[key] = coeff
                continue
            for k, v in row.items():
                if k == key:
                    continue
                s = work.get(k, 0) - coeff * v
                if s:
                    if k not in work:
                        # introduced keys are strictly larger than `key`
                        insort(order, k, lo=pos, key=self._key)
                    work[k] = s
                else:
                    work.pop(k, None)
            if self._track:
                for idx, v in self._combos[key].items():
                    s = combo.get(idx, 0) + coeff * v
                    if s:
                        combo[idx] = s
                    else:
                        combo.pop(idx, None)
        return residual, combo

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        index = self._n_inserted
        self._n_inserted += 1
        residual, combo = self.reduce(vec)
        if not residual:
            return False
        pivot = min(residual, key=self._key)
        lead = residual[pivot]
        row = {k: v / lead for k, v in residual.items()}
        self._rows[pivot] = row
        if self._track:
            # row = (inserted - sum(combo * originals)) / lead
            rc = {index: Fraction(1, 1) / lead}
            for idx, v in combo.items():
                s = rc.get(idx, 0) - v / lead
                if s:
                    rc[idx] = s
                else:
                    rc.pop(idx, None)
            self._combos[pivot] = rc
        return True

    def contains(self, vec):
        residual, _ = self.reduce(vec)
        return not residual


def solve_columns(columns, target, sort_key=None):
    """Solve ``sum_j c_j * columns[j] = target`` exactly.

    Returns the coefficient list (one deterministic witness when the
    system is underdetermined) or None when no exact solution exists.
    """
    span = FractionSpan(sort_key=sort_key, track=True)
    for col in columns:
        span.add(col)
    residual, combo = span.reduce(target)
    if residual:
        return None
    return [combo.get(j, Fraction(0)) for j in range(len(columns))]
