"""Angle and square brackets on Z2-graded algebras, with identity checks.

On an associative Z2-graded algebra the two brackets

    angle(x, y)  = x*y0 - y0*x      (y0 the even component of y)
    square(x, y) = x*y  - y*x

make the underlying space a Hu-Liu Leibniz algebra: the square bracket is
a Lie bracket, the angle bracket satisfies the Leibniz identity

    angle(angle(x,y), z) = angle(x, angle(y,z)) + angle(angle(x,z), y),

and the two brackets are tied together by the four Hu-Liu identities

    angle(x, square(y,z)) = angle(x, angle(y,z)),
    square(angle(x,x), y) = angle(angle(x,x), y),
    angle(square(x,y), z) + square(angle(y,z), x) + square(y, angle(x,z)) = 0,
    square(angle(x,y), z) + square(z, square(x,y))
        + square(z, angle(y,x)) + angle(z, angle(x,y)) = 0.

The verifier below evaluates every identity exactly, recording
counterexample witnesses instead of raising.  A residual vanishes when
the product is associative, so it is a sum of associators ``(a, b, c) =
(ab)c - a(bc)`` of graded letters, which :func:`associator_terms` derives
on a free operand: 12 for ``leibniz``, 18 for ``huliu_3``, 24 for
``jacobi``, none for the other four, which hold in every graded algebra.
All basis arguments are read off the one integer associator tensor; the
seeded random triples run through ``angle`` and ``square`` on ``Element``s.
The seven identities of one triple share its brackets: 25 of their 35 are
distinct, so a trial takes 50 ``Element`` products, not 70.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

from .algebra import (
    Element, Z2Algebra, associator_tensor, random_element, require_nonnegative_int
)
from .linalg import ExactVector, bilinear, divided, vec_add
from .report import VerificationReport, element_witness


def angle(x, y):
    """x*y0 - y0*x; depends on y only through its even component.

    The operands may be algebra ``Element``s or word ``Series``: only
    ``*``, ``-`` and ``even_part()`` are used.
    """
    y0 = y.even_part()
    return x * y0 - y0 * x


def square(x, y):
    """The commutator x*y - y*x, of two ``Element``s or two ``Series``."""
    return x * y - y * x


def _leibniz(angle, square, x, y, z):
    return angle(angle(x, y), z) - angle(x, angle(y, z)) - angle(angle(x, z), y)


def _huliu_1(angle, square, x, y, z):
    return angle(x, square(y, z)) - angle(x, angle(y, z))


def _huliu_2(angle, square, x, y, _z=None):
    a = angle(x, x)
    return square(a, y) - angle(a, y)


def _huliu_3(angle, square, x, y, z):
    return angle(square(x, y), z) + square(angle(y, z), x) + square(y, angle(x, z))


def _huliu_4(angle, square, x, y, z):
    return (
        square(angle(x, y), z)
        + square(z, square(x, y))
        + square(z, angle(y, x))
        + angle(z, angle(x, y))
    )


def _jacobi(angle, square, x, y, z):
    return square(square(x, y), z) + square(square(y, z), x) + square(square(z, x), y)


def _antisymmetry(angle, square, x, y, _z=None):
    return square(x, y) + square(y, x)


# name, residual over a bracket pair, basis argument pattern
IDENTITIES = (
    ("leibniz", _leibniz, "triple"),
    ("huliu_1", _huliu_1, "triple"),
    ("huliu_2", _huliu_2, "polarized_pair"),
    ("huliu_3", _huliu_3, "triple"),
    ("huliu_4", _huliu_4, "triple"),
    ("jacobi", _jacobi, "triple"),
    ("antisymmetry", _antisymmetry, "pair"),
)

# basis letters indexing one basis tuple: a polarized pair (e_i + e_j, e_k) has three
_LETTERS = {"triple": 3, "polarized_pair": 3, "pair": 2}


class _FreeOperand(ExactVector):
    """Int sums of binary trees over graded letters; a product drops two odd leaves."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def _like(self, terms):
        return _FreeOperand(terms)

    def _compatible(self, other):
        pass

    @staticmethod
    def _odd(tree):
        """A leaf is ``2 * letter + parity``, a product the pair of its factors."""
        return tree & 1 if type(tree) is int else sum(map(_FreeOperand._odd, tree))

    def __mul__(self, other):
        odd = self._odd
        return _FreeOperand({
            (a, b): c * d
            for a, c in self.terms.items()
            for b, d in other.terms.items()
            if not (odd(a) and odd(b))
        })


@lru_cache(maxsize=None)
def associator_terms(identity):
    """The residual of an ``IDENTITIES`` entry as a sum of graded associators.

    Sorted ``(letters, parities, alpha)``, the residual being the sum of
    ``alpha * (a, b, c)`` over the parts of these parities of the letters at
    ``letters`` (``x, y, z``; a polarized pair is ``(x + y, z)``).  ``alpha``
    is the coefficient of ``(ab)c`` in the residual of the free operands
    ``x0 + x1, y0 + y1, z0 + z1``; raises ValueError unless each ``a(bc)``
    has ``-alpha`` and no other tree survives.
    """
    name, func, pattern = identity
    x, y, z = (_FreeOperand({2 * n: 1, 2 * n + 1: 1}) for n in range(3))
    residual = func(angle, square, *((x + y, z) if pattern == "polarized_pair" else (x, y, z)))
    terms = []
    for tree, alpha in residual.terms.items():
        match tree:
            case ((int(a), int(b)), int(c)) if residual.terms.get((a, (b, c))) == -alpha:
                terms.append(((a >> 1, b >> 1, c >> 1), (a & 1, b & 1, c & 1), alpha))
    if 2 * len(terms) != len(residual.terms):
        raise ValueError(f"the {name} residual is not a combination of associators")
    return tuple(sorted(terms))


def _basis_failures(alg, identity, tensor):
    """The failing basis tuples of ``identity`` in product order, with residuals.

    Each nonzero tensor entry ``(p, q, r)`` is scattered through the terms of
    its parities: their letters take the values ``p, q, r``, and a letter they
    skip runs over the basis.  Residuals are integer vectors over ``_den**2``.
    """
    count, by_parity, residuals = _LETTERS[identity[2]], {}, {}
    for letters, parities, alpha in associator_terms(identity):
        # the first slot of each letter (None if it has none), and slots repeating one
        pick = [letters.index(m) if m in letters else None for m in range(count)]
        ties = [(s, pick[m]) for s, m in enumerate(letters) if pick[m] != s]
        by_parity.setdefault(parities, []).append((pick, ties, alpha))
    if not by_parity:
        return []
    for slots, row in tensor.items():
        for pick, ties, alpha in by_parity.get(tuple(alg.parity[s] for s in slots), ()):
            if any(slots[s] != slots[t] for s, t in ties):
                continue  # a letter in two slots takes one value
            ranges = [range(alg.dim) if p is None else (slots[p],) for p in pick]
            for basis_tuple in product(*ranges):
                residual = residuals.setdefault(basis_tuple, {})
                for n, c in row.items():
                    residual[n] = residual.get(n, 0) + alpha * c
    return sorted((t, r) for t, r in residuals.items() if any(r.values()))


def _witness(check, args, residual):
    """The witness of a failure, or None once ``check`` keeps no more."""
    if check.witness_wanted:
        return element_witness(*zip("xyz", args), ("residual", residual))


def _shared_brackets():
    """An ``(angle, square)`` pair that computes each bracket once per operand pair.

    One dict, keyed by ``(bracket, id(a), id(b))``, holds ``(a, b, result)``;
    keeping the operands keeps their ids unique while the dict lives.  The
    module's ``angle`` and ``square`` are read at each call, so a wrapper set
    on the module sees every bracket computed.
    """
    memo = {}

    def shared(bracket):
        def evaluate(a, b):
            key = bracket, id(a), id(b)
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = (a, b, bracket(a, b))
            return entry[2]

        return evaluate

    return shared(angle), shared(square)


def verify_identities(alg: Z2Algebra, trials=200, seed=0) -> VerificationReport:
    """Evaluate every bracket identity exactly and report failures.

    Each identity runs over all basis arguments (complete for multilinear
    identities, and polarization-complete for the quadratic one): dim^3
    triples or polarized pairs ``(e_i + e_j, e_k)``, or dim^2 pairs, read off
    :func:`algebra.associator_tensor` by :func:`associator_terms` and recorded
    in product order.  Then ``trials`` random triples from a nonnegative int
    ``seed`` run through ``angle`` and ``square`` on ``Element``s.  Each
    triple gets a fresh :func:`_shared_brackets` pair, so a bracket the
    seven identities repeat is computed once: 50 products per triple, not
    70.  The pair is dropped with its triple.
    """
    require_nonnegative_int("seed", seed)
    report = VerificationReport(subject=f"bracket-identities:{alg.name}")
    tensor, checks = associator_tensor(alg), []
    for identity in IDENTITIES:
        name, func, pattern = identity
        check = report.check(name)
        check.trials += alg.dim ** _LETTERS[pattern]
        for basis_tuple, row in _basis_failures(alg, identity, tensor):
            args = residual = None
            if check.witness_wanted:
                args = [alg.basis(i) for i in basis_tuple]
                if pattern == "polarized_pair":
                    args = [args[0] + args[1], args[2]]
                residual = Element._from_terms(alg, divided(row, alg._den**2))
            check.record_failure(_witness(check, args, residual))
        checks.append((check, func))
    rng = random.Random(seed)
    for _ in range(trials):
        sample = tuple(random_element(alg, rng) for _ in range(3))
        shared = _shared_brackets()
        for check, func in checks:
            check.record_trial()
            residual = func(*shared, *sample)
            if not residual.is_zero():
                check.record_failure(_witness(check, sample, residual))
    return report


def generate_subalgebra(alg, span):
    """Grow ``span``, a ``FractionSpan`` in ``alg``, in place until closed under both brackets.

    Returns ``span``, now the echelon form of the smallest subspace that
    contains what it held and is closed under ``angle`` and ``square``.
    Round by round until no bracket adds to it, a round brackets the span's
    integer echelon rows, in pivot order, with two ``bilinear`` calls on
    ``Z2Algebra._rows`` each: ``angle(a, b) = a b0 - b0 a`` (``b0`` the even
    part of ``b``), then ``square(a, b) = a b - b a``.  Each is a positive
    multiple of its rational counterpart, so the span grows exactly as on
    ``Element``s.
    """
    rows, parity = alg._rows, alg.parity
    changed = True
    while changed and span.dim < alg.dim:
        changed = False
        basis = span.integer_rows()
        for a in basis:
            for b in basis:
                b0 = {k: c for k, c in b.items() if not parity[k]}
                for c in (b0, b):
                    new = vec_add(bilinear(rows, a, c), bilinear(rows, c, a), -1)
                    if new and span.add(new):
                        changed = True
    return span
