"""Truncated free Z2-graded associative algebra and the extended CBH series.

Generators come in four symbols x, y, u, w, each split into an even and an
odd part: x = x0 + x1 and so on.  Words are concatenations of the eight
letters, subject to the grading quotient: a word containing two or more
odd letters is identically zero.  (Two odd segments separated by even
letters still die, because even*odd stays odd and odd*odd vanishes.)
Words with no odd letter are even, words with exactly one are odd.

A :class:`Series` is a finite rational linear combination of such words up
to a fixed truncation degree, with formal exp, log and geometric inverse.
The central computation is

    z = log( E0(u) * exp(x) * E0(u)^-1 * E0(w) * exp(y) * E0(w)^-1 )

where E0(v) is the even part of exp(v0 + v1); with u = w = 0 this reduces
to the classical Campbell-Baker-Hausdorff series of x and y.  The module
also expands angle/square bracket expressions into word coordinates,
re-fits the computed series onto bracket monomials (Lyndon words over
angle-wrapped letters), and diffs it against a hard-coded reference
listing of the printed low-degree terms, reporting rather than repairing
any mismatch.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .linalg import solve_columns


class TruncationMismatch(Exception):
    pass


class BadConstantTerm(Exception):
    pass


class InconsistentSystem(Exception):
    """The computed series left the bracket span; indicates an engine bug."""


GENERATOR_NAMES = ("x0", "x1", "y0", "y1", "u0", "u1", "w0", "w1")
_LETTER = {name: i for i, name in enumerate(GENERATOR_NAMES)}
SYMBOLS = ("x", "y", "u", "w")

MAX_TRUNCATION = 8


def _word_key(word):
    return (len(word), word)


def _odd_count(word):
    return sum(letter & 1 for letter in word)


def word_name(word):
    return " ".join(GENERATOR_NAMES[letter] for letter in word) if word else "1"


class Series:
    """Truncated rational word polynomial in the eight graded generators."""

    __slots__ = ("truncation", "terms")

    def __init__(self, truncation, terms=None):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if len(word) > truncation or _odd_count(word) >= 2:
                    continue
                coeff = Fraction(coeff)
                if coeff:
                    clean[word] = coeff
        self.truncation = truncation
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, truncation):
        return cls(truncation)

    @classmethod
    def one(cls, truncation):
        return cls(truncation, {(): Fraction(1)})

    @classmethod
    def generator(cls, name, truncation):
        return cls(truncation, {(_LETTER[name],): Fraction(1)})

    @classmethod
    def full_generator(cls, symbol, truncation):
        """x0 + x1 for symbol "x", and so on."""
        base = 2 * SYMBOLS.index(symbol)
        return cls(
            truncation,
            {(base,): Fraction(1), (base + 1,): Fraction(1)},
        )

    # -- basic structure ----------------------------------------------------

    @property
    def constant(self):
        return self.terms.get((), Fraction(0))

    def coefficient(self, word):
        return self.terms.get(tuple(word), Fraction(0))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.truncation == other.truncation and self.terms == other.terms

    def __hash__(self):
        return hash((self.truncation, frozenset(self.terms.items())))

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: _word_key(kv[0]))
        body = " + ".join(f"{c}*{word_name(w)}" for w, c in items[:6])
        if len(items) > 6:
            body += f" + ... ({len(items)} terms)"
        return f"Series(N={self.truncation}, {body or '0'})"

    # -- linear operations ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Series):
            raise TypeError("expected a Series")
        if other.truncation != self.truncation:
            raise TruncationMismatch(
                f"truncations {self.truncation} and {other.truncation}"
            )

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return Series(self.truncation, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return Series(self.truncation)
        return Series(
            self.truncation, {w: scalar * c for w, c in self.terms.items()}
        )

    def __rmul__(self, scalar):
        return self.scale(scalar)

    # -- multiplication ---------------------------------------------------------

    def _buckets(self):
        out = {}
        for w, c in self.terms.items():
            out.setdefault(len(w), []).append((w, _odd_count(w), c))
        return out

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        self._check(other)
        n = self.truncation
        left = self._buckets()
        right = other._buckets()
        out = {}
        for da, terms_a in left.items():
            for db, terms_b in right.items():
                if da + db > n:
                    continue
                for wa, oa, ca in terms_a:
                    for wb, ob, cb in terms_b:
                        if oa + ob >= 2:
                            continue
                        w = wa + wb
                        s = out.get(w, 0) + ca * cb
                        if s:
                            out[w] = s
                        else:
                            out.pop(w, None)
        return Series(n, out)

    # -- grading -------------------------------------------------------------

    def even_part(self):
        return Series(
            self.truncation,
            {w: c for w, c in self.terms.items() if _odd_count(w) == 0},
        )

    def odd_part(self):
        return Series(
            self.truncation,
            {w: c for w, c in self.terms.items() if _odd_count(w) == 1},
        )

    def degree_component(self, degree):
        out = Series(self.truncation)
        # a subset of clean terms is clean, so the constructor's filter is skipped
        out.terms = {w: c for w, c in self.terms.items() if len(w) == degree}
        return out

    def substitute_zero(self, *symbols):
        """Set whole generators to zero, e.g. substitute_zero("u", "w")."""
        drop = set()
        for symbol in symbols:
            base = 2 * SYMBOLS.index(symbol)
            drop.update((base, base + 1))
        return Series(
            self.truncation,
            {
                w: c
                for w, c in self.terms.items()
                if not any(letter in drop for letter in w)
            },
        )

    # -- exp / log / inverse ------------------------------------------------------

    def exp(self):
        if self.constant:
            raise BadConstantTerm("exp requires zero constant term")
        result = Series.one(self.truncation)
        power = Series.one(self.truncation)
        factorial = 1
        for n in range(1, self.truncation + 1):
            power = power * self
            if power.is_zero():
                break
            factorial *= n
            result = result + power.scale(Fraction(1, factorial))
        return result

    def log(self):
        if self.constant != 1:
            raise BadConstantTerm("log requires constant term 1")
        t = self - Series.one(self.truncation)
        result = Series.zero(self.truncation)
        power = Series.one(self.truncation)
        for n in range(1, self.truncation + 1):
            power = power * t
            if power.is_zero():
                break
            result = result + power.scale(Fraction((-1) ** (n + 1), n))
        return result

    def inverse(self):
        """Multiplicative inverse via the formal geometric series."""
        c = self.constant
        if not c:
            raise BadConstantTerm("inverse requires nonzero constant term")
        f = self.scale(Fraction(1) / c) - Series.one(self.truncation)
        result = Series.one(self.truncation)
        power = Series.one(self.truncation)
        for n in range(1, self.truncation + 1):
            power = power * f
            if power.is_zero():
                break
            result = result + power.scale(Fraction((-1) ** n))
        return result.scale(Fraction(1) / c)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, env, *, one, mul=operator.mul, add=operator.add, scale=None):
        """Substitute concrete values for the generators.

        ``env`` maps generator names ("x0", ...) to values; ``one`` is the
        multiplicative identity of the target, used for the constant term.
        ``scale(coeff, value)`` applies a rational coefficient; pass one
        whenever plain ``coeff * value`` is wrong for the target type
        (e.g. float conversion for numpy arrays).
        """
        if scale is None:
            scale = lambda c, v: c * v
        acc = None
        for word, coeff in sorted(self.terms.items(), key=lambda kv: _word_key(kv[0])):
            if word:
                value = reduce(mul, (env[GENERATOR_NAMES[l]] for l in word))
            else:
                value = one
            term = scale(coeff, value)
            acc = term if acc is None else add(acc, term)
        if acc is None:
            return scale(Fraction(0), one)
        return acc


@lru_cache(maxsize=None)
def extended_bch(truncation: int) -> Series:
    """The combined-exponential series z with

        exp(z) = E0(u) exp(x) E0(u)^-1 * E0(w) exp(y) E0(w)^-1,

    E0(v) being the even part of exp(v0 + v1) and its inverse the formal
    geometric series.  Exact rational coefficients through ``truncation``.
    """
    if not 1 <= truncation <= MAX_TRUNCATION:
        raise ValueError(f"truncation must be in 1..{MAX_TRUNCATION}")
    x = Series.full_generator("x", truncation)
    y = Series.full_generator("y", truncation)
    u = Series.full_generator("u", truncation)
    w = Series.full_generator("w", truncation)
    e0u = u.exp().even_part()
    e0w = w.exp().even_part()
    product = e0u * x.exp() * e0u.inverse() * e0w * y.exp() * e0w.inverse()
    return product.log()


def classical_bch(truncation: int) -> Series:
    """log(exp(x) * exp(y)) in the same engine, for cross-checks."""
    x = Series.full_generator("x", truncation)
    y = Series.full_generator("y", truncation)
    return (x.exp() * y.exp()).log()


# -- bracket expressions -------------------------------------------------------


@dataclass(frozen=True)
class BracketTerm:
    """Expression tree over the four symbols with angle/square nodes."""

    op: str  # "gen" | "angle" | "square"
    name: str = ""
    left: "BracketTerm | None" = None
    right: "BracketTerm | None" = None

    def degree(self):
        if self.op == "gen":
            return 1
        return self.left.degree() + self.right.degree()

    def __str__(self):
        return bracket_string(self)


def gen(name: str) -> BracketTerm:
    if name not in SYMBOLS:
        raise ValueError(f"unknown generator symbol {name!r}")
    return BracketTerm(op="gen", name=name)


def angle_term(a: BracketTerm, b: BracketTerm) -> BracketTerm:
    return BracketTerm(op="angle", left=a, right=b)


def square_term(a: BracketTerm, b: BracketTerm) -> BracketTerm:
    return BracketTerm(op="square", left=a, right=b)


def bracket_string(term: BracketTerm, angle_pair="<>") -> str:
    if term.op == "gen":
        return term.name
    left = bracket_string(term.left, angle_pair)
    right = bracket_string(term.right, angle_pair)
    if term.op == "angle":
        return f"{angle_pair[0]}{left},{right}{angle_pair[1]}"
    return f"[{left},{right}]"


def bracket_expand(term: BracketTerm, truncation: int) -> Series:
    """Expand a bracket expression into word coordinates.

    Angle nodes expand as S*even(T) - even(T)*S and square nodes as
    S*T - T*S; a generator leaf is the sum of its even and odd letters.
    """
    if term.op == "gen":
        return Series.full_generator(term.name, truncation)
    left = bracket_expand(term.left, truncation)
    right = bracket_expand(term.right, truncation)
    if term.op == "angle":
        r0 = right.even_part()
        return left * r0 - r0 * left
    return left * right - right * left


def expand_weighted(weighted_terms, truncation: int) -> Series:
    out = Series.zero(truncation)
    for coeff, term in weighted_terms:
        out = out + bracket_expand(term, truncation).scale(coeff)
    return out


def printed_series_terms():
    """The printed low-degree terms of the series, verbatim and in order.

    The listing is intentionally not de-duplicated: it repeats the two
    degree-3 terms (1/12)[x,[x,y]] and (1/12)[y,[y,x]], exactly as they
    standardly appear in print.  :func:`compare_printed_series` diffs this
    literal reading against the computed series and reports the conflict
    instead of repairing it.
    """
    x, y, u, w = gen("x"), gen("y"), gen("u"), gen("w")
    half = Fraction(1, 2)
    twelfth = Fraction(1, 12)
    return (
        (Fraction(1), x),
        (Fraction(1), y),
        (half, square_term(x, y)),
        (Fraction(-1), angle_term(x, u)),
        (Fraction(-1), angle_term(y, w)),
        (twelfth, square_term(x, square_term(x, y))),
        (twelfth, square_term(y, square_term(y, x))),
        (half, angle_term(angle_term(x, u), u)),
        (half, angle_term(angle_term(y, w), w)),
        (-half, square_term(x, angle_term(y, w))),
        (-half, square_term(angle_term(x, u), y)),
        (twelfth, square_term(x, square_term(x, y))),
        (twelfth, square_term(y, square_term(y, x))),
        (Fraction(-1, 6), angle_term(angle_term(angle_term(x, u), u), u)),
        (Fraction(-1, 6), angle_term(angle_term(angle_term(y, w), w), w)),
        (Fraction(1, 4), square_term(x, angle_term(angle_term(y, w), w))),
        (half, square_term(angle_term(x, u), angle_term(y, w))),
        (Fraction(1, 4), square_term(angle_term(angle_term(x, u), u), y)),
        (-twelfth, square_term(x, square_term(x, angle_term(y, w)))),
        (-twelfth, square_term(angle_term(x, u), square_term(x, y))),
        (-twelfth, square_term(y, square_term(y, angle_term(x, u)))),
        (-twelfth, square_term(angle_term(y, w), square_term(y, x))),
        (Fraction(1, 24), square_term(y, square_term(x, square_term(y, x)))),
    )


@dataclass
class SeriesComparison:
    """Word-level diff between the printed listing and the computed series."""

    truncation: int
    word_diffs: list
    duplicates: list
    clean_degrees: list

    @property
    def exact_match(self):
        return not self.word_diffs

    def to_json_dict(self):
        return {
            "truncation": self.truncation,
            "exact_match": self.exact_match,
            "clean_degrees": self.clean_degrees,
            "word_diffs": self.word_diffs,
            "duplicate_terms": self.duplicates,
        }


def compare_printed_series(truncation: int = 3) -> SeriesComparison:
    """Diff the literal printed listing against the computed series.

    Every printed term of degree <= truncation is expanded (repeated terms
    contribute repeatedly, as printed) and the sum is compared word by
    word with the computed series.  For each term printed more than once
    the report also fits the computed degree component on the distinct
    printed terms of that degree, so it can state the computed coefficient
    next to the literal total.
    """
    listing = [
        (coeff, term)
        for coeff, term in printed_series_terms()
        if term.degree() <= truncation
    ]
    literal = expand_weighted(listing, truncation)
    computed = extended_bch(truncation)

    words = sorted(set(literal.terms) | set(computed.terms), key=_word_key)
    word_diffs = []
    dirty_degrees = set()
    for w in words:
        a = literal.coefficient(w)
        b = computed.coefficient(w)
        if a != b:
            dirty_degrees.add(len(w))
            word_diffs.append(
                {
                    "degree": len(w),
                    "word": word_name(w),
                    "listed": str(a),
                    "computed": str(b),
                }
            )
    clean_degrees = [
        d for d in range(1, truncation + 1) if d not in dirty_degrees
    ]

    counts = Counter(term for _, term in listing)
    duplicates = []
    for term, count in counts.items():
        if count < 2:
            continue
        degree = term.degree()
        listed_total = sum(
            (c for c, t in listing if t == term), start=Fraction(0)
        )
        distinct = []
        for _, t in listing:
            if t.degree() == degree and t not in distinct:
                distinct.append(t)
        columns = [
            bracket_expand(t, truncation).degree_component(degree).terms
            for t in distinct
        ]
        target = computed.degree_component(degree).terms
        solution = solve_columns(columns, target, sort_key=_word_key)
        entry = {
            "form": bracket_string(term),
            "degree": degree,
            "occurrences": count,
            "listed_total": str(listed_total),
        }
        if solution is None:
            entry["computed_coefficient"] = None
            entry["note"] = (
                "computed degree component is not in the span of the "
                "distinct printed terms of this degree"
            )
        else:
            entry["computed_coefficient"] = str(solution[distinct.index(term)])
        duplicates.append(entry)
    duplicates.sort(key=lambda e: (e["degree"], e["form"]))
    return SeriesComparison(
        truncation=truncation,
        word_diffs=word_diffs,
        duplicates=duplicates,
        clean_degrees=clean_degrees,
    )


# -- bracket-monomial fit -----------------------------------------------------
#
# Spanning monomials per degree: take Lyndon words over the alphabet of
# "wrapped" letters (x angle-wrapped by u some number of times, y by w),
# bracket them by standard factorization with the square bracket, and
# expand.  The computed series is a combination of such monomials because
# conjugating exp(x) by E0(u) replaces x with its angle-wrapped expansion,
# after which the whole series is a commutator series in the two dressed
# arguments.  The fit solves the exact linear system in word coordinates;
# the witness is deterministic but not claimed unique, since the
# monomials may be linearly dependent.


@dataclass(frozen=True, order=True)
class _WrappedLetter:
    family: int  # 0: x wrapped by u, 1: y wrapped by w
    wraps: int

    @property
    def weight(self):
        return 1 + self.wraps

    def term(self):
        symbol, wrapper = ("x", "u") if self.family == 0 else ("y", "w")
        t = gen(symbol)
        for _ in range(self.wraps):
            t = angle_term(t, gen(wrapper))
        return t


def _words_of_weight(letters, weight):
    if weight == 0:
        yield ()
        return
    for letter in letters:
        if letter.weight > weight:
            continue
        for rest in _words_of_weight(letters, weight - letter.weight):
            yield (letter,) + rest


def _is_lyndon(word):
    if len(word) == 1:
        return True
    for i in range(1, len(word)):
        if word[i:] + word[:i] <= word:
            return False
    return True


def _standard_bracketing(word):
    if len(word) == 1:
        return word[0].term()
    # standard factorization: split before the longest proper Lyndon suffix
    for i in range(1, len(word)):
        if _is_lyndon(word[i:]):
            return square_term(
                _standard_bracketing(word[:i]), _standard_bracketing(word[i:])
            )
    raise AssertionError("every Lyndon word of length >= 2 factors")


def _lyndon_monomials(degree):
    letters = [
        _WrappedLetter(family, wraps)
        for family in (0, 1)
        for wraps in range(degree)
    ]
    words = [
        word
        for word in _words_of_weight(tuple(letters), degree)
        if _is_lyndon(word)
    ]
    words.sort(key=lambda word: (len(word), word))
    return [_standard_bracketing(word) for word in words]


def bracket_basis_fit(truncation: int):
    """Express the computed series in bracket monomials, degree by degree.

    Returns ``[(BracketTerm, Fraction), ...]`` covering degrees 1 through
    ``truncation`` with zero coefficients dropped.  Raises
    InconsistentSystem if some degree component falls outside the
    monomial span, which would mean the series engine is wrong.
    """
    z = extended_bch(truncation)
    out = []
    for degree in range(1, truncation + 1):
        target = z.degree_component(degree).terms
        terms = []
        columns = []
        for term in _lyndon_monomials(degree):
            col = bracket_expand(term, truncation).degree_component(degree).terms
            if col:
                terms.append(term)
                columns.append(col)
        solution = solve_columns(columns, target, sort_key=_word_key)
        if solution is None:
            raise InconsistentSystem(
                f"degree {degree} component is outside the bracket span"
            )
        out.extend(
            (terms[i], coeff) for i, coeff in enumerate(solution) if coeff
        )
    return out


def format_bracket_series(fit, angle_pair="<>"):
    """Plain-text rendering of a bracket fit, grouped by degree."""
    by_degree = {}
    for term, coeff in fit:
        by_degree.setdefault(term.degree(), []).append((term, coeff))
    lines = ["z ="]
    for degree in sorted(by_degree):
        parts = []
        for term, coeff in by_degree[degree]:
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            body = bracket_string(term, angle_pair)
            if mag == 1:
                parts.append(f"{sign} {body}")
            else:
                parts.append(f"{sign} {mag} {body}")
        lines.append("  " + " ".join(parts))
    return "\n".join(lines)
