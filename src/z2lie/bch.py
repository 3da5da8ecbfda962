"""Truncated free Z2-graded associative algebra and the extended CBH series.

Generators come in four symbols x, y, u, w, each split into an even and an
odd part: x = x0 + x1 and so on.  Words are concatenations of the eight
letters, subject to the grading quotient: a word containing two or more
odd letters is identically zero.  (Two odd segments separated by even
letters still die, because even*odd stays odd and odd*odd vanishes.)
Words with no odd letter are even, words with exactly one are odd.

A :class:`Series` is a finite rational linear combination of such words up
to a fixed truncation degree (an int-or-``Fraction`` :class:`linalg.ExactVector`,
like an algebra ``Element``), with formal exp, log and geometric inverse,
summed by Horner's rule.  Its words are keyed by int codes (a leading 1,
then 3 bits per letter), and a product runs on both factors cleared of
denominators and grouped by word length and parity, a form each Series
computes once.  The central computation is

    z = log( E0(u) * exp(x) * E0(u)^-1 * E0(w) * exp(y) * E0(w)^-1 )

where E0(v) is the even part of exp(v0 + v1); with u = w = 0 this reduces
to the classical Campbell-Baker-Hausdorff series of x and y.  The module
also evaluates angle/square bracket expressions (one evaluator for word
series and any operand with ``*``, ``-`` and ``even_part()``), re-fits the
computed series onto bracket monomials (Lyndon words over angle-wrapped
letters), and diffs it against a hard-coded reference listing of the
printed low-degree terms, reporting rather than repairing any mismatch.
Both expand bracket terms on x0, y0, u0, w0 alone and reach all eight
letters by the lift x0 -> x0 + x1, y0 -> y0 + y1.  The fit is solved on the
even words and checked on every word through the lift: so it also confirms
that the odd words of z are the first-order lift of its even words, and
that no u1 or w1 occurs, since E0(u) = exp(u0).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .brackets import angle, square
from .linalg import ExactVector, FractionSpan, clear_denominators, divided, exact, vec_add


class TruncationMismatch(Exception):
    pass


class BadConstantTerm(Exception):
    pass


class InconsistentSystem(Exception):
    """The computed series left the bracket span; indicates an engine bug."""


class LostRank(Exception):
    """Bracket terms that are independent only with their odd letters kept."""


GENERATOR_NAMES = ("x0", "x1", "y0", "y1", "u0", "u1", "w0", "w1")
SYMBOLS = ("x", "y", "u", "w")

MAX_TRUNCATION = 8

# A word is coded as the int with binary digits 1, then one 3-bit digit per
# letter: () -> 1, (x0,) -> 0o10, (x1, y0) -> 0o112.  Codes of one length
# sort as their words do, shorter codes sort first, and a word of length
# db is appended to a code by shifting it 3*db bits and or-ing in the
# appended code without its leading 1.  Odd letters have the low bit set.


def _encode(word):
    code = 1
    for letter in word:
        if not 0 <= letter < len(GENERATOR_NAMES):
            raise ValueError(f"letter {letter!r} is not one of 0..7")
        code = (code << 3) | letter
    return code


def _decode(code):
    word = []
    while code > 1:
        word.append(code & 7)
        code >>= 3
    return tuple(reversed(word))


def word_length(code):
    """The number of letters of a coded word."""
    return (code.bit_length() - 1) // 3


def _odd_slots(length):
    """The low bit of each letter of a code of ``length`` letters."""
    return ((1 << 3 * length) - 1) // 7


def _is_odd(code):
    """Whether a coded word with at most one odd letter is odd."""
    return bool(code & _odd_slots(word_length(code)))


def word_name(word):
    return " ".join(GENERATOR_NAMES[letter] for letter in word) if word else "1"


def _grouped(terms):
    """The coded terms grouped by word length and parity."""
    lengths = sorted((bits - 1) // 3 for bits in set(map(int.bit_length, terms)))
    groups = {}
    for length in lengths:
        low, high = 1 << 3 * length, 1 << 3 * (length + 1)
        part = (
            terms
            if len(lengths) == 1
            else {w: c for w, c in terms.items() if low <= w < high}
        )
        odd = _odd_slots(length)
        for parity, group in (
            (False, {w: c for w, c in part.items() if not w & odd}),
            (True, {w: c for w, c in part.items() if w & odd}),
        ):
            if group:
                groups[length, parity] = group
    return groups


def _word_product(left, right, truncation):
    """The truncated product of two grouped integer polynomials, grouped, no zeros.

    A product of words of lengths da, db and parities oa, ob has length
    da + db and is odd when either factor is, so each pair of input groups
    feeds exactly one output group.  The right-hand codes of each group
    are stripped of their leading 1 once, and each left-hand code is
    shifted once per right-hand group.
    """
    out = {}
    for (db, ob), terms_b in right.items():
        shift = 3 * db
        lead = 1 << shift
        stripped = [(wb ^ lead, cb) for wb, cb in terms_b.items()]
        for (da, oa), terms_a in left.items():
            if da + db <= truncation and not (oa and ob):
                acc = out.setdefault((da + db, oa or ob), {})
                for wa, ca in terms_a.items():
                    wa <<= shift
                    for wb, cb in stripped:
                        w = wa | wb
                        acc[w] = acc.get(w, 0) + ca * cb
    return {
        key: nonzero
        for key, acc in out.items()
        if (nonzero := {w: c for w, c in acc.items() if c})
    }


class Series(ExactVector):
    """Truncated rational word polynomial in the eight graded generators.

    ``terms`` maps word codes to nonzero int or ``Fraction`` coefficients;
    the constructor takes tuple words.  A Series is not mutated once built:
    it caches its terms cleared of denominators and grouped by length and
    parity, the operand form of a product, on first use.
    """

    __slots__ = ("truncation", "terms", "_cleared")

    def __init__(self, truncation, terms=None):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        clean = {}
        for word, coeff in (terms or {}).items():
            code, coeff = _encode(word), exact(coeff)
            odd_letters = sum(letter & 1 for letter in word)
            if coeff and len(word) <= truncation and odd_letters < 2:
                clean[code] = coeff
        self.truncation = truncation
        self.terms = clean
        self._cleared = None

    @classmethod
    def _from_terms(cls, truncation, terms, cleared=None):
        """A Series taking coded ``terms`` as is (nonzero ints or Fractions
        within the quotient), and ``cleared`` as its operand form if given."""
        out = object.__new__(cls)
        out.truncation = truncation
        out.terms = terms
        out._cleared = cleared
        return out

    def _operand(self):
        """``(groups, den)``: the terms times ``den``, grouped ints, made once."""
        if self._cleared is None:
            numerators, den = clear_denominators(self.terms)
            self._cleared = _grouped(numerators), den
        return self._cleared

    # -- constructors -----------------------------------------------------

    @classmethod
    def one(cls, truncation):
        return cls(truncation, {(): 1})

    @classmethod
    def full_generator(cls, symbol, truncation):
        """x0 + x1 for symbol "x", and so on."""
        base = 2 * SYMBOLS.index(symbol)
        return cls(truncation, {(base,): 1, (base + 1,): 1})

    # -- basic structure ----------------------------------------------------

    @property
    def constant(self):
        return self.terms.get(1, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.truncation == other.truncation and self.terms == other.terms

    def __repr__(self):
        items = sorted(self.terms.items())
        body = " + ".join(f"{c}*{word_name(_decode(w))}" for w, c in items[:6])
        if len(items) > 6:
            body += f" + ... ({len(items)} terms)"
        return f"Series(N={self.truncation}, {body or '0'})"

    # -- ExactVector hooks -------------------------------------------------------

    def _like(self, terms):
        return Series._from_terms(self.truncation, terms)

    def _compatible(self, other):
        if not isinstance(other, Series):
            raise TypeError("expected a Series")
        if other.truncation != self.truncation:
            raise TruncationMismatch(
                f"truncations {self.truncation} and {other.truncation}"
            )

    _odd = staticmethod(_is_odd)

    # -- multiplication ---------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        self._compatible(other)
        n = self.truncation
        left, den_a = self._operand()
        right, den_b = other._operand()
        product = _word_product(left, right, n)
        terms = {}
        for group in product.values():
            terms.update(group)
        den = den_a * den_b
        if den == 1:
            return Series._from_terms(n, terms, (product, 1))
        return Series._from_terms(n, divided(terms, den))

    # -- exp / log / inverse ------------------------------------------------------

    def _power_series(self, coeff):
        """Sum of ``coeff(n) * self**n`` over n by Horner's rule,
        ``c_0 + s(c_1 + s(c_2 + ...))``; ``self`` has zero constant term.

        The n-th inner sum is multiplied by ``s**n``, so it is kept only
        through degree N - n.  With ``s = base / den`` and L the lcm of the
        coefficients' denominators, the n-th inner sum times ``L * den**(N-n)``
        is an integer polynomial, kept grouped from one product to the next;
        the last one is the total over ``L * den**N``.
        """
        n_max = self.truncation
        coeffs = [Fraction(coeff(n)) for n in range(n_max + 1)]
        base, den = self._operand()
        assert (0, False) not in base, "the base of a power series has no constant"
        lead = lcm(*[c.denominator for c in coeffs])
        inner = {}
        for n in range(n_max, -1, -1):
            inner = _word_product(base, inner, n_max - n)
            if c := coeffs[n]:
                scale = (lead // c.denominator) * den ** (n_max - n)
                inner[0, False] = {1: c.numerator * scale}
        total = {w: v for group in inner.values() for w, v in group.items()}
        return Series._from_terms(n_max, divided(total, lead * den**n_max))

    def exp(self):
        if self.constant:
            raise BadConstantTerm("exp requires zero constant term")
        return self._power_series(lambda n: Fraction(1, factorial(n)))

    def log(self):
        if self.constant != 1:
            raise BadConstantTerm("log requires constant term 1")
        t = self - Series.one(self.truncation)
        return t._power_series(lambda n: Fraction((-1) ** (n + 1), n) if n else 0)

    def inverse(self):
        """Multiplicative inverse via the formal geometric series."""
        c = self.constant
        if not c:
            raise BadConstantTerm("inverse requires nonzero constant term")
        f = self.scale(Fraction(1) / c) - Series.one(self.truncation)
        return f._power_series(lambda n: (-1) ** n).scale(Fraction(1) / c)


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


# -- bracket expressions -------------------------------------------------------


@dataclass(frozen=True)
class BracketTerm:
    """Expression tree over the four symbols with angle/square nodes."""

    op: str  # "gen" | "angle" | "square"
    name: str = ""
    left: "BracketTerm | None" = None
    right: "BracketTerm | None" = None

    def __post_init__(self):
        # the hash of a node, from its children's cached hashes; equality
        # still compares whole trees
        object.__setattr__(
            self, "_hash", hash((self.op, self.name, self.left, self.right))
        )

    def __hash__(self):
        return self._hash

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


def bracket_value(term: BracketTerm, values):
    """The value of a bracket expression, given the values of its generators.

    ``values`` maps ``gen(s)`` to the value of each symbol s in ``term`` and
    doubles as the memo: every subterm's value is stored in it, so terms
    evaluated against one dict share their common subterms.  Angle and
    square nodes apply :func:`brackets.angle` and :func:`brackets.square`,
    so the values may be ``Series``, algebra ``Element``s or any operand with
    ``*``, ``-`` and ``even_part()``, such as the block matrices of the
    tests' residual ladder.
    """
    if term.op != "gen" and term not in values:
        bracket = angle if term.op == "angle" else square
        operands = bracket_value(term.left, values), bracket_value(term.right, values)
        values[term] = bracket(*operands)
    return values[term]


@lru_cache(maxsize=None)
def _expansions(truncation):
    """A :func:`bracket_value` memo at one truncation, seeded with x, y, u, w
    as their even letters x0, y0, u0, w0: the even expansions, integral and
    homogeneous.  Its Series are shared and must not be mutated."""
    return {gen(s): Series(truncation, {(2 * i,): 1}) for i, s in enumerate(SYMBOLS)}


def _liftable(term, right=False):
    """Whether :func:`_lift` of the even expansion of ``term`` is its full one.

    ``angle`` reads only the even part of its right operand, so the lift,
    an algebra map fixing u0 and w0, is exact when every u/w leaf sits in
    an angle's right operand (``right``) that holds no x or y.
    """
    if term.op == "gen":
        return (term.name in ("u", "w")) == right
    inner = right or term.op == "angle"
    return _liftable(term.left, right) and _liftable(term.right, inner)


def _require_liftable(terms):
    for term in terms:
        if not _liftable(term):
            raise ValueError(f"the even expansion of {term} does not lift")


def _lift(even):
    """The image of an even word polynomial under x0 -> x0 + x1, y0 -> y0 + y1:
    each word, and for each of its x0 or y0 slots the word with that slot
    made odd (words with two odd letters vanish)."""
    out = dict(even)
    for code, c in even.items():
        for slot in range(word_length(code)):
            if not code >> 3 * slot & 4:
                out[code | 1 << 3 * slot] = c
    return out


def _fit_degree(terms, components, truncation):
    """Exact coefficients of ``terms`` summing to a degree component of a series.

    ``terms`` are bracket expressions of one degree d and ``components``
    the series' terms grouped by :func:`_grouped`.  The system is solved
    on the terms' even expansions (odd letters set to zero, an algebra
    map), where they must keep their full rank, or LostRank is raised: the
    solution is then the unique one.  Each term must be :func:`_liftable`
    (else ValueError), so the :func:`_lift` of the even combination is its
    full expansion; it is checked exactly on every word of the degree, so
    the odd words of the component must be the lift of its even words.
    Returns one coefficient per term, or None when the component lies
    outside the span of the terms.
    """
    degree = terms[0].degree()
    even = components.get((degree, False), {})
    target = {**even, **components.get((degree, True), {})}
    memo = _expansions(truncation)
    columns = [bracket_value(term, memo).terms for term in terms]
    span = FractionSpan(track=True)
    for col in columns:
        span.add(col)
    if span.dim < len(columns):
        raise LostRank(
            f"the even words keep rank {span.dim} of the {len(columns)} "
            f"bracket terms of degree {degree}"
        )
    _require_liftable(terms)
    residual, combo = span.reduce(even)
    if residual:
        return None
    solution = [combo.get(j, Fraction(0)) for j in range(len(columns))]
    # target = lift(sum(c_j * col_j)), both cleared of every denominator
    den = lcm(*[c.denominator for c in (*target.values(), *solution)])
    fit = {}
    for c, col in zip(solution, columns):
        if c:
            factor = c.numerator * (den // c.denominator)
            for w, v in col.items():
                fit[w] = fit.get(w, 0) + factor * v
    lifted = _lift({w: v for w, v in fit.items() if v})
    cleared = {w: c.numerator * (den // c.denominator) for w, c in target.items()}
    return solution if lifted == cleared else None


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


def compare_printed_series(truncation: int) -> dict:
    """Diff the literal printed listing against the computed series.

    Every printed term of degree <= truncation is expanded (repeated terms
    contribute repeatedly, as printed) and the sum is compared word by
    word with the computed series; the sum is taken on the even expansions
    and lifted once, as :func:`_fit_degree` checks its fit.  For each term
    printed more than once the report also fits the computed degree
    component on the distinct printed terms of that degree, so it can
    state the computed coefficient next to the literal total.
    """
    listing = [(c, t) for c, t in printed_series_terms() if t.degree() <= truncation]
    _require_liftable(term for _, term in listing)
    memo = _expansions(truncation)
    even = {}
    for coeff, term in listing:
        even = vec_add(even, bracket_value(term, memo).terms, coeff)
    literal = _lift(even)
    computed = extended_bch(truncation)

    word_diffs = []
    dirty_degrees = set()
    for w in sorted(set(literal) | set(computed.terms)):
        a = literal.get(w, Fraction(0))
        b = computed.terms.get(w, Fraction(0))
        if a != b:
            degree = word_length(w)
            dirty_degrees.add(degree)
            word_diffs.append(
                {
                    "degree": degree,
                    "word": word_name(_decode(w)),
                    "listed": str(a),
                    "computed": str(b),
                }
            )
    clean_degrees = [d for d in range(1, truncation + 1) if d not in dirty_degrees]

    counts = Counter(term for _, term in listing)
    components = _grouped(computed.terms)
    duplicates = []
    for term, count in counts.items():
        if count < 2:
            continue
        degree = term.degree()
        listed_total = sum((c for c, t in listing if t == term), start=Fraction(0))
        distinct = list(dict.fromkeys(t for _, t in listing if t.degree() == degree))
        solution = _fit_degree(distinct, components, truncation)
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
    return {
        "truncation": truncation,
        "exact_match": not word_diffs,
        "clean_degrees": clean_degrees,
        "word_diffs": word_diffs,
        "duplicate_terms": duplicates,
    }


# -- bracket-monomial fit -----------------------------------------------------
#
# Spanning monomials per degree: take Lyndon words over the alphabet of
# "wrapped" letters (x angle-wrapped by u some number of times, y by w),
# bracket them by standard factorization with the square bracket, and
# expand.  The computed series is a combination of such monomials because
# conjugating exp(x) by E0(u) replaces x with its angle-wrapped expansion,
# after which the whole series is a commutator series in the two dressed
# arguments.  The monomials are independent, and stay so on the even
# words: with the odd letters set to zero the wrapped letters become
# ad_{u0}^k x0 and ad_{w0}^k y0, which freely generate a free Lie
# subalgebra (Lazard elimination), and the standard bracketings of Lyndon
# words are a basis of a free Lie algebra (Reutenauer, Free Lie Algebras,
# 1993, ch. 0.4 and 5).  So the fit solves on the even expansions, gets
# the unique solution and checks its lift exactly on every word; the rank
# is checked on every call and tested for every degree up to MAX_TRUNCATION.


# A wrapped letter is the pair (family, wraps): x wrapped by u ``wraps``
# times for family 0, y wrapped by w for family 1.  Its weight is
# 1 + wraps, and words of letters compare as plain tuples.


def _wrapped_term(letter):
    family, wraps = letter
    symbol, wrapper = ("x", "u") if family == 0 else ("y", "w")
    t = gen(symbol)
    for _ in range(wraps):
        t = angle_term(t, gen(wrapper))
    return t


def _words_of_weight(letters, weight):
    if weight == 0:
        yield ()
        return
    for letter in letters:
        if 1 + letter[1] > weight:
            continue
        for rest in _words_of_weight(letters, weight - 1 - letter[1]):
            yield (letter,) + rest


def _is_lyndon(word):
    if len(word) == 1:
        return True
    for i in range(1, len(word)):
        if word[i:] + word[:i] <= word:
            return False
    return True


@lru_cache(maxsize=None)
def _standard_bracketing(word):
    # cached, so the monomials of every degree share their subterm objects
    # and a bracket_value memo hit is an identity check, not a tree walk
    if len(word) == 1:
        return _wrapped_term(word[0])
    # standard factorization: split before the longest proper Lyndon suffix
    for i in range(1, len(word)):
        if _is_lyndon(word[i:]):
            return square_term(
                _standard_bracketing(word[:i]), _standard_bracketing(word[i:])
            )
    raise AssertionError("every Lyndon word of length >= 2 factors")


def _lyndon_monomials(degree):
    letters = tuple((family, wraps) for family in (0, 1) for wraps in range(degree))
    words = [
        word
        for word in _words_of_weight(letters, degree)
        if _is_lyndon(word)
    ]
    words.sort(key=lambda word: (len(word), word))
    return [_standard_bracketing(word) for word in words]


def bracket_basis_fit(truncation: int):
    """Express the computed series in bracket monomials, degree by degree.

    Returns ``[(BracketTerm, Fraction), ...]`` covering degrees 1 through
    ``truncation`` with zero coefficients dropped.  Raises
    InconsistentSystem if some degree component falls outside the
    monomial span, which would mean the series engine is wrong.  The
    components are split off the series in one pass.
    """
    components = _grouped(extended_bch(truncation).terms)
    out = []
    for degree in range(1, truncation + 1):
        terms = _lyndon_monomials(degree)
        solution = _fit_degree(terms, components, truncation)
        if solution is None:
            raise InconsistentSystem(
                f"degree {degree} component is outside the bracket span"
            )
        out.extend((term, coeff) for term, coeff in zip(terms, solution) if coeff)
    return out


def format_bracket_series(fit):
    """Plain-text rendering of a bracket fit, grouped by degree, with ⟨⟩ angles."""
    by_degree = {}
    for term, coeff in fit:
        by_degree.setdefault(term.degree(), []).append((term, coeff))
    lines = ["z ="]
    for degree in sorted(by_degree):
        parts = []
        for term, coeff in by_degree[degree]:
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            body = bracket_string(term, "⟨⟩")
            if mag == 1:
                parts.append(f"{sign} {body}")
            else:
                parts.append(f"{sign} {mag} {body}")
        lines.append("  " + " ".join(parts))
    return "\n".join(lines)
