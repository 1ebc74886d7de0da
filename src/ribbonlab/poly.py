"""Binary forms and polynomials on the weighted ambient space.

Two polynomial flavors live here:

* `BinaryForm`: a homogeneous form in x0, x1 over Q, stored densely.  The
  coefficient at index a multiplies x0^a * x1^(degree - a).

* `WPoly`: a polynomial in u_0..u_{g-1} (weight 1) and v_0..v_{g-3}
  (weight 2), the coordinates of the weighted ambient space of genus g.
  Terms are keyed by full exponent tuples (u exponents first, then v
  exponents).  Coefficients are Fractions, or TruncatedScalars for the
  one-parameter families, which are only added, negated and mapped
  coefficientwise: a product of two WPolys is over Q, and a TruncatedScalar
  coefficient is refused there.

One grading throughout, that of X_g: deg u = 1, deg v = 2.  The variable order
is u_0 < u_1 < ... < u_{g-1} < v_0 < ... < v_{g-3} throughout; monomial-order
keys below take it as given and compare total degrees, not weighted ones, first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from .exact import from_integers, rat, rat_to_str, to_integers
from .exact import TruncatedScalar, json_fields, json_int, json_list, json_rat


class BinaryForm:
    """Homogeneous binary form of fixed degree over Q."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        if coeffs is None:
            self.coeffs = (Fraction(0),) * (degree + 1)
        else:
            self.coeffs = tuple(rat(c) for c in coeffs)
            if len(self.coeffs) != degree + 1:
                raise ValueError("expected %d coefficients" % (degree + 1))

    @classmethod
    def _raw(cls, degree: int, coeffs: tuple) -> "BinaryForm":
        """The form with these coefficients, a tuple of degree + 1 Fractions."""
        f = object.__new__(cls)
        f.degree, f.coeffs = degree, coeffs
        return f

    def coeff(self, a: int) -> Fraction:
        return self.coeffs[a]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __mul__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        scale, a = to_integers(self.coeffs)
        other_scale, b = to_integers(other.coeffs)
        out = [0] * (self.degree + other.degree + 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return BinaryForm._raw(self.degree + other.degree, from_integers(out, scale * other_scale))

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def divide_exact(self, a0: int, a1: int) -> "BinaryForm":
        """Exact division by x0^a0 * x1^a1; raises if any term is not divisible."""
        if a0 + a1 > self.degree:
            raise ValueError("divisor degree exceeds form degree")
        new_degree = self.degree - a0 - a1
        out = [Fraction(0)] * (new_degree + 1)
        for a, c in enumerate(self.coeffs):
            if not c:
                continue
            if a < a0 or self.degree - a < a1:
                raise ValueError("form not divisible by x0^%d x1^%d" % (a0, a1))
            out[a - a0] = c
        return BinaryForm._raw(new_degree, tuple(out))

    def derivative(self, var: int) -> "BinaryForm":
        """Partial derivative with respect to x0 (var=0) or x1 (var=1)."""
        if var not in (0, 1):
            raise ValueError("var must be 0 or 1")
        n = self.degree
        if n == 0:
            return BinaryForm._raw(0, (Fraction(0),))
        scale, ints = to_integers(self.coeffs)
        if var == 0:
            out = [a * c for a, c in enumerate(ints) if a]
        else:
            out = [(n - a) * c for a, c in enumerate(ints[:n])]
        return BinaryForm._raw(n - 1, from_integers(out, scale))

    def __repr__(self):
        parts = []
        for a in range(self.degree, -1, -1):
            c = self.coeffs[a]
            if not c:
                continue
            mono = []
            if a:
                mono.append("x0" + ("^%d" % a if a > 1 else ""))
            if self.degree - a:
                mono.append("x1" + ("^%d" % (self.degree - a) if self.degree - a > 1 else ""))
            body = "*".join(mono) if mono else "1"
            parts.append("%s*%s" % (rat_to_str(c), body))
        return " + ".join(parts) if parts else "0 (degree %d)" % self.degree

    def to_json(self):
        return {"degree": self.degree, "coeffs": [rat_to_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data) -> "BinaryForm":
        degree, coeffs = json_fields(data, "a binary form object", "degree", "coeffs")
        return cls(json_int(degree, "the degree"),
                   [json_rat(c, "a coefficient") for c in json_list(coeffs, "the coeffs")])


class WPoly:
    """Polynomial in the weighted coordinates of genus g.

    Exponent keys are tuples of length 2g-2: entries 0..g-1 are u exponents,
    entries g..2g-3 are v exponents.  Zero coefficients are never stored, and
    every stored coefficient is a Fraction or a TruncatedScalar: the public
    constructor sends every other coefficient through `rat`.
    """

    __slots__ = ("g", "terms")

    def __init__(self, g: int, terms=None):
        if g < 3:
            raise ValueError("genus must be at least 3")
        self.g = g
        clean = {}
        if terms:
            n = 2 * g - 2
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != n or any(e < 0 for e in exps):
                    raise ValueError("bad exponent tuple %r for g=%d" % (exps, g))
                if not isinstance(coeff, TruncatedScalar):
                    coeff = rat(coeff)
                if coeff:
                    clean[exps] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, g: int, terms: dict) -> "WPoly":
        """The polynomial with these terms: valid exponent tuples, no zero coefficient."""
        p = object.__new__(cls)
        p.g, p.terms = g, terms
        return p

    @classmethod
    def zero(cls, g: int) -> "WPoly":
        return cls(g)

    @classmethod
    def u_var(cls, g: int, i: int) -> "WPoly":
        if not 0 <= i <= g - 1:
            raise ValueError("u index out of range")
        e = [0] * (2 * g - 2)
        e[i] = 1
        return cls(g, {tuple(e): Fraction(1)})

    @classmethod
    def v_var(cls, g: int, j: int) -> "WPoly":
        if not 0 <= j <= g - 3:
            raise ValueError("v index out of range")
        e = [0] * (2 * g - 2)
        e[g + j] = 1
        return cls(g, {tuple(e): Fraction(1)})

    @classmethod
    def u_monomial(cls, g: int, indices) -> "WPoly":
        """The product of u_i over the (multiset of) indices."""
        e = [0] * (2 * g - 2)
        for i in indices:
            e[i] += 1
        return cls(g, {tuple(e): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, WPoly):
            return NotImplemented
        return self.g == other.g and self.terms == other.terms

    def __hash__(self):
        return hash((self.g, tuple(sorted(self.terms.items()))))

    def _check_g(self, other):
        if self.g != other.g:
            raise ValueError("genus mismatch")

    def __add__(self, other):
        if not isinstance(other, WPoly):
            return NotImplemented
        self._check_g(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
        return WPoly._raw(self.g, out)

    def __sub__(self, other):
        if not isinstance(other, WPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return WPoly._raw(self.g, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        """The product over Q, on the integer multiples of the coefficients (`to_integers`)."""
        if not isinstance(other, WPoly):
            return NotImplemented
        self._check_g(other)
        try:
            scale, a = to_integers(self.terms.values())
            other_scale, b = to_integers(other.terms.values())
        except AttributeError:  # only a TruncatedScalar coefficient has no denominator
            raise TypeError("a WPoly product is over Q, not over the coefficient %r" % next(
                c for p in (self, other) for c in p.terms.values()
                if isinstance(c, TruncatedScalar))) from None
        out = {}
        right = list(zip(other.terms, b))
        for e1, c1 in zip(self.terms, a):
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                if e in out:
                    s = out[e] + c
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                elif c:
                    out[e] = c
        return WPoly._raw(self.g, dict(zip(out, from_integers(out.values(), scale * other_scale))))

    def map_coeffs(self, fn) -> "WPoly":
        """fn applied to every coefficient; the terms it sends to zero are dropped."""
        return WPoly._raw(self.g, {e: v for e, c in self.terms.items() if (v := fn(c))})

    def degree(self):
        """Common weighted degree of all terms; None for the zero polynomial."""
        g = self.g
        degrees = (sum(e[:g]) + 2 * sum(e[g:]) for e in self.terms)
        first = next(degrees, None)
        if any(w != first for w in degrees):
            raise ValueError("polynomial is inhomogeneous in the weighted grading")
        return first

    def is_u_only(self) -> bool:
        return all(not any(e[self.g:]) for e in self.terms)

    def var_name(self, index: int) -> str:
        if index < self.g:
            return "u%d" % index
        return "v%d" % (index - self.g)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join("%s%s" % (self.var_name(i), "^%d" % k if k > 1 else "")
                            for i, k in enumerate(e) if k)
            cs = rat_to_str(c) if isinstance(c, (int, Fraction)) else repr(c)
            parts.append("%s*%s" % (cs, mono) if mono else cs)
        return " + ".join(parts)

    def to_json(self):
        out = []
        for e in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[e]
            entry = {"u": list(e[:self.g]), "v": list(e[self.g:])}
            if isinstance(c, TruncatedScalar):
                entry["c"] = c.to_json()
            else:
                entry["c"] = rat_to_str(c)
            out.append(entry)
        return out

    @classmethod
    def from_json(cls, g: int, data, read_coeff=None) -> "WPoly":
        """The polynomial of a to_json term list; a monomial listed twice is
        read as the sum of its coefficients.

        read_coeff(c) reads each term's coefficient c; the default reads a
        rational, and a family document passes TruncatedScalar.from_json.
        """
        terms = {}
        for entry in data:
            if not (isinstance(entry, dict) and "c" in entry and all(
                    isinstance(entry.get(k), list) and all(type(x) is int for x in entry[k])
                    for k in "uv")):
                raise ValueError("bad term %r: expected an object with integer lists "
                                 "u and v and a coefficient c" % (entry,))
            exps = tuple(entry["u"]) + tuple(entry["v"])
            c = entry["c"]
            coeff = read_coeff(c) if read_coeff else json_rat(c, "c")
            terms[exps] = terms[exps] + coeff if exps in terms else coeff
        return cls(g, terms)

def grlex_key(exps):
    """Graded-lex sort key (largest monomial has the largest key).

    It orders by total degree (u and v count once each); ties are broken
    lexicographically with v_{g-3} most significant, matching the stated
    variable order u_0 < ... < v_{g-3}.
    """
    return (sum(exps), tuple(reversed(exps)))


def grevlex_key(exps):
    """Graded-reverse-lex sort key for the same variable order."""
    return (sum(exps), tuple(-e for e in exps))


MONOMIAL_ORDERS = {"grlex": grlex_key, "grevlex": grevlex_key}


def _compositions(n: int, k: int):
    """k-tuples summing to n, last entry largest first: descending grlex."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for last in range(n, -1, -1):
        for head in _compositions(n - last, k - 1):
            yield head + (last,)


def monomials(g: int, degree: int, *, u_only: bool = False):
    """All exponent tuples of the given weighted degree, in descending grlex order.

    The order is a fixed convention so that coefficient vectors, rref forms
    and JSON output are reproducible.  It is built, not sorted: fewer v
    factors means a larger total degree, and v exponents outrank u ones.
    Each enumeration is built once per process; every call gets a fresh list.
    """
    return list(_monomials(g, degree, u_only))


@lru_cache(maxsize=None)
def _monomials(g: int, degree: int, u_only: bool) -> tuple:
    if u_only:
        pad = (0,) * (g - 2)
        return tuple(u + pad for u in _compositions(degree, g))
    return tuple(u + v for s in range(degree // 2 + 1)
                 for v in _compositions(s, g - 2)
                 for u in _compositions(degree - 2 * s, g))


def veronese_pullback(p: WPoly) -> BinaryForm:
    """Restrict a u-polynomial to the rational normal curve.

    Substitutes u_i -> x0^i * x1^(g-1-i).  The input must involve only u
    variables and be homogeneous of some degree d (weighted = ordinary for
    u-polynomials); the result is a binary form of degree d*(g-1).
    """
    g = p.g
    if not p.is_u_only():
        raise ValueError("pullback requires a u-only polynomial")
    if not p.terms:
        raise ValueError("pullback of the zero polynomial has no determined degree")
    d = p.degree()
    scale, ints = to_integers(p.terms.values())
    coeffs = [0] * (d * (g - 1) + 1)
    for e, c in zip(p.terms, ints):
        coeffs[sum(i * k for i, k in enumerate(e[:g]))] += c
    return BinaryForm._raw(d * (g - 1), from_integers(coeffs, scale))


def quartic_lift(f: BinaryForm, g: int) -> WPoly:
    """Greedy right inverse of the pullback on degree-4(g-1) forms.

    The monomial x0^k * x1^(4(g-1)-k) lifts to u_{a_1} u_{a_2} u_{a_3}
    u_{a_4} where each a_t takes as much of k as fits: a_t = min(g-1,
    k - a_1 - ... - a_{t-1}).  Distinct lifts of the same form differ by
    elements of the curve ideal, so downstream identities are checked by
    ideal membership rather than literal equality.  Distinct k lift to
    distinct monomials, so each coefficient of f is one term of the lift.
    """
    n = g - 1
    if f.degree != 4 * n:
        raise ValueError("expected a form of degree %d" % (4 * n))
    terms = {}
    for k, c in enumerate(f.coeffs):
        if c:
            e = [0] * (2 * g - 2)
            rem = k
            for _ in range(4):
                a = min(n, rem)
                e[a] += 1
                rem -= a
            terms[tuple(e)] = c
    return WPoly._raw(g, terms)
