"""Exact scalars: arbitrary-precision rationals, values of the cyclotomic
field Q(zeta_p), and Laurent polynomials over powers of t = 2 - z - z^-1.

Laurent is the one arithmetic scalar: it keeps the phase of a nontrivial
group element as the indeterminate z, for expressions that hold at every
nontrivial element at once; its only inverses are those of c * t^m, the one
denominator the index needs.  Laurent.at evaluates N(z)/t^k at z = zeta_p^j
by checked O(d) divisions by t (divide_by_t_vec), into a Cyclotomic: an
immutable value of Q(zeta_p) = Q[x] / (Phi_p(x)), Phi_p the p-th cyclotomic
polynomial, with no arithmetic (the tests' per-element oracle has the field
arithmetic).

Both store integer numerators over one positive common denominator, in
lowest terms, through one canonicaliser (_canonical) and one slot setter
(_raw); rationals at the interface are `fractions.Fraction`.  No floating
point appears anywhere.  Every element of Q(zeta_p) built from powers of
zeta (Galois images and Laurent values) goes through one kernel,
Cyclotomic._from_terms, the only place that scales an exponent (by a Galois
image's k or a Laurent value's j) and takes it mod p; Galois maps fix Q, so
a rational element skips it.  The kernel reduces through one table of
x^s mod Phi_p per order (_reduction_rows), which _reduction_rows_close
checks against its own recurrence in time linear in the table.

This is the package's bottom layer: it imports no other module of it.  The
group sums over these scalars, the trig sums included, are in identities.py.
It also holds _Record, the immutable base of the package's small value
types (cohomology elements, group elements, topological data, reports).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import attrgetter, index, sub
from typing import Iterable, Optional, Union

RationalLike = Union[int, Fraction]

_set = object.__setattr__  # for _raw and _Record.__init__s: their __setattr__ refuses


class ConsistencyError(ArithmeticError):
    """An internal exactness check failed (non-rational group sum,
    non-integer index, or a verified identity that did not hold)."""


def int_digit_limit() -> int:
    """The interpreter's int-to-str limit (4300 digits by default), and 4300
    where the limit is off (0) or the interpreter has none (int() is 0)."""
    return getattr(sys, "get_int_max_str_digits", int)() or 4300


# the two forms Fraction parses, a/b and a decimal with an optional exponent,
# split into their digit strings; compiled by re on first use, not at import
_RATIONAL_FORM = r"""\s*[-+]?(?=\d|\.\d)(?P<num>\d*(?:_\d+)*)
    (?:/(?P<den>\d+(?:_\d+)*)
     |(?:\.(?P<dec>\d*(?:_\d+)*))?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)\s*\Z"""


def parse_rational(s: str) -> Fraction:
    """s as a Fraction ("a/b", or a decimal with an optional exponent), or
    ValueError.  The digit counts of the numerator and denominator that
    Fraction would build are read off the string first: above the
    interpreter's int-to-str limit (4300 digits by default, and the bound
    where the limit is off) the string is refused by name, so no value that
    str() cannot print is built, nor the power of ten of a large exponent."""
    limit = int_digit_limit()
    shown = repr(s) if len(s) <= 40 else f"{s[:20]!r}... ({len(s)} characters)"
    if (m := re.match(_RATIONAL_FORM, s, re.VERBOSE)) is not None:
        num, den, dec = (len((m[g] or "").replace("_", "")) for g in ("num", "den", "dec"))
        try:
            exp = int((m["exp"] or "0").replace("_", ""))
        except ValueError:  # the exponent alone has more digits than the limit
            exp = limit + 1
        # digits of the numerator, of b, and of the decimal form's power of ten
        if max(num + dec + max(exp, 0), den, dec + max(-exp, 0) + 1) > limit:
            raise ValueError(f"rational {shown} exceeds the limit of {limit} digits "
                             "in its numerator or denominator")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {shown}") from exc


# ---------------------------------------------------------------------------
# small number-theoretic helpers
# ---------------------------------------------------------------------------

def _prime_factors(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1, by trial division by 2 and the odd
    numbers.  n must be an integer (operator.index): a float 7.0 raises
    TypeError here, so neither this module's helpers nor a memo keyed by an
    order or a divisor above them ever holds a value computed from a
    non-integer."""
    n = index(n)
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    f, step = 2, 1  # 2, then the odd candidates 3, 5, 7, ...
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f, step = f + step, 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int, factors: Optional[list[tuple[int, int]]] = None) -> list[int]:
    """Sorted positive divisors of n >= 1, built from its (prime, exponent)
    pairs: `factors` when the caller has them, else _prime_factors(n)."""
    out = [1]
    for q, e in _prime_factors(n) if factors is None else factors:
        out += [d * q ** i for i in range(1, e + 1) for d in out]
    out.sort()
    return out


def euler_phi(n: int) -> int:
    result = n
    for q, _ in _prime_factors(n):
        result -= result // q
    return result


def ramanujan_weights(d: int, primes: list[int], top: int) -> list[tuple[int, int]]:
    """The pairs (m, mu(d/m) * m) over the divisors m <= top of d with d/m
    squarefree, from d's distinct primes: with top >= d, the Ramanujan sum
    c_d(s) is the sum of the weights whose m divides s.  Each m is d/rad(d)
    times a product of distinct primes, built upward, so a product above
    top is never extended."""
    core = d
    for q in primes:
        core //= q
    if core > top:
        return []
    weights = [(core, -core if len(primes) % 2 else core)]
    for q in primes:
        weights += [(m * q, -w * q) for m, w in weights if m * q <= top]
    return weights


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------

def _poly_mul_int(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    b_nz = [(k, bk) for k, bk in enumerate(b) if bk]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bk in b_nz:
                out[i + k] += ai * bk
    return tuple(out)


@lru_cache(maxsize=1)
def cyclotomic_polynomial(p: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_p, lowest degree first.

    Computed as the binomial product Phi_p = prod_{d | p} (x^d - 1)^mu(p/d)
    (Arnold and Monagan, Math. Comp. 80, 2011), with mu(p/d) the sign of
    d's Ramanujan weight: the factors with mu = +1 are multiplied in, then
    those with mu = -1 divided out exactly, each in one pass over the list.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    weights = ramanujan_weights(p, [q for q, _ in _prime_factors(p)], p)
    phi_p = [1]
    for d, w in weights:
        if w > 0:  # times x^d - 1
            phi_p = list(map(sub, [0] * d + phi_p, phi_p + [0] * d))
    for d, w in weights:
        if w < 0:  # q * (x^d - 1) = phi_p: q_i = q_(i-d) - phi_p[i], exact when q ends in d zeros
            q = [-c for c in phi_p]
            for i in range(d, len(q)):
                q[i] += q[i - d]
            if any(q[-d:]):
                raise ConsistencyError(f"inexact division while building Phi_{p}")
            phi_p = q[:-d]
    if len(phi_p) - 1 != euler_phi(p):
        raise ConsistencyError(f"deg Phi_{p} != phi({p})")
    return tuple(phi_p)


@lru_cache(maxsize=1)
def _reduction_rows(p: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """rows[s] = the nonzero (i, coefficient of x^i) of x^s mod Phi_p, for
    the p exponents 0 <= s < p: Phi_p divides x^p - 1, so every power of
    zeta_p is one of these once its exponent is taken mod p.  Only the last
    order's table, and its Phi_p, are kept: `verify` runs order by order, so
    a sweep holds one table at a time, not one per order."""
    phi_p = cyclotomic_polynomial(p)
    # below phi each power is a monomial; x^phi = x^phi - Phi_p starts the recurrence
    rows = [((s, 1),) for s in range(len(phi_p) - 1)]
    cur = [-f for f in phi_p[:-1]]
    for _ in range(len(rows), p):
        rows.append(tuple((i, r) for i, r in enumerate(cur) if r))
        # x * cur, with x^phi replaced by x^phi - Phi_p
        lead, cur = cur[-1], [0] + cur[:-1]
        if lead:
            cur = [c - lead * f for c, f in zip(cur, phi_p)]
    return tuple(rows)


def _reduction_rows_close(p: int) -> bool:
    """Whether the stored table _reduction_rows(p) closes under its own
    recurrence, re-derived step by step from the rows and Phi_p, never by
    the builder: there are p rows, rows[0] is 1, and x * rows[s], with x^phi
    replaced once by x^phi - Phi_p, is rows[(s + 1) % p] for every s, the
    wrap from p - 1 to 0 included.  Each step is built in canonical form
    (increasing exponents in [0, phi), nonzero coefficients), so by
    induction from rows[0] every row that passes has that form: a row with
    an exponent >= phi or a stored zero fails its comparison.  The steps
    prove rows[s] = x^s mod Phi_p for every s < p, and the wrap that Phi_p
    divides x^p - 1.  A step costs O(its row), and O(phi) where x^phi is
    replaced, so the check is linear in the table."""
    rows = _reduction_rows(p)
    phi_p = cyclotomic_polynomial(p)
    phi = len(phi_p) - 1
    if len(rows) != p or rows[0] != ((0, 1),):
        return False
    for s, row in enumerate(rows):
        top, lead = row[-1]
        if top == phi - 1:  # x * row has lead * x^phi: replace it by lead * (x^phi - Phi_p)
            step = [-lead * f for f in phi_p[:-1]]
            for i, c in row[:-1]:
                step[i + 1] += c
            step = tuple((i, c) for i, c in enumerate(step) if c)
        else:
            step = tuple((i + 1, c) for i, c in row)
        if step != rows[(s + 1) % p]:
            return False
    return True


def _check_rational(c: RationalLike) -> RationalLike:
    # a float, complex or Decimal would silently bring in a rounded value
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"exact coefficients must be int or Fraction, not {type(c).__name__}")
    return c


def _integer_form(cs: Iterable[RationalLike]) -> tuple[tuple[int, ...], int]:
    """(nums, den) with cs == nums / den: over the lcm of the reduced
    denominators, gcd(den, *nums) == 1, so the form is already canonical."""
    cs = tuple(_check_rational(c) for c in cs)
    den = lcm(*(c.denominator for c in cs))
    return tuple(c.numerator * (den // c.denominator) for c in cs), den


class _Scalar:
    """The value protocol of the exact scalars (integer numerators `nums`
    over one positive `den`, in lowest terms).  Two rational values are equal
    by value, whatever their types and orders, and hash as their Fraction;
    any other pair is equal when type and canonical _key are, so == is
    transitive and equal values hash alike."""

    __slots__ = ()

    def __reduce__(self):
        # pickle and copy would restore the slots through the blocked __setattr__;
        # each class's _raw sets its slots, in _key order, to a canonical state
        return (type(self)._raw, self._key())

    def __bool__(self):
        return any(self.nums)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is type(self) and self._key() == other._key():
            return True  # the equal case is one key comparison
        if isinstance(other, _Scalar):
            q = other.as_rational()
        elif isinstance(other, (int, Fraction)):
            q = other
        else:
            return NotImplemented
        return q is not None and self.as_rational() == q

    def __hash__(self):
        q = self.as_rational()
        return hash(self._key()) if q is None else hash(q)


class _Record:
    """Immutable record of named fields, the base of the package's value
    types.  A subclass names its fields, in order, in `_fields` (at least
    two); its __init__ validates its arguments and sets each field with
    _set, so vars() of a record lists exactly its fields.  Everything else
    reads the field tuple through one attrgetter per class, made when the
    subclass is defined: == compares the field tuples of two records of the
    same class (a record never equals an instance of another type), hash
    is the hash of the field tuple, repr is Name(field=value, ...), and
    pickle and copy rebuild through __init__, so every copy is validated
    again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if len(cls._fields) < 2:  # attrgetter of one name returns the bare value
            raise TypeError(f"{cls.__name__} needs at least two _fields")
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values(self)


class Cyclotomic(_Scalar):
    """Immutable value of Q(zeta_p): phi(p) integer numerators `nums` in the
    power basis 1, zeta, ..., zeta^(phi-1), reduced modulo Phi_p, over one
    common denominator `den`.  The form is canonical (den > 0,
    gcd(den, *nums) == 1, zero is (0, ..., 0)/1), so equal elements have
    equal (order, nums, den).

    A value with no arithmetic: built from powers of zeta (_from_terms) or a
    rational, it has the Galois maps, equality, hash and JSON.  To compute
    in Q(zeta_p), compose a Laurent class and evaluate it with Laurent.at.
    """

    __slots__ = ("order", "nums", "den")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, order: int, nums: tuple, den: int) -> "Cyclotomic":
        self = object.__new__(cls)
        _set(self, "order", order)
        _set(self, "nums", nums)
        _set(self, "den", den)
        return self

    @classmethod
    def _canonical(cls, order: int, nums, den: int) -> "Cyclotomic":
        """Element nums/den for den > 0, with the common factor removed (none
        when den == 1, so the gcd is skipped)."""
        if den != 1 and (g := gcd(den, *nums)) != 1:
            return cls._raw(order, tuple(c // g for c in nums), den // g)
        return cls._raw(order, tuple(nums), den)

    @classmethod
    def _from_terms(cls, order: int, terms, den: int = 1, mult: int = 1) -> "Cyclotomic":
        """sum c zeta^(s * mult) / den over the (s, c) of any iterable terms,
        for integers s, c and mult and den > 0: the one place that scales an
        exponent and takes it mod p (zeta^p = 1), and the one reduction
        modulo Phi_p, of the nonzero terms only.  A Galois image passes its
        own numerators and k, a Laurent value its numerators and j, so no
        caller builds a list of scaled pairs."""
        rows = _reduction_rows(order)
        nums = [0] * (len(cyclotomic_polynomial(order)) - 1)
        for s, c in terms:
            if c:
                for i, r in rows[s * mult % order]:
                    nums[i] += c * r
        return cls._canonical(order, nums, den)

    # -- structure maps ------------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Image under the field automorphism zeta -> zeta^k (gcd(k, p) = 1)."""
        p = self.order
        if gcd(k, p) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism for order {p}")
        if not any(self.nums[1:]):  # Galois maps fix Q; skips the kernel
            return self
        return self._from_terms(p, enumerate(self.nums), self.den, k)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return self.galois(-1)

    def as_rational(self) -> Optional[Fraction]:
        """The constant coefficient if the element is rational, else None."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    # -- protocol and serialization ------------------------------------------

    def _key(self):
        return self.order, self.nums, self.den

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self.to_json()['coeffs']})"

    def to_json(self) -> dict:
        den = self.den  # each coefficient as str(Fraction(c, den)), from the integers
        return {"order": self.order, "coeffs": [str(c // g) if (g := gcd(c, den)) == den
                                                else f"{c // g}/{den // g}" for c in self.nums]}


# ---------------------------------------------------------------------------
# p-independent scalars: Laurent polynomials in z over powers of t
# ---------------------------------------------------------------------------

def _times_t(vec: list[int]) -> list[int]:
    """t * vec in Z[x]/(x^d - 1), d = len(vec): 2 v_r - v_(r-1) - v_(r+1) is
    diff_r - diff_(r+1) for the cyclic first difference diff_r = v_r - v_(r-1)."""
    diff = list(map(sub, vec, vec[-1:] + vec[:-1]))
    return list(map(sub, diff, diff[1:] + diff[:1]))


def divide_by_t_vec(n: list[int]) -> list[int]:
    """q in Z[x]/(x^d - 1), d = len(n) >= 2, with t * q = d^2 n - d (sum n) N_d
    in O(d): the right side fixes each drop diff_r - diff_(r+1) of the cyclic
    diff_r = q_r - q_(r-1), whose sum is zero.  Checked before it is returned."""
    d, s = len(n), sum(n)
    if d < 2:
        raise ZeroDivisionError("zeta_d = 1 is not invertible in these identities")
    drops = list(accumulate((d * (d * c - s) for c in n[:-1]), initial=0))  # diff_0 - diff_r
    diff_0 = sum(drops) // d
    q = list(accumulate((diff_0 - c for c in drops[1:]), initial=0))
    verify_quotient_vec(n, q)
    return q


def verify_quotient_vec(n: list[int], q: list[int]) -> None:
    """Check t * q = d^2 n - d (sum n) N_d in Z[x]/(x^d - 1), d = len(n): the
    all-ones N_d vanishes at every primitive d-th root, so q = d^2 n / t there."""
    d, s = len(n), sum(n)
    if _times_t(q) != [d * (d * c - s) for c in n]:
        raise ConsistencyError(f"quotient by t failed its ring identity at d={d}")


def _div_by_t(lo: int, cs) -> Optional[tuple[int, tuple]]:
    """(lo + 1, q) with t * q == cs, both from their lowest power upward,
    or None when t = 2 - z - z^-1 = -(1 - z)^2 / z does not divide cs.  A
    prefix sum divides by 1 - z, exactly when its last entry (the sum of
    what it divides) is 0."""
    if len(cs) < 3:
        return None
    for _ in range(2):
        *cs, r = accumulate(cs)
        if r:
            return None
    return lo + 1, tuple(-c for c in cs)


class Laurent(_Scalar):
    """Element N(z) / t^k of Q[z, z^-1, 1/t], t = 2 - z - z^-1: the phase of
    a nontrivial group element kept as the indeterminate z, so one value
    stands for the same expression at every zeta_p^j, j != 0.

    Stored as Cyclotomic is: N is the integer numerators `nums` of z^lo,
    z^(lo+1), ... over one positive denominator `den`, in lowest terms.  The
    form is canonical (gcd(den, *nums) == 1, no zero numerator at either
    end, k >= 0, and t does not divide N when k > 0; zero is ()/1 with
    lo = k = 0), so equal elements have equal (lo, nums, den, k).  The units
    are exactly Laurent({0: c}, -m) = c * t^m, m any integer.
    """

    __slots__ = ("lo", "nums", "den", "k")

    def __new__(cls, terms: dict[int, RationalLike], k: int = 0):
        """sum_s terms[s] z^s / t^k for any integer k, t cancelled exactly."""
        cs = {s: c for s, c in terms.items() if _check_rational(c)}
        lo = min(cs, default=0)
        nums, den = _integer_form(cs.get(s, 0) for s in range(lo, max(cs, default=lo - 1) + 1))
        return cls._canonical(lo, nums, den, k)

    @classmethod
    def _raw(cls, lo: int, nums: tuple, den: int, k: int) -> "Laurent":
        self = object.__new__(cls)
        _set(self, "lo", lo)
        _set(self, "nums", nums)
        _set(self, "den", den)
        _set(self, "k", k)
        return self

    @classmethod
    def _canonical(cls, lo: int, nums, den: int, k: int) -> "Laurent":
        """The element nums / den / t^k, nums the integer numerators of z^lo,
        z^(lo+1), ..., for den > 0 and any integer k: zero ends trimmed, the
        common factor removed and t cancelled."""
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        start = next((i for i in range(end) if nums[i]), end)
        if start == end:
            return cls._raw(0, (), 1, 0)
        lo, nums = lo + start, nums[start:end]
        if (g := gcd(den, *nums)) != 1:
            nums, den = [c // g for c in nums], den // g
        # t = -(z - 1)^2 / z is primitive, so by Gauss's lemma multiplying or
        # dividing nums by it keeps their content: nums / den stays in lowest terms
        for _ in range(-k):  # a power of t in the numerator
            lo, nums, k = lo - 1, _poly_mul_int(nums, (-1, 2, -1)), k + 1
        while k and (q := _div_by_t(lo, nums)) is not None:
            (lo, nums), k = q, k - 1
        return cls._raw(lo, tuple(nums), den, k)

    @staticmethod
    def _coerce(other) -> Optional["Laurent"]:
        if isinstance(other, Laurent):
            return other
        if isinstance(other, (int, Fraction)):
            return Laurent({0: other})
        return None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._add(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._add(o, -1)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def _add(self, o: "Laurent", sign: int) -> "Laurent":
        if not o.nums:  # x +- 0 is x, 0 + x is x and 0 - x is -x
            return self
        if not self.nums:
            return o if sign == 1 else -o
        # over the common t^k, the numerators are N * t^(k - own k)
        k = max(self.k, o.k)
        a, b = (x if x.k == k else Laurent._canonical(x.lo, x.nums, x.den, x.k - k)
                for x in (self, o))
        g = gcd(a.den, b.den)
        fa, fb = b.den // g, sign * (a.den // g)
        lo = min(a.lo, b.lo)
        out = [0] * (max(a.lo + len(a.nums), b.lo + len(b.nums)) - lo)
        for x, f in ((a, fa), (b, fb)):
            for s, c in enumerate(x.nums, x.lo - lo):
                out[s] += f * c
        return Laurent._canonical(lo, out, a.den * fa, k)

    def __neg__(self):
        return Laurent._raw(self.lo, tuple(-c for c in self.nums), self.den, self.k)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.nums and o.nums):  # a zero factor: the canonical zero
            return o if self.nums else self
        return Laurent._canonical(self.lo + o.lo, _poly_mul_int(self.nums, o.nums),
                                  self.den * o.den, self.k + o.k)

    __rmul__ = __mul__

    def inverse(self) -> "Laurent":
        """1/self for a unit c * t^m; any other element, zero included,
        raises ZeroDivisionError."""
        lo, nums, m = self.lo, self.nums, 0
        while (q := _div_by_t(lo, nums)) is not None:
            (lo, nums), m = q, m + 1
        if lo or len(nums) != 1:
            raise ZeroDivisionError(f"{self!r} is not a unit c * t^m")
        # self = c * t^m / t^k with c = nums[0] / den, so 1/self = t^k / (c * t^m)
        return Laurent({0: Fraction(self.den, nums[0])}, m - self.k)

    def at(self, p: int, j: int) -> Cyclotomic:
        """The value at z = zeta_p^j, of exact order d = p/gcd(p, j).  With
        k > 0, N is first folded into Z[x]/(x^d - 1) and divided there k times
        by t, times d^2; the kernel then sends the nonzero numerators to the
        powers s*j mod p and reduces them to Q(zeta_p) over one denominator.
        At j = 0 a polynomial is the sum of its coefficients, and a class
        with k > 0 raises ZeroDivisionError: t vanishes there."""
        lo, nums, den = self.lo, self.nums, self.den
        if self.k:
            d = p // gcd(p, j)
            nums = [0] * d  # N mod x^d - 1
            for s, c in enumerate(self.nums, lo):
                nums[s % d] += c
            for _ in range(self.k):
                nums = divide_by_t_vec(nums)
            lo, den = 0, den * d ** (2 * self.k)
        return Cyclotomic._from_terms(p, enumerate(nums, lo), den, j)

    def conjugate(self) -> "Laurent":
        """The image under z -> z^-1, which fixes t."""
        return Laurent._canonical(1 - self.lo - len(self.nums), self.nums[::-1], self.den, self.k)

    def as_rational(self) -> Optional[Fraction]:
        """The value if the element is a constant, else None."""
        if self.k or self.lo or len(self.nums) > 1:
            return None
        return Fraction(sum(self.nums), self.den)  # zero is ()/1

    # -- protocol ------------------------------------------------------------

    def _key(self):
        return self.lo, self.nums, self.den, self.k

    def __repr__(self):
        terms = {s: str(Fraction(c, self.den)) for s, c in enumerate(self.nums, self.lo) if c}
        return f"Laurent({terms}, k={self.k})"
