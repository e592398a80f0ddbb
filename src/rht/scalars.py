"""Laurent-polynomial scalars in the family parameter t.

A one-parameter rescaling family has images with coefficients in Q[t, 1/t].
Scalars are dicts t-power -> coefficient.  A coefficient is an `int` when
it is integral and a `Fraction` otherwise, and zeros are never stored, so
equality is structural.  Floats and bools are refused: every scalar is
exact.

`_coefficient` is the one normaliser.  The public constructor runs it on
every term; the results of arithmetic go through `Laurent._trusted`, which
stores its dict as given.  Its callers keep the invariant: every value is
an int or a non-integral Fraction, and none is zero.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import SchemaError
from .rationals import format_rational, parse_rational


def exact_rational(v) -> Fraction:
    """Fraction(v) for an exact v; floats and bools raise TypeError."""
    if isinstance(v, (bool, float)):
        raise TypeError(f"scalars are exact rationals, not {type(v).__name__}")
    return Fraction(v)


def _coefficient(v):
    """An int when v is integral, a Fraction otherwise; floats and bools
    raise TypeError."""
    if type(v) is int:
        return v
    if type(v) is Fraction:
        return v.numerator if v.denominator == 1 else v
    return _coefficient(exact_rational(v))


def _collect(acc: dict) -> "Laurent":
    """The Laurent of raw sums: zeros dropped, integral Fractions made ints."""
    return Laurent._trusted({k: _coefficient(v) for k, v in acc.items() if v})


class Laurent:
    """Laurent polynomial in t over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        clean = {}
        if terms:
            for k, v in terms.items():
                v = _coefficient(v)
                if v:
                    clean[k] = v
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: dict) -> "Laurent":
        """Wrap a dict that already keeps the module invariant."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Laurent":
        return cls()

    @classmethod
    def one(cls) -> "Laurent":
        return cls({0: 1})

    @classmethod
    def from_rational(cls, q) -> "Laurent":
        return cls({0: q})

    @classmethod
    def t(cls, power: int = 1) -> "Laurent":
        return cls({power: 1})

    @classmethod
    def sum_of_products(cls, pairs) -> "Laurent":
        """The sum of a * b over pairs (a, b) of Laurents or rationals,
        accumulated into one term dict."""
        acc: dict = {}
        get = acc.get
        for a, b in pairs:
            ta = a._terms if type(a) is Laurent else _terms_of(a)
            tb = b._terms if type(b) is Laurent else _terms_of(b)
            for k1, c1 in ta.items():
                for k2, c2 in tb.items():
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
        return _collect(acc)

    # ---- structure ----------------------------------------------------

    def items(self):
        return sorted(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its rational value, so it hashes like it too
        if self.is_rational():
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def is_rational(self) -> bool:
        return all(k == 0 for k in self._terms)

    def term_count(self) -> int:
        return len(self._terms)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._terms.get(0, 0))

    def monomial_t_power(self) -> int | None:
        """The exponent w when self is exactly one term c*t^w with c = 1;
        otherwise None."""
        if len(self._terms) != 1:
            return None
        (k, c), = self._terms.items()
        return k if c == 1 else None

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Laurent":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for k, v in other._terms.items():
            v = terms.get(k, 0) + v
            if v:
                terms[k] = _coefficient(v)
            else:
                del terms[k]
        return Laurent._trusted(terms)

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        return Laurent._trusted({k: -v for k, v in self._terms.items()})

    def __sub__(self, other) -> "Laurent":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Laurent":
        return _coerce(other) - self

    def __mul__(self, other) -> "Laurent":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Laurent.sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            if len(self._terms) != 1:
                raise ValueError("negative powers only of single terms")
            (k, c), = self._terms.items()
            return Laurent._trusted({k * n: _coefficient(Fraction(1) / c ** (-n))})
        out = Laurent.one()
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval_t(self, value: Fraction) -> "Laurent":
        """Substitute a rational value for t: a constant Laurent."""
        value = Fraction(_coefficient(value))
        if value == 0 and any(k < 0 for k in self._terms):
            raise ZeroDivisionError("t^-1 at t = 0")
        return _collect({0: sum(c * value**k for k, c in self._terms.items())})

    # ---- text form ----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for k, c in sorted(self._terms.items(), reverse=True):
            if not k:
                body = format_rational(abs(c))
            else:
                power = "t" if k == 1 else f"t^{k}"
                body = power if abs(c) == 1 else f"{format_rational(abs(c))}*{power}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str, path: str = "") -> "Laurent":
        """Parse the canonical form, e.g. "1/2*t^2 - t" or "t^-1 + 3"."""
        src = text.strip()
        if not src:
            raise SchemaError("empty scalar literal", path)
        if src == "0":
            return cls.zero()
        # split into signed chunks at top level
        chunks: list[tuple[int, str]] = []
        sign, buf = 1, []
        first = True
        i = 0
        while i < len(src):
            ch = src[i]
            if ch in "+-" and (first or (buf and src[i - 1] == " ")):
                if buf and "".join(buf).strip():
                    chunks.append((sign, "".join(buf).strip()))
                sign = -1 if ch == "-" else 1
                buf = []
            else:
                buf.append(ch)
            first = False
            i += 1
        if "".join(buf).strip():
            chunks.append((sign, "".join(buf).strip()))
        terms: dict[int, Fraction] = {}
        for sgn, chunk in chunks:
            coeff, k = _parse_term(chunk, path)
            terms[k] = terms.get(k, Fraction(0)) + sgn * coeff
        return cls(terms)


def _parse_term(chunk: str, path: str) -> tuple[Fraction, int]:
    factors = chunk.split("*")
    coeff = Fraction(1)
    power = 0
    saw_var = False
    saw_coeff = False
    for f in factors:
        f = f.strip()
        if not f:
            raise SchemaError(f"malformed scalar term {chunk!r}", path)
        if f[0] == "t":
            m = re.fullmatch(r"t(?:\^(-?\d+))?", f)
            if not m:
                raise SchemaError(f"malformed scalar term {chunk!r}", path)
            power += int(m.group(1)) if m.group(1) else 1
            saw_var = True
        else:
            if saw_coeff or saw_var:
                raise SchemaError(f"malformed scalar term {chunk!r}", path)
            coeff = parse_rational(f, path)
            saw_coeff = True
    return coeff, power


def _terms_of(value) -> dict:
    value = _coerce(value)
    if value is NotImplemented:
        raise TypeError("expected a Laurent or an exact rational")
    return value._terms


def _coerce(value) -> "Laurent":
    """value as a Laurent; NotImplemented for anything but a Laurent, an
    int or a Fraction (bools included)."""
    if isinstance(value, Laurent):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Laurent.from_rational(value)
    return NotImplemented
