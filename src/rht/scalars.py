"""Exact rational and Laurent-polynomial scalars.

Every rational in a JSON file is written by `str` ("p" or "p/q") and read
back by `parse_rational`; a family's coefficients in Q[t, 1/t] by `Laurent`,
also the entry type of action matrices: a dict t-power -> coefficient.  A
coefficient is an `int` when it is integral and a `Fraction` otherwise,
in every `Element` too, and zeros are never stored, so equality is
structural.  Floats and bools are refused: every scalar is exact.

`exact_coefficient` is the one normaliser.  The public constructor runs it
on every term; `Laurent._trusted` stores a dict as given, for callers that
keep the invariant: every value is an int or a non-integral Fraction, and
none is zero.  A `Laurent` is a value to parse, print, compare and
evaluate at a rational t; it has no ring arithmetic.  Code that computes
with the entries, like the diagonalisation certificate, reads their term
dicts {power: coefficient}.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import SchemaError


def exact_rational(v) -> Fraction:
    """Fraction(v) for an exact v; floats and bools raise TypeError."""
    if isinstance(v, (bool, float)):
        raise TypeError(f"scalars are exact rationals, not {type(v).__name__}")
    return Fraction(v)


def parse_rational(text: str, path: str = "") -> Fraction:
    """Parse "p" or "p/q" into an exact Fraction, the inverse of `str`;
    decimals and exponents are refused, and integers are read by `int`."""
    s = text.strip()
    if not s:
        raise SchemaError("empty rational literal", path)
    if any(c in s for c in ".eE"):
        raise SchemaError(f"not an exact rational: {text!r}", path)
    try:
        return Fraction(int(s)) if (s[1:] if s[0] in "+-" else s).isdecimal() else Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not an exact rational: {text!r}", path) from exc


def exact_coefficient(v):
    """An int when v is integral, a Fraction otherwise; floats and bools
    raise TypeError."""
    if type(v) is int:
        return v
    if type(v) is Fraction:
        return v.numerator if v.denominator == 1 else v
    return exact_coefficient(exact_rational(v))


class Laurent:
    """Laurent polynomial in t over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        clean = {}
        if terms:
            for k, v in terms.items():
                v = exact_coefficient(v)
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

    # ---- structure ----------------------------------------------------

    def items(self):
        return sorted(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        # an int or a Fraction, not a bool, is the constant of its value
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Laurent.from_rational(other)
        if not isinstance(other, Laurent):
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

    # ---- negation and evaluation --------------------------------------

    def __neg__(self) -> "Laurent":
        return Laurent._trusted({k: -v for k, v in self._terms.items()})

    def eval_t(self, value: Fraction) -> "Laurent":
        """Substitute a rational value for t: a constant Laurent."""
        value = Fraction(exact_coefficient(value))
        if value == 0 and any(k < 0 for k in self._terms):
            raise ZeroDivisionError("t^-1 at t = 0")
        return Laurent({0: sum(c * value**k for k, c in self._terms.items())})

    # ---- text form ----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for k, c in sorted(self._terms.items(), reverse=True):
            if not k:
                body = str(abs(c))
            else:
                power = "t" if k == 1 else f"t^{k}"
                body = power if abs(c) == 1 else f"{abs(c)}*{power}"
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
        # split into signed chunks at top level: a sign opens the text or
        # follows a space, and every sign needs a term before the next one
        chunks: list[tuple[int, str]] = []
        sign, buf = 1, []
        for i, ch in enumerate(src):
            if ch in "+-" and (i == 0 or (buf and src[i - 1] == " ")):
                if i:
                    chunks.append((sign, "".join(buf).strip()))
                sign, buf = (-1 if ch == "-" else 1), []
            else:
                buf.append(ch)
        chunks.append((sign, "".join(buf).strip()))
        terms: dict[int, Fraction] = {}
        for sgn, chunk in chunks:
            if not chunk:
                raise SchemaError(f"sign with no term in scalar literal {text!r}", path)
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
