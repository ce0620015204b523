"""Exact one- and two-variable integer Laurent polynomials.

Values are immutable: every operation returns a fresh object, the term maps
are never mutated after construction, and assigning or deleting an attribute
raises. Coefficients are plain Python ints, so there is no overflow anywhere.
"""

from __future__ import annotations

import operator
import re

from .errors import ParseError
from .value import Value

__all__ = [
    "LaurentPoly1",
    "LaurentPoly2",
    "SpecializationMap",
    "SPECIALIZE_S",
    "SPECIALIZE_L",
    "SPECIALIZE_W",
    "AUGMENTATION",
]


def _collect(pairs) -> dict:
    """The coefficients of (exponent key, coefficient) pairs, summed by key."""
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return out


def _ring(name, variables):
    """Make the Laurent polynomial ring over Z in `variables`.

    One class body serves every ring, so each ring gets its own copy of the
    methods. An exponent key is a plain int for one variable and a tuple of
    plain ints for several (bools are no ints): `key` makes it from a tuple,
    `exps` turns it back into one, and `shift` adds two keys. Coefficients
    are plain ints too.
    """
    arity = len(variables)
    if arity == 1:
        key, exps, shift = (lambda t: t[0]), (lambda e: (e,)), operator.add
    else:
        key = exps = tuple

        def shift(e1, e2):
            return tuple(map(operator.add, e1, e2))

    class Laurent(Value):
        __slots__ = ("terms",)

        def __init__(self, terms=None):
            terms = terms or {}
            for e, c in terms.items():
                t = (e,) if arity == 1 else e
                if type(t) is not tuple or len(t) != arity or any(type(x) is not int for x in t):
                    shape = "an int" if arity == 1 else f"a tuple of {arity} ints"
                    raise TypeError(f"{name} exponent key must be {shape}, got {e!r}")
                if type(c) is not int:
                    raise TypeError(f"{name} coefficient must be an int, got {c!r}")
            object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c != 0})

        @classmethod
        def zero(cls):
            return cls()

        @classmethod
        def one(cls):
            return cls.monomial(*[0] * arity)

        @classmethod
        def monomial(cls, *args, coeff=None):
            """monomial(a, coeff=1), or monomial(a, b, coeff=1) in two variables."""
            if coeff is None and len(args) == arity + 1:
                *args, coeff = args
            if len(args) != arity:
                raise TypeError(f"{name}.monomial() takes {arity} exponent(s) and an "
                                f"optional coeff, got {len(args)} exponent(s)")
            return cls({key(args): 1 if coeff is None else coeff})

        def is_zero(self) -> bool:
            return not self.terms

        def __bool__(self) -> bool:
            return bool(self.terms)

        __hash__ = None  # the terms are a dict

        def __neg__(self):
            return Laurent({e: -c for e, c in self.terms.items()})

        def __add__(self, other):
            if not isinstance(other, Laurent):
                return NotImplemented
            return Laurent(_collect([*self.terms.items(), *other.terms.items()]))

        def __sub__(self, other):
            if not isinstance(other, Laurent):
                return NotImplemented
            return self + (-other)

        def __mul__(self, other):
            if isinstance(other, int):
                return Laurent({e: c * other for e, c in self.terms.items()})
            if not isinstance(other, Laurent):
                return NotImplemented
            return Laurent(_collect((shift(e1, e2), c1 * c2) for e1, c1 in self.terms.items()
                                    for e2, c2 in other.terms.items()))

        __rmul__ = __mul__

        def render(self, sep: str = "*") -> str:
            if not self.terms:
                return "0"
            parts = []
            for e in sorted(self.terms, reverse=True):
                coeff = self.terms[e]
                factors = [var if x == 1 else f"{var}^{x}"
                           for var, x in zip(variables, exps(e)) if x != 0]
                mag = abs(coeff)
                body = sep.join(factors if mag == 1 and factors else [str(mag)] + factors)
                parts.append((" + " if coeff > 0 else " - ") + body)
            text = "".join(parts)
            return text[3:] if text[1] == "+" else "-" + text[3:]

        @classmethod
        def parse(cls, text: str):
            return cls(_collect((key(tuple(powers.get(v, 0) for v in variables)), coeff)
                                for coeff, powers in _parse_terms(text, variables)))

        def __repr__(self) -> str:
            return f"{name}({self.render()!r})"

    Laurent.__name__ = Laurent.__qualname__ = name
    Laurent.__doc__ = (f"Laurent polynomial in {', '.join(variables)}; terms maps "
                       f"{'exponents' if arity == 1 else 'exponent tuples'} to nonzero ints.")
    return Laurent


LaurentPoly1 = _ring("LaurentPoly1", ("q",))
LaurentPoly2 = _ring("LaurentPoly2", ("q1", "q2"))


def _specialize(self, smap: SpecializationMap) -> LaurentPoly1:
    """Collapse to one variable: each q1^a q2^b goes to q^a', where a'
    sums the exponents whose targets are q."""
    return LaurentPoly1(_collect((smap.exponent(a, b), c) for (a, b), c in self.terms.items()))


LaurentPoly2.specialize = _specialize


class SpecializationMap(Value):
    """Ring map out of the two-variable ring, sending each of q1, q2 to q or 1."""

    __slots__ = ("target_of_q1", "target_of_q2")

    def __init__(self, target_of_q1: str, target_of_q2: str):
        object.__setattr__(self, "target_of_q1", target_of_q1)
        object.__setattr__(self, "target_of_q2", target_of_q2)
        for t in (target_of_q1, target_of_q2):
            if t not in ("q", "1"):
                raise ParseError(f"specialization target must be 'q' or '1', got {t!r}")

    def exponent(self, a: int, b: int) -> int:
        out = 0
        if self.target_of_q1 == "q":
            out += a
        if self.target_of_q2 == "q":
            out += b
        return out


SPECIALIZE_S = SpecializationMap("q", "q")  # q1, q2 -> q
SPECIALIZE_L = SpecializationMap("1", "q")  # q1 -> 1, q2 -> q
SPECIALIZE_W = SpecializationMap("q", "1")  # q2 -> 1, q1 -> q
AUGMENTATION = SpecializationMap("1", "1")


# ---------------------------------------------------------------------------
# parsing


_TOKENS = re.compile(r"\s*(?:(q1|q2|q|[\^*+-]|[0-9]+)|(\S))")


def _parse_terms(text, variables):
    """INPUT: polynomial text and the allowed variable names.
    OUTPUT: list of (coefficient, {var: exponent}) term tuples.

    Accepts the rendered grammar plus optional whitespace; '*' between
    factors is optional, so "3 q1^2 q2^-1" and "3*q1^2*q2^-1" both parse.
    The whole text is tokenized first, so an unexpected character is
    reported before any grammar fault.
    """
    toks = []
    for tok, bad in _TOKENS.findall(text):
        if bad:
            raise ParseError(f"unexpected character {bad!r} in polynomial {text!r}")
        toks.append(tok)
    if not toks:
        raise ParseError(f"empty polynomial text {text!r}")
    toks.append("")  # end sentinel
    i = 0

    def sign():
        nonlocal i
        start = i
        while toks[i] in ("+", "-"):
            i += 1
        return -1 if toks[start:i].count("-") % 2 else 1

    terms = []
    while True:
        coeff, exps, last = sign(), {}, None  # last: None, "*" or the term's last atom
        if terms and not toks[i]:
            raise ParseError(f"dangling sign at end of {text!r}")
        while True:
            t = toks[i]
            if t.isdigit():
                coeff *= int(t)
            elif t in ("q", "q1", "q2"):
                if t not in variables:
                    raise ParseError(
                        f"variable {t!r} is not allowed here (expected {', '.join(variables)})"
                    )
                e = 1
                if toks[i + 1] == "^":
                    i += 2
                    e = sign()
                    if not toks[i].isdigit():
                        raise ParseError(f"exponent expected after '^' in {text!r}")
                    e *= int(toks[i])
                exps[t] = exps.get(t, 0) + e
            elif t == "*":
                if last is None:
                    raise ParseError(f"misplaced '*' in {text!r}")
            else:
                break
            last = t
            i += 1
        if last in (None, "*"):
            raise ParseError(f"incomplete term in polynomial {text!r}")
        terms.append((coeff, exps))
        if not toks[i]:
            return terms
        if toks[i] not in ("+", "-"):
            raise ParseError(f"expected '+' or '-' before {toks[i]!r} in {text!r}")
