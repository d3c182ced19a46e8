"""Exact sparse polynomials over the rationals in the variables ∂, v, λ, μ.

Coefficients keep Λ's stored form (``coeffalg._exact``): an ``int`` when
integral, else a ``Fraction`` in lowest terms, so every operation here is
exact and integral polynomials never build a Fraction.  A float
coefficient is a ``TypeError``.  Monomials are exponent 4-tuples over the
fixed variable order ∂ < v < λ < μ; polynomials store a map from exponent
tuple to nonzero coefficient, which makes equality structural.  ASCII
aliases d, v, l, m are accepted everywhere a variable name is expected and
in the text parser.
"""

from __future__ import annotations

from fractions import Fraction
import re

from .coeffalg import _exact

VAR_NAMES = ("d", "v", "l", "m")
PRETTY_NAMES = ("∂", "v", "λ", "μ")
NVARS = 4

_VAR_INDEX = {"d": 0, "∂": 0, "v": 1, "l": 2, "λ": 2, "m": 3, "μ": 3}


def var_index(name):
    try:
        return _VAR_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown variable {name!r}; expected one of ∂,v,λ,μ (ascii: d,v,l,m)")


_ZERO_EXP = (0, 0, 0, 0)


class Poly:
    """Immutable sparse polynomial; do not mutate ``terms`` after creation."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = _exact(coeff)
                if coeff:
                    cleaned[exp] = coeff
        self.terms = cleaned
        self._hash = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls):
        return _P_ZERO

    @classmethod
    def one(cls):
        return _P_ONE

    @classmethod
    def const(cls, q):
        q = _exact(q)
        return cls({_ZERO_EXP: q}) if q else _P_ZERO

    @classmethod
    def variable(cls, name):
        i = var_index(name)
        exp = tuple(1 if j == i else 0 for j in range(NVARS))
        return cls({exp: 1})

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls({tuple(exps): coeff})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = _exact(terms.get(exp, 0) + c)
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        p = Poly.__new__(Poly)
        p.terms = terms
        p._hash = None
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.terms = {exp: -c for exp, c in self.terms.items()}
        p._hash = None
        return p

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                s = _exact(terms.get(exp, 0) + ca * cb)
                if s:
                    terms[exp] = s
                else:
                    del terms[exp]
        p = Poly.__new__(Poly)
        p.terms = terms
        p._hash = None
        return p

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = _P_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.const(other).terms
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get(_ZERO_EXP, 0)

    def degree(self, name):
        """Degree in one variable; -1 for the zero polynomial."""
        i = var_index(name)
        if not self.terms:
            return -1
        return max(exp[i] for exp in self.terms)

    def uses_only(self, names):
        allowed = {var_index(n) for n in names}
        for exp in self.terms:
            for i in range(NVARS):
                if exp[i] and i not in allowed:
                    return False
        return True

    def coeffs_in(self, name):
        """Split on one variable: map degree -> polynomial without it."""
        i = var_index(name)
        out = {}
        for exp, c in self.terms.items():
            deg = exp[i]
            rest = exp[:i] + (0,) + exp[i + 1:]
            bucket = out.setdefault(deg, {})
            bucket[rest] = bucket.get(rest, 0) + c
        return {deg: Poly(bucket) for deg, bucket in out.items() if any(bucket.values())}

    def coefficient(self, name, deg):
        return self.coeffs_in(name).get(deg, _P_ZERO)

    # -- substitution and calculus ------------------------------------------

    def subs(self, name, value):
        """Substitute a polynomial for one variable, expanding exactly."""
        i = var_index(name)
        value = _coerce(value)
        powers = {0: _P_ONE}
        out = _P_ZERO
        for exp, c in self.terms.items():
            k = exp[i]
            if k not in powers:
                powers[k] = value ** k
            rest = exp[:i] + (0,) + exp[i + 1:]
            out = out + Poly({rest: c}) * powers[k]
        return out

    def shift(self, name, offset):
        """Replace ``name`` by ``name + offset``; offset must not involve it."""
        offset = _coerce(offset)
        if offset.degree(name) > 0:
            raise ValueError(f"shift offset must not contain {name!r}")
        i = var_index(name)
        var = Poly.variable(VAR_NAMES[i])
        return self.subs(name, var + offset)

    def derivative(self, name, k=1):
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        i = var_index(name)
        p = self
        for _ in range(k):
            terms = {}
            for exp, c in p.terms.items():
                e = exp[i]
                if e:
                    nexp = exp[:i] + (e - 1,) + exp[i + 1:]
                    terms[nexp] = terms.get(nexp, 0) + c * e
            p = Poly(terms)
        return p

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return f"Poly({render_poly(self)!r})"


def _coerce(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    return NotImplemented


_P_ZERO = Poly.__new__(Poly)
_P_ZERO.terms = {}
_P_ZERO._hash = None
_P_ONE = Poly.__new__(Poly)
_P_ONE.terms = {_ZERO_EXP: 1}
_P_ONE._hash = None

D = Poly.variable("d")
V = Poly.variable("v")
L = Poly.variable("l")
M = Poly.variable("m")


def split_constant(f):
    """Split a ∂-polynomial as f = c + ∂·g; returns (c, g) exactly."""
    if not f.uses_only(("d",)):
        raise ValueError("split_constant expects a polynomial in ∂ only")
    c = f.constant_term()
    terms = {}
    for exp, coeff in f.terms.items():
        if exp[0]:
            terms[(exp[0] - 1,) + exp[1:]] = coeff
    return c, Poly(terms)


# -- text form -----------------------------------------------------------------

def _render_monomial(exp):
    parts = []
    for i, e in enumerate(exp):
        if e == 1:
            parts.append(PRETTY_NAMES[i])
        elif e > 1:
            parts.append(f"{PRETTY_NAMES[i]}^{e}")
    return "*".join(parts)


def render_poly(p):
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
    chunks = []
    for exp, c in items:
        mono = _render_monomial(exp)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[dvlm∂λμ])|(?P<op>[*^+-]))")


def parse_poly(text):
    """Parse '3*∂^2*v - 1/2*λ' style input (ASCII aliases d,v,l,m accepted)."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            tokens.append(("num", Fraction(m.group("num"))))
        elif m.group("var"):
            tokens.append(("var", var_index(m.group("var"))))
        else:
            tokens.append(("op", m.group("op")))

    result = _P_ZERO
    sign = 1
    coeff = None
    exps = None

    def flush():
        nonlocal result, sign, coeff, exps
        if coeff is None and exps is None:
            return
        c = sign * (coeff if coeff is not None else 1)
        e = exps if exps is not None else [0, 0, 0, 0]
        result = result + Poly({tuple(e): c})
        sign, coeff, exps = 1, None, None

    i = 0
    while i < len(tokens):
        kind, val = tokens[i]
        if kind == "op" and val in "+-":
            flush()
            sign = 1 if val == "+" else -1
        elif kind == "num":
            if coeff is None:
                coeff = val
            else:
                coeff *= val
        elif kind == "var":
            if exps is None:
                exps = [0, 0, 0, 0]
            power = 1
            if i + 2 < len(tokens) and tokens[i + 1] == ("op", "^") and tokens[i + 2][0] == "num":
                power = int(tokens[i + 2][1])
                i += 2
            exps[val] += power
        # bare '*' separators carry no meaning
        i += 1
    flush()
    return result
