"""The augmented coefficient algebra Λ = A₊(U(2)) ⊕ k·1.

A₊ is generated by letters v(n), n ≥ 0, subject to the rewriting system

    v(n)·v(m) → v(0)·v(n+m) + n·v(n+m-1),   n ≥ 1, m ≥ 0,

whose reduced words are exactly v(0)^k v(n).  A normal word is stored as
the pair (k, n); the unit of Λ is the distinguished key ``UNIT``.  The
derivation is the Leibniz extension of ∂(v(n)) = -n·v(n-1), and the
coefficient map sends a conformal element c to its mode c(n) expressed in
the normal basis.

Λ sits in the first Weyl algebra A₁ = k⟨y, t⟩/(ty − yt − 1): the map
v(0)^k v(n) ↦ y^(k+1) tⁿ turns the rule into tⁿy = ytⁿ + n·tⁿ⁻¹, which is
normal ordering in A₁, and gives Λ ≅ k·1 ⊕ y·A₁.  The monomials yᵃtᵇ are a
basis of A₁ (the PBW basis), the normal words go one-to-one onto those with
a ≥ 1, and every rule holds as an identity in A₁; so every reduction order
ends at the image of the word's A₁ product, and the system is confluent
(Bergman's diamond lemma: each overlap v(a)v(b)v(c) resolves).  Products
therefore have a closed form, ``_letter_word``, and no table is kept.

The structure constants are integers: the rewriting rule, the closed-form
products and the derivation all have coefficients in ℤ, and the scalar
field stays Q.  An ``AlgebraElement`` stores every integral coefficient as
an ``int`` and any other as a ``Fraction`` (never ``Fraction(n, 1)``), so
products and sums of integral elements never build a Fraction.
``1 == Fraction(1)`` and both hash alike, so equality, hashing and
rendering do not see the storage type.  That stored form, ``_exact``, is
the package's one scalar rule: ``Poly``, ∇ entries, scalar cochains and
kernel vectors keep it too.
"""

from __future__ import annotations

from fractions import Fraction
import re

UNIT = None  # the unit word of Λ


def _exact(c):
    """An int or a Fraction in stored form; anything else (a float) is a TypeError."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"{c!r} is not an exact scalar: pass an int or a Fraction")


def _letter_word(a, k, n):
    """Normal form of v(a)·v(0)^k v(n) as a new dict {(k', n'): int coeff}.

    In A₁ this is (y tᵃ)(y^(k+1) tⁿ) = Σⱼ j!·C(a,j)·C(k+1,j)·y^(k+2−j) t^(a+n−j),
    j = 0..min(a, k+1), that is Σⱼ j!·C(a,j)·C(k+1,j)·v(0)^(k+1−j) v(a+n−j).
    Each coefficient is the last times (a−j)(k+1−j)/(j+1), an exact integer
    division, and the words come in increasing j.
    """
    k += 1
    n += a
    out = {}
    c = 1
    for j in range(min(a, k) + 1):
        out[(k - j, n - j)] = c
        c = c * (a - j) * (k - j) // (j + 1)
    return out


def _word_sort_key(word):
    if word is UNIT:
        return (1, 0, 0)
    k, n = word
    return (0, -k, -n)


class AlgebraElement:
    """Exact linear combination of normal words of Λ.

    ``terms`` maps normal words to nonzero coefficients, each an ``int``
    when integral and a ``Fraction`` otherwise.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for w, c in terms.items():
                c = _exact(c)
                if c:
                    cleaned[w] = c
        self.terms = cleaned

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({UNIT: 1})

    @classmethod
    def scalar(cls, q):
        return cls({UNIT: q})

    @classmethod
    def word(cls, k, n):
        if k < 0 or n < 0:
            raise ValueError("normal words need k >= 0 and n >= 0")
        return cls({(k, n): 1})

    @classmethod
    def letter(cls, n):
        return cls.word(0, n)

    # -- ring structure -------------------------------------------------------

    def __add__(self, other):
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = _exact(terms.get(w, 0) + c)
            if s:
                terms[w] = s
            else:
                del terms[w]
        return _element(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _element({w: -c for w, c in self.terms.items()})

    def scale(self, q):
        q = _exact(q)
        return _element(_scaled(self.terms, q) if q else {})

    def __mul__(self, other):
        if type(other) is not AlgebraElement:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        terms = {}
        _mul_into(terms, self.terms, other.terms)
        return _element(terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def augmentation(self):
        """ε: kills every non-unit word."""
        return self.terms.get(UNIT, 0)

    def scalar_part(self):
        """The k·1 component (an int or a Fraction), or None if non-scalar
        terms exist."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and UNIT in self.terms:
            return self.terms[UNIT]
        return None

    def __str__(self):
        return render_algebra_element(self)

    def __repr__(self):
        return f"AlgebraElement({render_algebra_element(self)!r})"


def _element(terms):
    """An ``AlgebraElement`` on a terms dict that is already in stored form
    (nonzero coefficients, ints when integral); the dict is not copied."""
    out = AlgebraElement.__new__(AlgebraElement)
    out.terms = terms
    return out


def _scaled(terms, q):
    """q·terms as a new stored-form dict, for a nonzero q in stored form."""
    return {w: _exact(c * q) for w, c in terms.items()}


def _mul_into(acc, a, b):
    """acc += a·b on stored-form term dicts {word: coeff}, in place.

    Each pair of words wa = v(0)^ka v(na), wb = v(0)^kb v(nb) falls in one
    of three cases, and only the last builds a product:
    - ``UNIT`` on either side: the other word, added straight in;
    - na = 0: the single word v(0)^(ka+kb+1) v(nb);
    - na ≥ 1: ``_letter_word``'s closed form for v(na)·wb, shifted by
      v(0)^ka as it is read.
    Integral sums stay ``int`` and any other goes through ``_exact``.  An
    entry that cancels is deleted, so one met again later is appended.
    This is Λ's one product: ``AlgebraElement`` multiplies through it, and
    the Morse traversal in ``anick`` and the resolution checks call it on
    raw dicts.
    """
    get = acc.get
    for wa, ca in a.items():
        if wa is not UNIT:
            ka, na = wa
        for wb, cb in b.items():
            c = ca * cb
            if wa is UNIT:
                w = wb
            elif wb is UNIT:
                w = wa
            elif not na:
                w = (ka + wb[0] + 1, wb[1])
            else:
                for (k, n), cw in _letter_word(na, wb[0], wb[1]).items():
                    w = (k + ka, n)
                    s = get(w, 0) + c * cw
                    if type(s) is not int:
                        s = _exact(s)
                    if s:
                        acc[w] = s
                    else:
                        del acc[w]
                continue
            s = get(w, 0) + c
            if type(s) is not int:
                s = _exact(s)
            if s:
                acc[w] = s
            else:
                del acc[w]


def normal_form(word):
    """Rewrite a raw word (sequence of letter indices) to the normal basis."""
    if isinstance(word, str):
        word = parse_word(word)
    result = {UNIT: 1}
    for letter in reversed(tuple(word)):
        if letter < 0:
            raise ValueError("letter indices must be nonnegative")
        new = {}
        _mul_into(new, {(0, letter): 1}, result)
        result = new
    return _element(result)


def derivation(x):
    """Leibniz extension of ∂(v(n)) = -n·v(n-1); ∂(v(0)) = 0, ∂(1) = 0."""
    terms = {}
    for w, c in x.terms.items():
        if w is UNIT:
            continue
        k, n = w
        if n:
            # only the tail letter survives: ∂ kills each v(0) factor
            key = (k, n - 1)
            s = _exact(terms.get(key, 0) - n * c)
            if s:
                terms[key] = s
            else:
                del terms[key]
    return AlgebraElement(terms)


def coeff_image(c, n):
    """Image of the mode c(n) of a conformal element in the normal basis.

    Uses (∂^a x)(n) = (-1)^a n(n-1)…(n-a+1) x(n-a), x(m) = 0 for m < 0,
    and (v^j)(m) = v(0)^{j-1} v(m).
    """
    if n < 0:
        return AlgebraElement.zero()
    out = AlgebraElement.zero()
    for a, j, coeff in c.monomials():
        m = n - a
        if m < 0:
            continue
        fall = 1
        for i in range(a):
            fall *= n - i
        sign = -1 if a % 2 else 1
        out = out + AlgebraElement({(j - 1, m): coeff * sign * fall})
    return out


# -- text form ------------------------------------------------------------------

_WORD_TOKEN = re.compile(r"\s*(?:v\((\d+)\)|\*)")


def parse_word(text):
    """Parse 'v(2)v(3)v(1)' (whitespace and '*' separators allowed)."""
    pos = 0
    letters = []
    while pos < len(text):
        m = _WORD_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse word near {text[pos:]!r}")
            break
        if m.group(1) is not None:
            letters.append(int(m.group(1)))
        pos = m.end()
    if not letters:
        raise ValueError("empty word")
    return tuple(letters)


def render_word(word):
    if word is UNIT:
        return "1"
    k, n = word
    if k == 0:
        return f"v({n})"
    prefix = "v(0)" if k == 1 else f"v(0)^{k}"
    return f"{prefix} v({n})"


def render_algebra_element(x):
    if not x.terms:
        return "0"
    chunks = []
    for w in sorted(x.terms, key=_word_sort_key):
        c = x.terms[w]
        if w is UNIT:
            body = str(abs(c))
        elif abs(c) == 1:
            body = render_word(w)
        else:
            body = f"{abs(c)} {render_word(w)}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)
