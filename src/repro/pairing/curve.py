"""Short-Weierstrass elliptic-curve arithmetic (y^2 = x^3 + b).

BN curves (and their sextic twists) all have the a = 0 form, so only ``b``
parameterises a curve here.  The same :class:`EllipticCurve` class serves

* G1: points over :class:`~repro.pairing.fields.Fp`,
* G2: points over :class:`~repro.pairing.fields.Fp2` (the twist), and
* the Fp12 embedding used inside the Miller loop,

because the field element classes share one arithmetic protocol.

Points are immutable.  The point at infinity is represented by a point with
``infinity=True``; it compares equal across calls and acts as the group
identity.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CurveError
from repro.obs import runtime as _rt


class EllipticCurve:
    """The curve y^2 = x^3 + b over a field given by sample element ``b``.

    ``b`` must be a field element (Fp, Fp2 or Fp12); its type fixes the
    coordinate field.  ``order`` is the group order used for scalar
    validation when provided.
    """

    __slots__ = ("b", "order", "name")

    def __init__(self, b, order: Optional[int] = None, name: str = ""):
        self.b = b
        self.order = order
        self.name = name

    def point(self, x, y) -> "CurvePoint":
        """Construct a point, validating the curve equation."""
        pt = CurvePoint(self, x, y)
        if not pt.is_on_curve():
            raise CurveError(f"({x!r}, {y!r}) is not on curve {self.name!r}")
        return pt

    def unsafe_point(self, x, y) -> "CurvePoint":
        """Construct without the on-curve check (hot inner loops only)."""
        return CurvePoint(self, x, y)

    def infinity(self) -> "CurvePoint":
        """The group identity (point at infinity)."""
        return CurvePoint(self, None, None, infinity=True)

    def contains(self, point: "CurvePoint") -> bool:
        """True iff the point is on THIS curve (not merely on its own)."""
        if point.infinity:
            return True
        return point.curve == self and point.is_on_curve()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EllipticCurve):
            return NotImplemented
        return self.b == other.b

    def __hash__(self) -> int:
        return hash(("EllipticCurve", self.b))

    def __repr__(self) -> str:
        return f"EllipticCurve({self.name or self.b!r})"


class CurvePoint:
    """An affine point on an :class:`EllipticCurve` (immutable)."""

    __slots__ = ("curve", "x", "y", "infinity")

    def __init__(self, curve: EllipticCurve, x, y, infinity: bool = False):
        self.curve = curve
        self.x = x
        self.y = y
        self.infinity = infinity

    # -- predicates -----------------------------------------------------------
    def is_on_curve(self) -> bool:
        """Whether the coordinates satisfy y^2 = x^3 + b."""
        if self.infinity:
            return True
        return self.y * self.y == self.x * self.x * self.x + self.curve.b

    def is_infinity(self) -> bool:
        """Whether this is the group identity."""
        return self.infinity

    # -- group law ------------------------------------------------------------
    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.curve != other.curve:
            raise CurveError("cannot add points on different curves")
        if self.infinity:
            return other
        if other.infinity:
            return self
        if self.x == other.x:
            if self.y == other.y:
                return self._double()
            return self.curve.infinity()
        tally = _rt.tally
        if tally is not None:
            tally.point_add += 1
        slope = (other.y - self.y) / (other.x - self.x)
        x3 = slope.square() - self.x - other.x
        y3 = slope * (self.x - x3) - self.y
        return CurvePoint(self.curve, x3, y3)

    def _double(self) -> "CurvePoint":
        if self.infinity:
            return self
        if self.y == self.y - self.y:  # y == 0: vertical tangent
            return self.curve.infinity()
        tally = _rt.tally
        if tally is not None:
            tally.point_double += 1
        slope = (self.x.square() * 3) / (self.y * 2)
        x3 = slope.square() - self.x - self.x
        y3 = slope * (self.x - x3) - self.y
        return CurvePoint(self.curve, x3, y3)

    def double(self) -> "CurvePoint":
        """The point added to itself."""
        return self._double()

    def __neg__(self) -> "CurvePoint":
        if self.infinity:
            return self
        return CurvePoint(self.curve, self.x, -self.y)

    def __sub__(self, other: "CurvePoint") -> "CurvePoint":
        return self + (-other)

    def __mul__(self, scalar: int) -> "CurvePoint":
        # NOTE: the scalar is deliberately NOT reduced modulo the curve order;
        # order checks like ``point * n == infinity`` must be honest even for
        # points outside the prime-order subgroup (the curve-search code and
        # the in_g1/in_g2 membership checks rely on this).
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar < 0:
            return (-self) * (-scalar)
        if scalar == 0 or self.infinity:
            return self.curve.infinity()
        tally = _rt.tally
        if tally is not None:
            tally.point_mul += 1
        if scalar < 8:
            result = self.curve.infinity()
            addend = self
            while scalar:
                if scalar & 1:
                    result = result + addend
                addend = addend._double()
                scalar >>= 1
            return result
        if scalar.bit_length() >= 64:
            return _wnaf_scalar_mult(self, scalar)
        return _jacobian_scalar_mult(self, scalar)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.infinity or other.infinity:
            return self.infinity and other.infinity
        return self.curve == other.curve and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        if self.infinity:
            return hash(("CurvePoint", "inf"))
        return hash(("CurvePoint", self.x, self.y))

    def __repr__(self) -> str:
        if self.infinity:
            return "CurvePoint(infinity)"
        return f"CurvePoint({self.x!r}, {self.y!r})"


def _jacobian_scalar_mult(point: CurvePoint, scalar: int) -> CurvePoint:
    """Double-and-add in Jacobian projective coordinates (a = 0 curves).

    Affine addition pays one field inversion per step; Jacobian coordinates
    (X, Y, Z) with x = X/Z^2, y = Y/Z^3 defer everything to a single
    inversion at the end, which is the standard ~5-10x speedup for
    pure-software curves.  Field-agnostic: works over Fp, Fp2 and Fp12
    through the shared operator protocol.
    """
    x, y = point.x, point.y
    one = _field_one(x)
    result = None  # Jacobian infinity
    base = (x, y, one)
    for bit_index in range(scalar.bit_length() - 1, -1, -1):
        if result is not None:
            result = _jacobian_double(result)
        if (scalar >> bit_index) & 1:
            result = base if result is None else _jacobian_add(result, base)
    return _jacobian_to_affine(point.curve, result)


def _jacobian_to_affine(curve: EllipticCurve, result) -> CurvePoint:
    """Normalise a Jacobian triple (or None) to an affine :class:`CurvePoint`."""
    if result is None:
        return curve.infinity()
    big_x, big_y, big_z = result
    if big_z == big_z * 0:  # Z == 0: the point at infinity
        return curve.infinity()
    z_inv = big_z.inverse()
    z_inv2 = z_inv.square()
    return CurvePoint(curve, big_x * z_inv2, big_y * z_inv2 * z_inv)


def _field_one(sample):
    """The multiplicative identity of ``sample``'s field."""
    from repro.pairing.fields import Fp, Fp2, Fp12

    if isinstance(sample, Fp):
        return Fp(sample.spec, 1)
    if isinstance(sample, Fp2):
        return Fp2(sample.spec, 1)
    if isinstance(sample, Fp12):
        return sample.spec.fp12_one()
    raise CurveError(f"unsupported coordinate field {type(sample).__name__}")


def _jacobian_double(p):
    if p is None:
        return None
    x1, y1, z1 = p
    if y1 == y1 * 0:
        return None  # vertical tangent: the point at infinity
    a = x1.square()
    b = y1.square()
    c = b.square()
    t = x1 + b
    d = (t.square() - a - c) * 2
    e = a * 3
    f = e.square()
    x3 = f - d * 2
    y3 = e * (d - x3) - c * 8
    z3 = y1 * z1 * 2
    return (x3, y3, z3)


def _jacobian_add(p, q):
    """General Jacobian addition (q has Z = 1 when coming from `base`)."""
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = z1.square()
    z2z2 = z2.square()
    u1 = x1 * z2z2
    u2 = x2 * z1z1
    s1 = y1 * z2z2 * z2
    s2 = y2 * z1z1 * z1
    if u1 == u2:
        if s1 == s2:
            return _jacobian_double(p)
        return None  # p == -q: the point at infinity
    h = u2 - u1
    hh = h + h
    i = hh.square()
    j = h * i
    r = (s2 - s1) * 2
    v = u1 * i
    x3 = r.square() - j - v * 2
    y3 = r * (v - x3) - s1 * j * 2
    z3 = z1 * z2 * h * 2
    return (x3, y3, z3)


def _wnaf_digits(scalar: int, width: int):
    """Width-w non-adjacent form of ``scalar`` (little-endian digit list).

    Digits are either zero or odd with |d| < 2^(w-1); any two non-zero
    digits are at least ``width`` positions apart, so a length-l scalar
    needs ~l/(w+1) point additions instead of l/2.
    """
    digits = []
    modulus = 1 << width
    half = modulus >> 1
    while scalar > 0:
        if scalar & 1:
            digit = scalar & (modulus - 1)
            if digit >= half:
                digit -= modulus
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


def _wnaf_scalar_mult(point: CurvePoint, scalar: int, width: int = 5) -> CurvePoint:
    """Windowed-NAF scalar multiplication in Jacobian coordinates.

    Precomputes the odd multiples P, 3P, ..., (2^(w-1)-1)P once, then walks
    the signed-digit recoding of the scalar: same doubling count as the
    plain ladder but roughly half the additions the binary expansion would
    pay, with negation nearly free (Y -> -Y).  Semantics match ``__mul__``:
    the scalar is NOT reduced modulo the curve order.
    """
    base = (point.x, point.y, _field_one(point.x))
    double_base = _jacobian_double(base)
    # odds[i] holds (2i+1) * P; None encodes infinity, which small-order
    # points (cofactor components on toy curves) can genuinely reach.
    odds = [base]
    for _ in range((1 << (width - 2)) - 1):
        previous = odds[-1]
        if previous is None:
            odds.append(double_base)
        elif double_base is None:
            odds.append(previous)
        else:
            odds.append(_jacobian_add(previous, double_base))
    result = None  # Jacobian infinity
    for digit in reversed(_wnaf_digits(scalar, width)):
        result = _jacobian_double(result)
        if digit:
            entry = odds[(abs(digit) - 1) // 2]
            if entry is None:
                continue
            if digit < 0:
                entry = (entry[0], -entry[1], entry[2])
            result = entry if result is None else _jacobian_add(result, entry)
    return _jacobian_to_affine(point.curve, result)


def point_key(point: CurvePoint):
    """A representation-independent hashable key for a curve point.

    Extracts the raw affine coordinate integers (Fp value, Fp2 coefficient
    pair, or Fp12 coefficient tuple), so two :class:`CurvePoint` objects
    describing the same group element — however they were produced — map to
    the same key.  Used by the pairing caches and the batch verifier's
    signer anchors.
    """
    if point.infinity:
        return ("inf",)
    return (_coord_key(point.x), _coord_key(point.y))


def _coord_key(value):
    inner = getattr(value, "value", None)
    if inner is not None:
        return inner
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return tuple(coeffs)
    return (value.c0, value.c1)
