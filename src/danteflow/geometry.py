"""Static geometry of a homogeneously deformed 3-sphere (Bianchi type IX).

A round 3-sphere of radius R is stretched along its three orthogonal
left-invariant directions by positive factors derived from a triple
``(a, b, c)``.  The resulting left-invariant metric has diagonal
coefficients

    u = 1/(bc),   v = 1/(ac),   w = 1/(ab),

and its curvature is governed by the half-excesses s - a, s - b, s - c of
``(a, b, c)`` over the semiperimeter ``s = (a + b + c)/2``.  With the
products P_ab = (4/R^2)(s-a)(s-b) (and P_ac, P_bc alike),

    R_11    = 2 P_bc = (8/R^2)(s-b)(s-c)                      (cyclically)
    kappa_1 = P_ab + P_ac - P_bc = (4/R^2)[a(s-a) - (s-b)(s-c)]
    scalar  = 2 (P_ab + P_ac + P_bc) = R_11 + R_22 + R_33
    Gamma_1 = -2 (s-a)/R                                      (cyclically)

so R_11 = kappa_2 + kappa_3 and scalar = 2 (kappa_1 + kappa_2 + kappa_3).
Each kappa subtracts first, kappa_1 = (P_ab - P_bc) + P_ac where P_ab >= P_ac
(symmetric in b and c): summed first, kappa_2 of (a, 1, 1) rounds away.

The shape alone, with the scale divided out, is charted by the triangle
coordinates x = (a + b)/c, y = (b - a)/c of an ordered shape (to_xy) and
the Ricci-eigenvalue ratios rho = R22/R33, tau = R11/R33 of such a point
(to_rho_tau); shapespace traces the flow through that triangle.

All operations here are pure functions of value types and can be called
concurrently without coordination.  An input's range is tested by comparing
it with the largest float, as in _require_positive: NaN and +-inf fail such
a test, and an int past the float range compares exactly where its
conversion to float would raise OverflowError.  The checked value types on
the per-sample path (MetricCoeffs, StretchFactors) have a hand-written
constructor: one chained test covers every field, the per-field check runs
only to name the first bad one, and each field is stored as given, with no
coercion, one key at a time into the instance dict (cheaper than a dict
update with keywords).  CurvatureSummary keeps its generated constructor,
which also stores its values as given; _curvatures, once per sample, builds
it by object.__new__ and the same per-key stores, without an __init__ frame.
curvature_summary, principal_curvatures, ricci_eigenvalues,
scalar_curvature and classify share one formula, _curvatures; it,
connection_coefficients and flow.rhs share one primitive, the
half-excesses of _excesses.  stretch_from_metric is where numbers become
Python floats: it returns them for any real input, numpy scalars included,
so that the curvatures of its result run on Python floats.

Every command loads this module, so it holds the values that the CLI shows
and flow or shapespace apply: DEFAULT_R_SQUARED, DEFAULT_EQ_TOL, GRID_LIMIT,
FlowParams' defaults with MAX_REL_TOL, and region_boundaries' default and
least resolution.  The CLI reads them here without running flow.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, SingularMapError

#: Radius-squared normalization used everywhere unless overridden.
DEFAULT_R_SQUARED = 4.0

#: Default relative tolerance for equality / sign decisions in classify().
DEFAULT_EQ_TOL = 1e-9

#: The first count too large for a table: numpy sizes a float64 array of at
#: most sys.maxsize // 8 values.  flow's uniform_grid, shapespace's
#: region_boundaries and the CLI's --grid all stop below it.
GRID_LIMIT = sys.maxsize // 8

#: FlowParams' defaults.
DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12
DEFAULT_COLLAPSE_EPS = 1e-9
DEFAULT_MAX_STEPS = 10_000

#: Largest accepted rel_tol and abs_tol.  Looser settings let the step
#: controller take steps that no longer approximate the flow: the thin dragon
#: (0.01, 0.5, 1) collapses 54% early at rel_tol = 1 and 1.4% early at 1e-2,
#: and 27% early at abs_tol = 1.  At 1e-3 it, (0.3, 0.6, 1.2) and
#: (0.001, 0.002, 1) are within 1e-3 of converged.
MAX_REL_TOL = 1e-3

#: shapespace.region_boundaries' default resolution and the least it accepts.
DEFAULT_REGION_RESOLUTION = 64
MIN_REGION_RESOLUTION = 16


def _require_positive(name: str, value: float) -> None:
    if not 0.0 < value <= 1.7976931348623157e308:  # NaN fails too
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")


def _require_count(name: str, value) -> int:
    try:  # a Python or numpy integer; a float, even 3.0, is no count
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _half_sum(a: float, b: float, c: float) -> float:
    try:
        return math.fsum((a, b, c)) / 2.0
    except OverflowError:  # fsum raises where a plain sum would pass the largest float
        return a / 2.0 + b / 2.0 + c / 2.0


def _excesses(a: float, b: float, c: float) -> tuple[float, float, float]:
    """The half-excesses (s - a, s - b, s - c), each s - x formed from the
    other two factors y, z as min(y, z)/2 + (max(y, z) - x)/2 with no rounded
    s: it cannot overflow, and s - b of (a, 1, 1) is a/2 for every a > 0."""
    return (0.5 * b + 0.5 * (c - a) if b < c else 0.5 * c + 0.5 * (b - a),
            0.5 * a + 0.5 * (c - b) if a < c else 0.5 * c + 0.5 * (a - b),
            0.5 * a + 0.5 * (b - c) if a < b else 0.5 * b + 0.5 * (a - c))


@dataclass(frozen=True, init=False)
class StretchFactors:
    """Deformation parameters (a, b, c) of a stretched S^3 plus R^2.

    All four numbers must be positive and finite; the constructor tests
    them in one comparison and stores them as given.  Curvature-valued
    operations are permutation-equivariant, so unordered triples are
    accepted; flow entry points require the ordered convention a <= b <= c
    (use :meth:`ordered`).
    """

    a: float
    b: float
    c: float
    r_squared: float = DEFAULT_R_SQUARED

    def __init__(self, a: float, b: float, c: float,
                 r_squared: float = DEFAULT_R_SQUARED) -> None:
        if not (0.0 < a <= 1.7976931348623157e308
                and 0.0 < b <= 1.7976931348623157e308
                and 0.0 < c <= 1.7976931348623157e308
                and 0.0 < r_squared <= 1.7976931348623157e308):
            # Field by field only to name the first bad one.
            _require_positive("a", a)
            _require_positive("b", b)
            _require_positive("c", c)
            _require_positive("r_squared", r_squared)
        d = self.__dict__
        d["a"] = a
        d["b"] = b
        d["c"] = c
        d["r_squared"] = r_squared

    @classmethod
    def ordered(cls, a: float, b: float, c: float,
                r_squared: float = DEFAULT_R_SQUARED) -> "StretchFactors":
        """Construct with the ordered convention enforced; rejects a > b or b > c."""
        if not (a <= b <= c):
            raise DomainError(f"stretch factors must satisfy a <= b <= c, got ({a}, {b}, {c})")
        return cls(a, b, c, r_squared)

    def sorted(self) -> "StretchFactors":
        """The same shape with (a, b, c) rearranged into ascending order."""
        a, b, c = sorted((self.a, self.b, self.c))
        return StretchFactors(a, b, c, self.r_squared)


@dataclass(frozen=True, init=False)
class MetricCoeffs:
    """Diagonal metric coefficients (u, v, w), the variables the flow evolves.

    All three must be positive and finite; the constructor tests them in
    one comparison and stores them as given.  For an ordered shape
    a <= b <= c the mirrored ordering w >= v >= u holds.
    """

    u: float
    v: float
    w: float

    def __init__(self, u: float, v: float, w: float) -> None:
        if not (0.0 < u <= 1.7976931348623157e308
                and 0.0 < v <= 1.7976931348623157e308
                and 0.0 < w <= 1.7976931348623157e308):
            # Field by field only to name the first bad one.
            _require_positive("u", u)
            _require_positive("v", v)
            _require_positive("w", w)
        d = self.__dict__
        d["u"] = u
        d["v"] = v
        d["w"] = w

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.u, self.v, self.w)

    @property
    def sigma(self) -> float:
        """Half-sum (u + v + w)/2, computed on demand."""
        return _half_sum(self.u, self.v, self.w)


@dataclass(frozen=True)
class CurvatureSummary:
    """Principal curvatures, Ricci eigenvalues, and the Ricci scalar.

    All seven come from the products P_xy of the module docstring, so the
    scalar is ricci11 + ricci22 + ricci33 exactly and ricci11 = kappa2 +
    kappa3 to rounding.  The constructor stores the values as given,
    unchecked: curvatures take any sign.
    """

    kappa1: float
    kappa2: float
    kappa3: float
    ricci11: float
    ricci22: float
    ricci33: float
    scalar: float


class ShapeKind(Enum):
    ISOTROPIC = "isotropic"
    SNAKE = "snake"
    TURTLE = "turtle"
    DRAGON = "dragon"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Classification:
    """Shape kind plus sign data for curvatures (-1, 0, +1 per entry)."""

    shape: ShapeKind
    curvature_signs: tuple[int, int, int]
    ricci_signs: tuple[int, int, int]
    scalar_sign: int


def semiperimeter(f: StretchFactors) -> float:
    """Half the sum of the stretch factors, s = (a + b + c)/2."""
    return _half_sum(f.a, f.b, f.c)


def _curvatures(a: float, b: float, c: float, scale: float) -> CurvatureSummary:
    """The curvatures of (a, b, c) with scale = 4/R^2, from the products
    P_xy = scale (s - x)(s - y), unchecked: classify passes factors that
    may have underflowed to 0.  Each kappa subtracts first (module docstring)."""
    sa, sb, sc = _excesses(a, b, c)
    pab = scale * (sa * sb)
    pac = scale * (sa * sc)
    pbc = scale * (sb * sc)
    summary = object.__new__(CurvatureSummary)  # its fields stored without an __init__ frame
    d = summary.__dict__
    d["kappa1"] = (pab - pbc) + pac if pab >= pac else (pac - pbc) + pab
    d["kappa2"] = (pab - pac) + pbc if pab >= pbc else (pbc - pac) + pab
    d["kappa3"] = (pac - pab) + pbc if pac >= pbc else (pbc - pab) + pac
    d["ricci11"] = 2.0 * pbc
    d["ricci22"] = 2.0 * pac
    d["ricci33"] = 2.0 * pab
    d["scalar"] = 2.0 * (pbc + pac + pab)
    return summary


def principal_curvatures(f: StretchFactors) -> tuple[float, float, float]:
    """Eigenvalues (kappa1, kappa2, kappa3) of the Riemann tensor.

    kappa_1 = P_ab + P_ac - P_bc = (4/R^2) [a(s-a) - (s-b)(s-c)], and
    cyclically, from _curvatures.  Permuting (a, b, c) permutes the result
    identically; scaling (a, b, c) by l scales each kappa by l^2.
    """
    cs = curvature_summary(f)
    return (cs.kappa1, cs.kappa2, cs.kappa3)


def ricci_eigenvalues(f: StretchFactors) -> tuple[float, float, float]:
    """Diagonal Ricci entries 2 P_bc = (8/R^2)(s-b)(s-c), cyclically, from
    _curvatures: the entries of (a, 1, 1) are within a few units in the
    last place for every a > 0.
    """
    cs = curvature_summary(f)
    return (cs.ricci11, cs.ricci22, cs.ricci33)


def scalar_curvature(f: StretchFactors) -> float:
    """Ricci scalar 2 (P_ab + P_ac + P_bc), the trace of the Ricci tensor."""
    return curvature_summary(f).scalar


def connection_coefficients(f: StretchFactors) -> tuple[float, float, float]:
    """Diagonal coefficients of the vectorial connection form.

    -2 (s - x)/R = (x - y - z)/R for each factor x, with R = sqrt(r_squared),
    from the half-excesses that _curvatures uses; a zero is +0.0.
    """
    r = math.sqrt(f.r_squared)
    # 0.0 - x is x negated, except that it turns 0.0 into 0.0, not -0.0.
    return tuple((0.0 - 2.0 * x) / r for x in _excesses(f.a, f.b, f.c))


def curvature_summary(f: StretchFactors) -> CurvatureSummary:
    """The principal curvatures, Ricci entries and scalar of _curvatures."""
    return _curvatures(f.a, f.b, f.c, 4.0 / f.r_squared)


def metric_coeffs(f: StretchFactors) -> MetricCoeffs:
    """Metric coefficients (u, v, w) = (1/(bc), 1/(ac), 1/(ab))."""
    try:
        return MetricCoeffs(
            u=1.0 / (f.b * f.c),
            v=1.0 / (f.a * f.c),
            w=1.0 / (f.a * f.b),
        )
    except (ZeroDivisionError, DomainError):  # a product of 0, or a coefficient of inf or 0
        raise DomainError(f"metric coefficients of ({f.a!r}, {f.b!r}, {f.c!r}) "
                          "lie outside the float range") from None


def stretch_from_metric(m: MetricCoeffs) -> tuple[float, float, float]:
    """Invert metric coefficients back to stretch factors.

    abc = 1/sqrt(uvw), hence a = u * abc and cyclically.  Round-trips with
    :func:`metric_coeffs` to within 1e-12 relative, at any scale: where uvw
    is not a normal float, u, v, w are divided exactly by 4^j first.
    Raises DomainError where uvw underflows to 0 even then.
    """
    u, v, w = float(m.u), float(m.v), float(m.w)
    product = u * v * w
    if 2.2250738585072014e-308 <= product <= 1.7976931348623157e308:
        root = math.sqrt(product)
        return (u / root, v / root, w / root)
    j = math.frexp(max(u, v, w))[1] // 2  # half the largest exponent
    u, v, w = (math.ldexp(x, -2 * j) for x in (u, v, w))
    root = math.sqrt(u * v * w)
    if root == 0.0:  # u v w underflows to 0
        raise DomainError(f"stretch factors of ({m.u!r}, {m.v!r}, {m.w!r}) underflow")
    return tuple(math.ldexp(x / root, -j) for x in (u, v, w))


def _sign(value: float, deadband: float) -> int:
    if abs(value) <= deadband:
        return 0
    return 1 if value > 0.0 else -1


def classify(f: StretchFactors, eq_tol: float = DEFAULT_EQ_TOL) -> Classification:
    """Classify the shape kind and report curvature signs.

    Equality of stretch factors is decided relative to the largest factor:
    after sorting a <= b <= c, the tests are (b - a) <= eq_tol * c and
    (c - b) <= eq_tol * c, with a <= eq_tol * c flagging a degenerate shape.
    Signs use a deadband of eq_tol * max|kappa| so that the measure-zero
    vanishing loci are reported as zeros when hit by construction.  They do
    not depend on scale (kappa goes as l^2/R^2), so they are taken at R^2 = 4
    on the factors divided by the power of two nearest above the largest one:
    the division is exact, and the curvatures can neither overflow nor
    underflow at any scale of (a, b, c) or R^2.
    """
    if not 0.0 <= eq_tol <= 1.7976931348623157e308:  # NaN fails too
        raise DomainError(f"eq_tol must be a nonnegative finite number, got {eq_tol!r}")
    lo, mid, hi = sorted((f.a, f.b, f.c))

    if lo <= eq_tol * hi:
        shape = ShapeKind.DEGENERATE
    else:
        low_pair_equal = (mid - lo) <= eq_tol * hi
        high_pair_equal = (hi - mid) <= eq_tol * hi
        if low_pair_equal and high_pair_equal:
            shape = ShapeKind.ISOTROPIC
        elif low_pair_equal:
            shape = ShapeKind.SNAKE
        elif high_pair_equal:
            shape = ShapeKind.TURTLE
        else:
            shape = ShapeKind.DRAGON

    exponent = math.frexp(hi)[1]
    a, b, c = (math.ldexp(v, -exponent) for v in (f.a, f.b, f.c))
    cs = _curvatures(a, b, c, 1.0)
    kappas = (cs.kappa1, cs.kappa2, cs.kappa3)
    deadband = eq_tol * max(abs(k) for k in kappas)
    return Classification(
        shape=shape,
        curvature_signs=tuple(_sign(k, deadband) for k in kappas),
        # Within the deadband, the signs of the Ricci entries that `curvature`
        # prints.
        ricci_signs=tuple(_sign(r, deadband) for r in (cs.ricci11, cs.ricci22, cs.ricci33)),
        # fsum: the scalar's sign must not depend on the order of (a, b, c).
        scalar_sign=_sign(2.0 * math.fsum(kappas), deadband),
    )


@dataclass(frozen=True)
class ShapePoint:
    x: float
    y: float


@dataclass(frozen=True)
class RicciRatios:
    rho: float
    tau: float


def _require_finite_point(p: ShapePoint) -> None:
    if not abs(p.x) <= 1.7976931348623157e308 >= abs(p.y):  # both finite; NaN fails too
        raise DomainError(f"point ({p.x}, {p.y}) is not finite")


def to_xy(f: StretchFactors) -> ShapePoint:
    """Triangle coordinates ((a+b)/c, (b-a)/c) of an ordered shape."""
    if not (f.a <= f.b <= f.c):
        raise DomainError(f"triangle coordinates need a <= b <= c, got ({f.a}, {f.b}, {f.c})")
    a, b, c = f.a, f.b, f.c
    if not a + b <= 1.7976931348623157e308:
        # a + b overflows for factors near the largest float; halving all
        # three is exact and leaves every finite case as it was.
        a, b, c = 0.5 * a, 0.5 * b, 0.5 * c
    return ShapePoint((a + b) / c, (b - a) / c)


def to_rho_tau(p: ShapePoint) -> RicciRatios:
    """Ricci-eigenvalue ratio coordinates (rho, tau) of a triangle point."""
    _require_finite_point(p)
    one_minus = 1.0 - p.y
    one_plus = 1.0 + p.y
    if one_minus == 0.0 or one_plus == 0.0:
        raise SingularMapError(f"eigenvalue-ratio map is singular at y = {p.y}")
    return RicciRatios((p.x - 1.0) / one_minus, (p.x - 1.0) / one_plus)
