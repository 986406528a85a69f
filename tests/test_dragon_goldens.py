"""Dragons against 30-digit goldens.

DRAGON_GOLDENS is the output of tests/make_dragon_goldens.py: mpmath's
Taylor-series solver on the scale-free flow at 30 digits, apart from the
package.  Keys are metric coefficients (u, v, w); values are the collapse
time at R^2 = 4 and the apex (x, y) of the flow line through
((u + v)/w, (v - u)/w), each rounded to the nearest double.  The 25-digit
comments are the unrounded values.
"""
import math

import pytest

from danteflow.flow import integrate
from danteflow.geometry import MetricCoeffs
from danteflow.shapespace import ShapePoint, trace_flowline

DRAGON_GOLDENS = {
    # (u, v, w): (collapse time, (apex x, apex y))
    # T = 0.6386634968373831871935235, apex (1.350977403018431864112606, 0.4181627153795200894860162)
    (0.3, 0.6, 1.2): (0.6386634968373832, (1.3509774030184318, 0.4181627153795201)),
    # T = 0.3683865475130567141417517, apex (1.015897579852637550163333, 0.9838455708339362709265014)
    (0.01, 0.5, 1.0): (0.3683865475130567, (1.0158975798526375, 0.9838455708339363)),
    # T = 0.4509806051354471486552554, apex (1.002276502023001326389797, 0.9977183036772136005558477)
    (0.002, 0.8, 1.0): (0.45098060513544713, (1.0022765020230013, 0.9977183036772136)),
    # T = 0.5659044069211598439747057, apex (1.414126125000393591997947, 0.01572585741291067239547231)
    (0.4, 0.41, 1.0): (0.5659044069211598, (1.4141261250003936, 0.015725857412910674)),
    # T = 1.46592615155477388246924, apex (1.390404053049328210685604, 0.2584116275712083797651343)
    (1.0, 1.5, 2.0): (1.465926151554774, (1.3904040530493282, 0.2584116275712084)),
    # T = 0.8533158688156705403937663, apex (1.264927354672788709585649, 0.632422949773726189934802)
    (0.6, 0.999, 1.0): (0.8533158688156706, (1.2649273546727886, 0.6324229497737262)),
    # T = 0.9815833502994325980137139, apex (1.409034953846377267488395, 0.1209152547825851610072656)
    (0.96, 0.985, 1.0): (0.9815833502994326, (1.4090349538463773, 0.12091525478258516)),
    # T = 0.5481409189059320138024018, apex (1.053304066996925637196803, 0.943689855009438992903014)
    (0.05, 0.97, 1.0): (0.548140918905932, (1.0533040669969256, 0.943689855009439)),
}


def test_dragon_collapse_times():
    for (u, v, w), (T, _) in DRAGON_GOLDENS.items():
        assert integrate(MetricCoeffs(u, v, w)).collapse_time == pytest.approx(T, rel=1e-10, abs=0.0)


def test_dragon_apexes():
    for (u, v, w), (_, (x, y)) in DRAGON_GOLDENS.items():
        apex = trace_flowline(ShapePoint((u + v) / w, (v - u) / w)).apex
        assert math.hypot(apex.x - x, apex.y - y) <= 1e-10
