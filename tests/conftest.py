import numpy as np
import pytest

from danteflow.cli import main
from danteflow.geometry import StretchFactors
from danteflow.shapespace import ShapePoint


def random_ordered_stretch(rng: np.random.Generator, r_squared: float = 4.0,
                           lo: float = 0.2, hi: float = 2.0) -> StretchFactors:
    a, b, c = np.sort(rng.uniform(lo, hi, size=3))
    return StretchFactors(float(a), float(b), float(c), r_squared)


def edge_start(edge: str, share: float, log_height: float) -> ShapePoint:
    """A start at a height of 10^log_height times the triangle's toward an
    edge: the snake edge y = 0 (any x), the turtle edge y = 2 - x (x > 1)
    or the degenerate edge y = x (x < 1)."""
    x = {"snake": 2.0 * share, "turtle": 1.0 + share, "degenerate": share}[edge]
    height = min(x, 2.0 - x)
    y = 10.0 ** log_height * height if edge == "snake" else (1.0 - 10.0 ** log_height) * height
    return ShapePoint(x, y)


def random_interior_point(rng: np.random.Generator,
                          margin: float = 0.02) -> ShapePoint:
    x = rng.uniform(margin, 2.0 - margin)
    y_max = min(x, 2.0 - x)
    y = rng.uniform(margin * y_max, (1.0 - margin) * y_max)
    return ShapePoint(float(x), float(y))


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    def run(*args: str):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run
