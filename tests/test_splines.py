import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

import mmrsafi
from mmrsafi.core import Rng
from mmrsafi.splines import (ConcavePotential, HalfLineSpline, LinearSpline,
                             SigmoidSpline, project_nonincreasing)


def random_potential(rng, m=12, delta=0.1):
    raw = np.concatenate(([1.0], 1.0 - 2.0 * rng.uniform_array(m)))
    sigma = HalfLineSpline(delta, project_nonincreasing(raw))
    return ConcavePotential(sigma, r=0.25 + 2.0 * rng.uniform())


def test_spline_knots_and_interp():
    s = LinearSpline(0.5, [0.0, 1.0, 0.25])
    assert s(-0.5) == 0.0 and s(0.0) == 1.0 and s(0.5) == 0.25
    assert s(-0.25) == pytest.approx(0.5)


def test_spline_linear_extrapolation():
    # values (0, 1, 3) on grid -1, 0, 1: beyond x=1 slope is (3-1)/1
    s = LinearSpline(1.0, [0.0, 1.0, 3.0])
    assert s(2.0) == pytest.approx(5.0, abs=1e-14)
    assert s(-3.0) == pytest.approx(-2.0, abs=1e-14)


def test_spline_coordinates_beyond_int64():
    # x / delta beyond the int64 range still lands in the outer segments.
    assert LinearSpline(1.0, [5.0, 0.0, 1.0])(5e19) == pytest.approx(5e19)
    assert LinearSpline(1.0, [5.0, 0.0, 1.0])(-5e19) == pytest.approx(25e19)
    sigma = HalfLineSpline(1e-20, [1.0, 0.5, 0.0])
    assert sigma(0.5) == 0.0
    assert np.array_equal(sigma(np.array([0.0, 5e-21, 1e10])),
                          [1.0, 0.75, 0.0])


def test_spline_continuity_at_knots():
    rng = Rng(4)
    s = LinearSpline(0.2, rng.gaussian_array(11))
    for k in range(-5, 6):
        x = 0.2 * k
        left = s(x - 1e-11)
        right = s(x + 1e-11)
        assert abs(left - s(x)) < 1e-9 and abs(right - s(x)) < 1e-9


def test_project_nonincreasing_examples():
    assert np.allclose(project_nonincreasing([1.0, 0.5, 0.2]), [1.0, 0.5, 0.2])
    assert np.allclose(project_nonincreasing([1.0, 2.0, 3.0]), [1.0, 1.0, 1.0])
    assert np.allclose(project_nonincreasing([0.0, 1.0, -1.0]), [1.0, 1.0, -1.0])


def test_project_nonincreasing_idempotent():
    rng = Rng(8)
    for _ in range(50):
        d = rng.gaussian_array(9)
        once = project_nonincreasing(d)
        twice = project_nonincreasing(once)
        assert np.max(np.abs(once - twice)) <= 1e-14


def test_derivative_at_zero_and_range():
    rng = Rng(11)
    for _ in range(20):
        pot = random_potential(rng)
        assert pot.derivative(0.0) == 1.0
        grid = np.linspace(0.0, 10 * 12 * 0.1 / pot.r, 10**4)
        vals = pot.derivative(grid)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-14)


def test_derivative_knot_value():
    grid = 0.05 * np.arange(21)
    sigma = HalfLineSpline(0.05, project_nonincreasing(1 / (1 + grid)))
    pot = ConcavePotential(sigma, r=1.0)
    assert pot.derivative(0.05) == pytest.approx(1 / 1.05, abs=1e-12)


def test_constant_sigma_gives_identity_psi():
    pot = ConcavePotential(HalfLineSpline(0.05, np.ones(21)), r=3.0)
    assert pot.derivative(7.0) == 1.0
    assert pot(0.73) == pytest.approx(0.73, abs=1e-14)
    assert pot(0.0) == 0.0


def test_negative_input_rejected():
    pot = ConcavePotential(HalfLineSpline(0.1, np.ones(5)), r=1.0)
    with pytest.raises(ValueError):
        pot.derivative(-0.1)
    with pytest.raises(ValueError):
        pot(np.array([0.5, -1e-9]))


def test_potential_matches_quadrature():
    rng = Rng(21)
    for _ in range(10):
        pot = random_potential(rng)
        d = pot.sigma.values
        delta = pot.sigma.delta
        m = d.size - 1
        # quadrature breakpoints: grid knots plus the clip-at-zero crossings
        breaks = list(delta * np.arange(m + 1) / pot.r)
        for j in range(m):
            if d[j] > 0 > d[j + 1]:
                t = (j + d[j] / (d[j] - d[j + 1])) * delta
                breaks.append(t / pot.r)
        breaks = np.sort(breaks)
        for _ in range(4):
            x = 2.0 * m * delta * rng.uniform() / pot.r
            pieces = np.concatenate(
                ([0.0], breaks[(breaks > 0) & (breaks < x)], [x]))
            ref = sum(quad(pot.derivative, a, b, limit=200, epsabs=1e-13)[0]
                      for a, b in zip(pieces[:-1], pieces[1:]))
            assert pot(x) == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("values, crossings", [
    ((1.5, 0.5, 0.2), [0.5]),                 # above 1, crossing 1
    ((1.0, -0.5, 0.5, 0.5), [2.0 / 3.0, 1.5]),  # rises back through 0
])
def test_potential_is_the_integral_of_its_derivative(values, crossings):
    # Unprojected sigma: psi must still be the integral of psi'.
    pot = ConcavePotential(HalfLineSpline(1.0, values), r=1.0)
    breaks = np.sort(np.concatenate((np.arange(len(values)), crossings)))
    for x in (0.5, 1.0, 2.5, 4.0):
        pieces = np.concatenate(
            ([0.0], breaks[(breaks > 0) & (breaks < x)], [x]))
        ref = sum(quad(pot.derivative, a, b, epsabs=1e-14)[0]
                  for a, b in zip(pieces[:-1], pieces[1:]))
        assert pot(x) == pytest.approx(ref, abs=1e-12)


def test_potential_concavity():
    rng = Rng(33)
    pot = random_potential(rng)
    for _ in range(1000):
        a = 3.0 * rng.uniform()
        b = a + 3.0 * rng.uniform() + 1e-6
        t = rng.uniform()
        mid = pot(t * a + (1 - t) * b)
        assert mid >= t * pot(a) + (1 - t) * pot(b) - 1e-10


def test_sigmoid_spline():
    zero = SigmoidSpline(LinearSpline(0.1, np.zeros(21)))
    assert zero(0.37) == 0.5
    big = SigmoidSpline(LinearSpline(0.1, np.full(21, 100.0)))
    assert big(0.0) == pytest.approx(1.0, abs=1e-12)
    ident = SigmoidSpline(LinearSpline(0.1, 0.1 * np.arange(-10, 11)))
    assert ident(0.1) == pytest.approx(expit(0.1), abs=1e-12)



def test_sigmoid_spline_matches_expit_without_overflow():
    ident = SigmoidSpline(LinearSpline(1.0, np.arange(-3.0, 4.0)))
    x = np.concatenate((np.linspace(-800.0, 800.0, 160001),
                        [0.0, -0.0, 1e-300, -1e-300, 709.8, -745.2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = ident(x)
    assert np.max(np.abs(out - expit(x))) <= 3e-16


def test_package_import_leaves_out_scipy():
    src = str(Path(mmrsafi.__file__).resolve().parents[1])
    for module in ("mmrsafi", "mmrsafi.cli"):
        code = f"import sys, {module}; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False", module

