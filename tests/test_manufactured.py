"""Independent symbolic derivation of the manufactured data.

The closed-form displacement/pressure pair is the *definition* of the
benchmark; everything else (total pressure, forcing, boundary data) must
follow from the equations

    -div(2 mu eps(u)) + grad(xi) = f
    xi = alpha p - lam div(u)
    d/dt (c0 p + alpha div u) - div(K grad p) = g

These tests rederive f, g, the traction (2 mu eps(u) - xi I) n and the flux
K grad(p) . n with sympy and compare the hand-written numpy closures against
the symbolic results at random points.
"""
import numpy as np
import pytest
import sympy as sp

from biotsplit.benchmark import make_case
from biotsplit.mesh import SIDE_NORMALS

from helpers import strong_form_residual


def symbolic_fields(params):
    """Lambdified reference implementations derived purely with sympy."""
    x, y = sp.symbols("x y", real=True)
    mu, lam, alpha, c0, K = (params.mu, params.lam, params.alpha,
                             params.c0, params.K)
    ml = mu + lam
    u1 = sp.sin(2 * sp.pi * y) * (sp.cos(2 * sp.pi * x) - 1) \
        + sp.sin(sp.pi * x) * sp.sin(sp.pi * y) / ml
    u2 = sp.sin(2 * sp.pi * x) * (1 - sp.cos(2 * sp.pi * y)) \
        + sp.sin(sp.pi * x) * sp.sin(sp.pi * y) / ml
    p = sp.sin(sp.pi * x) * sp.sin(sp.pi * y)

    div_u = sp.diff(u1, x) + sp.diff(u2, y)
    xi = alpha * p - lam * div_u
    e11, e22 = sp.diff(u1, x), sp.diff(u2, y)
    e12 = (sp.diff(u1, y) + sp.diff(u2, x)) / 2
    f1 = -(sp.diff(2 * mu * e11, x) + sp.diff(2 * mu * e12, y)) + sp.diff(xi, x)
    f2 = -(sp.diff(2 * mu * e12, x) + sp.diff(2 * mu * e22, y)) + sp.diff(xi, y)
    # time factor e^{-t}: d/dt contributes a factor -1 to the storage terms
    g = -(c0 * p + alpha * div_u) - K * (sp.diff(p, x, 2) + sp.diff(p, y, 2))

    def lam2(expr):
        return sp.lambdify((x, y), expr, "numpy")

    return {
        "u1": lam2(u1), "u2": lam2(u2), "p": lam2(p),
        "div_u": lam2(div_u), "xi": lam2(xi),
        "f1": lam2(f1), "f2": lam2(f2), "g": lam2(g),
        "du": [[lam2(sp.diff(u1, x)), lam2(sp.diff(u1, y))],
               [lam2(sp.diff(u2, x)), lam2(sp.diff(u2, y))]],
        "dp": [lam2(sp.diff(p, x)), lam2(sp.diff(p, y))],
        "dxi": [lam2(sp.diff(xi, x)), lam2(sp.diff(xi, y))],
        "stress": [[lam2(2 * mu * e11 - xi), lam2(2 * mu * e12)],
                   [lam2(2 * mu * e12), lam2(2 * mu * e22 - xi)]],
        "kdp": [lam2(K * sp.diff(p, x)), lam2(K * sp.diff(p, y))],
    }


CASES = [make_case("nu03"),
         make_case(E=2.5, nu=0.4, alpha=0.9, c0=0.2, K=1e-3)]


@pytest.fixture(params=CASES, ids=["nu03", "mixed-params"])
def case_and_symbols(request):
    case = request.param
    return case, symbolic_fields(case.params)


def sample_points(n=100, seed=20260819):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    return pts[:, 0], pts[:, 1]


def test_profiles_match_symbolic(case_and_symbols):
    case, ref = case_and_symbols
    x, y = sample_points()
    u = case.u_profile(x, y)
    np.testing.assert_allclose(u[0], ref["u1"](x, y), atol=1e-12)
    np.testing.assert_allclose(u[1], ref["u2"](x, y), atol=1e-12)
    np.testing.assert_allclose(case.p_profile(x, y), ref["p"](x, y), atol=1e-12)
    np.testing.assert_allclose(case.div_u_profile(x, y), ref["div_u"](x, y),
                               atol=1e-12)
    np.testing.assert_allclose(case.xi_profile(x, y), ref["xi"](x, y),
                               atol=1e-12)


def test_gradients_match_symbolic(case_and_symbols):
    case, ref = case_and_symbols
    x, y = sample_points()
    du = case.grad_u_profile(x, y)
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(du[i, j], ref["du"][i][j](x, y),
                                       atol=1e-11)
    dp = case.grad_p_profile(x, y)
    dxi = case.grad_xi_profile(x, y)
    for j in range(2):
        np.testing.assert_allclose(dp[j], ref["dp"][j](x, y), atol=1e-11)
        np.testing.assert_allclose(dxi[j], ref["dxi"][j](x, y), atol=1e-11)


def test_forcing_matches_symbolic(case_and_symbols):
    case, ref = case_and_symbols
    x, y = sample_points()
    f = case.volume_force_profile(x, y)
    np.testing.assert_allclose(f[0], ref["f1"](x, y), atol=1e-10)
    np.testing.assert_allclose(f[1], ref["f2"](x, y), atol=1e-10)
    np.testing.assert_allclose(case.mass_source_profile(x, y), ref["g"](x, y),
                               atol=1e-11)


def test_boundary_data_matches_symbolic(case_and_symbols):
    case, ref = case_and_symbols
    s = np.linspace(0.0, 1.0, 17)
    sides = {2: (s, np.zeros_like(s)), 4: (s, np.ones_like(s)),
             1: (np.ones_like(s), s), 3: (np.zeros_like(s), s)}
    for tag, (x, y) in sides.items():
        n = SIDE_NORMALS[tag]
        tr = case.traction_profile(x, y, n)
        for i in range(2):
            expect = sum(ref["stress"][i][j](x, y) * n[j] for j in range(2))
            np.testing.assert_allclose(tr[i], expect, atol=1e-11)
        flux = case.flux_profile(x, y, n)
        expect = sum(ref["kdp"][j](x, y) * n[j] for j in range(2))
        np.testing.assert_allclose(flux, expect, atol=1e-12)


@pytest.mark.parametrize("preset", ["nu03", "nu0499", "lowk", "c00"])
def test_strong_form_residual_vanishes(preset):
    case = make_case(preset)
    x, y = sample_points()
    t = np.random.default_rng(5).random(x.size) * case.params.T
    worst = 0.0
    for xi_, yi_, ti_ in zip(x, y, t):
        res = strong_form_residual(case, xi_, yi_, float(ti_))
        worst = max(worst, max(abs(float(r)) for r in res))
    assert worst <= 1e-8


def test_exact_fields_carry_time_factor():
    # the exact field at time t is time_factor(t) times its t = 0 profile
    case = make_case("nu03")
    for t in (0.0, 0.007, 1.0):
        assert case.time_factor(t) == pytest.approx(np.exp(-t), rel=1e-15, abs=0.0)
