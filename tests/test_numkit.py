import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyprec import MeanParams, mean_quadrature, numkit, specfn
from hyprec.errors import DomainError, NonConvergence
from hyprec.numkit import central_diff, weighted_quad


class TestWeightedQuad:
    @pytest.mark.parametrize("b", [0.25, 0.5, 1.0, 2.0, 5.0])
    def test_constant_integrand_is_beta(self, b):
        res = weighted_quad(lambda s: 1.0, b, 1e-12)
        assert abs(res.value - specfn.beta(b, b)) <= 1e-10
        assert res.error_estimate <= 1e-12
        assert res.evaluations > 0

    def test_pi_anchor(self):
        assert abs(weighted_quad(lambda s: 1.0, 0.5, 1e-12).value - math.pi) <= 1e-10

    def test_linear_integrand(self):
        assert abs(weighted_quad(lambda s: s, 1.0, 1e-12).value - 0.5) <= 1e-12
        # integral of s * s^(b-1)(1-s)^(b-1) = B(b+1, b)
        res = weighted_quad(lambda s: s, 0.75, 1e-12)
        assert abs(res.value - specfn.beta(1.75, 0.75)) <= 1e-10

    def test_reflection_symmetry(self):
        f = lambda s: s**3 + 0.25 * s
        b = 0.4
        direct = weighted_quad(f, b, 1e-12).value
        reflected = weighted_quad(lambda s: f(1.0 - s), b, 1e-12).value
        assert abs(direct - reflected) <= 1e-12

    def test_unmet_tol_raises(self):
        with pytest.raises(NonConvergence):
            weighted_quad(lambda s: math.sin(200.0 / (s + 1e-3)), 0.5, 1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            weighted_quad(lambda s: 1.0, 0.0, 1e-10)
        with pytest.raises(DomainError):
            weighted_quad(lambda s: 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("turn", [0.0, -1.0, math.nan])
    def test_turn_must_be_positive(self, turn):
        with pytest.raises(DomainError):
            weighted_quad(lambda s: 1.0, 0.5, 1e-10, turn)

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_non_finite_b_rejected_before_any_rule(self, b, monkeypatch):
        counting = _CountingRules(numkit._sp)
        monkeypatch.setattr(numkit, "_sp", counting)
        with pytest.raises(DomainError):
            weighted_quad(lambda s: 1.0, b, 1e-10)
        assert not counting.calls

    @pytest.mark.parametrize("turn", [1e-300, 1e-12, 1e-3, 0.3, 0.5, 7.0])
    def test_graded_panels_keep_polynomials_exact(self, turn):
        # s^2 (1-s) against s^(b-1) (1-s)^(b-1) is B(b+2, b+1) on any panels.
        b = 0.35
        res = weighted_quad(lambda s: s * s * (1.0 - s), b, 1e-12, turn)
        assert abs(res.value - specfn.beta(b + 2.0, b + 1.0)) <= 1e-15


class _CountingRules:
    """Stands in for numkit's rule source and counts the rules fetched."""

    def __init__(self, source):
        self._source = source
        self.calls = Counter()

    def roots_jacobi(self, n, alpha, beta):
        self.calls[(n, alpha, beta)] += 1
        return self._source.roots_jacobi(n, alpha, beta)


def _jacobi_moment(k, alpha, beta):
    """Integral of (1+u)^k against (1-u)^alpha (1+u)^beta over [-1, 1], in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    alpha, beta = mpmath.mpf(alpha), mpmath.mpf(beta)
    return 2 ** (alpha + beta + k + 1) * mpmath.beta(alpha + 1, beta + k + 1)


class TestGaussJacobiRules:
    @pytest.mark.parametrize("n", [24, 48])
    @pytest.mark.parametrize("b", [0.05, 0.3, 1.0, 2.5, 30.0])
    def test_moments_match_closed_forms(self, n, b):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for alpha, beta in [(0.0, 0.0), (0.0, b - 1.0), (b - 1.0, 0.0), (b - 1.0, b - 1.0)]:
            nodes, weights = numkit._sp.roots_jacobi(n, alpha, beta)
            assert len(nodes) == len(weights) == n
            assert list(nodes) == sorted(nodes) and -1.0 < nodes[0] and nodes[-1] < 1.0
            assert min(weights) > 0.0
            # Exact through degree 2n - 1; (1+u)^k loses k ulp of a node.
            for k in range(2 * n):
                got = math.fsum(w * (1.0 + u) ** k for u, w in zip(nodes, weights))
                ref = _jacobi_moment(k, alpha, beta)
                assert abs(got - ref) <= 1e-13 * ref, (alpha, beta, k)

    def test_repeated_and_cold_results_equal(self):
        f = lambda s: (0.5 + s * 2.5) ** 0.3
        numkit._gauss_jacobi.cache_clear()
        cold = weighted_quad(f, 0.4, 1e-12, 0.2)
        warm = weighted_quad(f, 0.4, 1e-12, 0.2)
        assert cold == warm
        assert numkit._gauss_jacobi.__wrapped__(48, 0.0, -0.6) == numkit._gauss_jacobi(48, 0.0, -0.6)
        mp = MeanParams(0.3, 0.7)
        assert mean_quadrature(1.0, 3e5, mp) == mean_quadrature(3e5, 1.0, mp) == mean_quadrature(1.0, 3e5, mp)

    def test_every_rule_is_fetched_through_the_seam(self, monkeypatch):
        # The cache sits behind numkit._sp, so a warm call fetches as many
        # rules as a cold one: a stand-in for the seam sees every one.
        counting = _CountingRules(numkit._sp)
        monkeypatch.setattr(numkit, "_sp", counting)
        mp = MeanParams(0.5, 0.3)
        mean_quadrature(1.0, 2.0, mp)
        assert counting.calls == Counter({(24, 0.0, -0.7): 1, (48, 0.0, -0.7): 1})
        counting.calls.clear()
        mean_quadrature(1.0, 1e4, mp)
        mean_quadrature(1.0, 1e4, mp)
        assert counting.calls == Counter({(24, 0.0, -0.7): 2, (48, 0.0, -0.7): 2, (24, 0.0, 0.0): 2, (48, 0.0, 0.0): 2})

    def test_rule_cache_is_bounded(self):
        numkit._gauss_jacobi.cache_clear()
        maxsize = numkit._gauss_jacobi.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
        for k in range(maxsize + 8):
            numkit._gauss_jacobi(4, 0.0, k / 8.0)
        assert numkit._gauss_jacobi.cache_info().currsize == maxsize
        numkit._gauss_jacobi.cache_clear()

    @pytest.mark.parametrize("args", [(0, 0.0, 0.0), (4, -1.0, 0.0), (4, 0.0, -1.5)])
    def test_rule_domain(self, args):
        with pytest.raises(DomainError):
            numkit._gauss_jacobi(*args)


_A = st.floats(0.05, 0.95)
_B = st.floats(0.05, 30.0)


class TestMeanQuadratureProperty:
    @settings(max_examples=80, deadline=None)
    @given(_A, _B, st.floats(0.5, 2.0), st.floats(0.0, 12.0), st.booleans())
    def test_matches_mpmath(self, a, b, x, decades, swap):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        y = x * 10.0**decades
        if swap:
            x, y = y, x
        got = mean_quadrature(x, y, MeanParams(a, b))
        hi, lo = mpmath.mpf(max(x, y)), mpmath.mpf(min(x, y))
        am, bm = mpmath.mpf(a), mpmath.mpf(b)
        ref = hi * mpmath.hyp2f1(-am, bm, 2 * bm, 1 - lo / hi) ** (1 / am)
        assert abs(got - ref) <= 1e-12 * ref


class TestCentralDiff:
    def test_square(self):
        assert abs(central_diff(lambda x: x * x, 3.0, 1e-3) - 6.0) <= 1e-10

    def test_exp(self):
        assert abs(central_diff(math.exp, 0.0, 1e-3) - 1.0) <= 1e-9

    def test_extra_level_never_hurts_on_polynomials(self):
        polys = [
            (lambda x: x**5 - 2 * x**3 + x, lambda x: 5 * x**4 - 6 * x**2 + 1),
            (lambda x: x**7, lambda x: 7 * x**6),
            (lambda x: 3 * x**6 + x**2, lambda x: 18 * x**5 + 2 * x),
        ]
        for f, df in polys:
            for x in (0.5, 1.0, 2.0):
                err2 = abs(central_diff(f, x, 0.1, levels=2) - df(x))
                err3 = abs(central_diff(f, x, 0.1, levels=3) - df(x))
                assert err3 <= err2 + 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            central_diff(math.exp, 0.0, 0.0)
        with pytest.raises(DomainError):
            central_diff(math.exp, 0.0, 1e-3, levels=0)
