import math
from collections import Counter

import pytest

from hyprec import MeanParams, mean_quadrature, numkit, specfn
from hyprec.errors import DomainError, NonConvergence
from hyprec.numkit import QuadResult, central_diff, weighted_quad


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

    def test_budget_exhaustion(self):
        with pytest.raises(NonConvergence):
            weighted_quad(lambda s: math.sin(200.0 / (s + 1e-3)), 0.5, 1e-14, max_order=16)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            weighted_quad(lambda s: 1.0, 0.0, 1e-10)
        with pytest.raises(DomainError):
            weighted_quad(lambda s: 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_non_finite_b_rejected_before_any_rule(self, b):
        numkit._jacobi_rule.cache_clear()
        with pytest.raises(DomainError):
            weighted_quad(lambda s: 1.0, b, 1e-10)
        assert numkit._jacobi_rule.cache_info().currsize == 0

    @pytest.mark.parametrize("max_order", [0, 8, 15])
    def test_max_order_below_two_rules_rejected(self, max_order):
        with pytest.raises(DomainError):
            weighted_quad(lambda s: 1.0, 0.5, 1e-10, max_order=max_order)


def _uncached_quad(f, b, tol, max_order=4096):
    """The quadrature loop without the rule cache: roots_jacobi on every order."""
    import scipy.special

    scale = 2.0 ** (1.0 - 2.0 * b)
    previous = None
    evaluations = 0
    order = 8
    while order <= max_order:
        nodes, weights = scipy.special.roots_jacobi(order, b - 1.0, b - 1.0)
        value = scale * math.fsum(
            w * f(0.5 * (1.0 + u)) for u, w in zip(nodes.tolist(), weights.tolist())
        )
        evaluations += order
        if previous is not None:
            err = abs(value - previous)
            if err <= tol:
                return QuadResult(value, err, evaluations)
        previous = value
        order *= 2
    raise NonConvergence(
        f"quadrature did not stabilize within tol={tol!r} up to order {max_order}"
    )


class _CountingSpecial:
    """Stands in for numkit's scipy.special binding and counts Jacobi rules."""

    def __init__(self, module):
        self._module = module
        self.calls = Counter()

    def roots_jacobi(self, n, alpha, beta):
        self.calls[(n, alpha, beta)] += 1
        return self._module.roots_jacobi(n, alpha, beta)


class TestRuleCache:
    @pytest.mark.parametrize("b", [0.25, 0.4, 1.0, 2.5])
    def test_cold_warm_and_uncached_results_equal(self, b):
        f = lambda s: (3.0 * s + (1.0 - s) * 0.5) ** 0.3
        numkit._jacobi_rule.cache_clear()
        cold = weighted_quad(f, b, 1e-12)
        warm = weighted_quad(f, b, 1e-12)
        assert cold == warm == _uncached_quad(f, b, 1e-12)

    def test_nonconvergence_matches_uncached(self):
        f = lambda s: math.sin(200.0 / (s + 1e-3))
        with pytest.raises(NonConvergence) as expected:
            _uncached_quad(f, 0.5, 1e-14, max_order=64)
        numkit._jacobi_rule.cache_clear()
        for _ in range(2):
            with pytest.raises(NonConvergence) as got:
                weighted_quad(f, 0.5, 1e-14, max_order=64)
            assert str(got.value) == str(expected.value)

    def test_one_roots_jacobi_call_per_order(self, monkeypatch):
        counting = _CountingSpecial(numkit._sp)
        monkeypatch.setattr(numkit, "_sp", counting)
        numkit._jacobi_rule.cache_clear()
        mp = MeanParams(0.5, 0.3)
        try:
            first = mean_quadrature(1.0, 2.0, mp)
            calls_after_first = sum(counting.calls.values())
            assert mean_quadrature(1.0, 2.0, mp) == first
        finally:
            numkit._jacobi_rule.cache_clear()
        assert sum(counting.calls.values()) == calls_after_first >= 2
        assert set(counting.calls.values()) == {1}
        orders = sorted(n for n, _, _ in counting.calls)
        assert orders == [8 * 2**k for k in range(len(orders))]
        assert {(alpha, beta) for _, alpha, beta in counting.calls} == {(0.3 - 1.0, 0.3 - 1.0)}

    def test_cached_rules_are_read_only_and_bounded(self):
        nodes, weights = numkit._jacobi_rule(16, -0.5)
        assert not nodes.flags.writeable
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        maxsize = numkit._jacobi_rule.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize == numkit._RULE_CACHE_SIZE


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
