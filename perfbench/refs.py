"""Reference values that do not come from hyprec.

* Exact coefficients: the Cauchy-product convolution evaluated modulo four
  fixed Mersenne primes.  A rational r/s returned by the program matches the
  true coefficient u = S/T exactly when r*T == s*S; checking that identity
  in each prime field costs small-integer arithmetic instead of the
  normalised big rationals the program itself uses.
* Float coefficients, hypergeometric values, means, G_m and Q_p0: mpmath at
  30 significant digits.
* Region labels: a second reading of the E+ / E- set formulas in exact
  rational arithmetic.

mpmath is imported lazily so that timed code never pays for it.
"""

from __future__ import annotations

from fractions import Fraction

#: Prime moduli of the exact fingerprint (2^61-1, 2^89-1, 2^107-1, 2^127-1).
PRIMES = tuple(2**e - 1 for e in (61, 89, 107, 127))

#: A returned float is wrong when |value - ref| > REL_TOL*|ref| + ABS_TOL*scale.
#: REL_TOL marks an answer as wrong, not merely inaccurate: near its
#: convergence limit mean_series is off by up to ~7e-7 (a = 0.05, ratio 7e4),
#: and each run reports the worst relative error per request kind.
REL_TOL = 1e-5
ABS_TOL = 1e-12

#: A Schur sample's sign is compared only where |G_m| exceeds this share of
#: the magnitude of its two terms (below it the finite differences are noise).
SIGN_FLOOR = 1e-5

#: Triples closer than this to a boundary of E+ / E- are not label-checked.
BOUNDARY_GUARD = 1e-12

_mp = None


def mp():
    """The mpmath module, configured on first use."""
    global _mp
    if _mp is None:
        import mpmath

        mpmath.mp.dps = 30
        _mp = mpmath
    return _mp


def close(value, ref, scale: float = 1.0) -> bool:
    """True when a float result agrees with its reference."""
    value = float(value)
    ref = float(ref)
    return abs(value - ref) <= REL_TOL * abs(ref) + ABS_TOL * scale


# ---------------------------------------------------------------------------
# exact coefficients


def _field(q: Fraction, p: int) -> int:
    return q.numerator % p * pow(q.denominator % p, -1, p) % p


def _residues(kind: str, a, b, c, p_exp, theta, n: int, prime: int) -> list[int]:
    """Coefficients 0..n of the weighted (or log) product modulo ``prime``."""
    A, B, C = (_field(Fraction(v), prime) for v in (a, b, c))
    w = [1]
    for k in range(n):
        num = (A + k) * (B + k) % prime
        den = (C + k) * (k + 1) % prime
        w.append(w[-1] * num % prime * pow(den, -1, prime) % prime)
    if kind == "log":
        g = [0] + [(-pow(j, -1, prime)) % prime for j in range(1, n + 1)]
    else:
        T = _field(Fraction(theta), prime)
        Q = _field(-Fraction(p_exp), prime)
        g = [1]
        for j in range(n):
            g.append(g[-1] * T % prime * (Q + j) % prime * pow(j + 1, -1, prime) % prime)
    return [sum(w[k] * g[m - k] for k in range(m + 1)) % prime for m in range(n + 1)]


def exact_fingerprint(kind: str, a, b, c, p_exp, theta, n: int) -> list[list[int]]:
    """Residues of the true coefficients, one list per prime in PRIMES.

    ``kind`` is "weighted" for (1 - theta*x)^p F(a,b;c;x) or "log" for
    ln(1-x) F(a,b;c;x).  Parameters are exact rationals.
    """
    return [_residues(kind, a, b, c, p_exp, theta, n, prime) for prime in PRIMES]


def exact_matches(coeffs, fingerprint) -> bool:
    """True when every rational in ``coeffs`` equals the fingerprinted value."""
    if len(coeffs) != len(fingerprint[0]):
        return False
    for prime, residues in zip(PRIMES, fingerprint):
        for value, res in zip(coeffs, residues):
            if not isinstance(value, (int, Fraction)):
                return False
            q = Fraction(value)
            if q.numerator % prime != res * (q.denominator % prime) % prime:
                return False
    return True


def float_coeffs(kind: str, a, b, c, p_exp, theta, n: int) -> list:
    """Coefficients 0..n by Cauchy convolution in mpmath arithmetic."""
    m = mp()
    a, b, c = m.mpf(a), m.mpf(b), m.mpf(c)
    w = [m.mpf(1)]
    for k in range(n):
        w.append(w[-1] * (a + k) * (b + k) / ((c + k) * (k + 1)))
    if kind == "log":
        g = [m.mpf(0)] + [-m.mpf(1) / j for j in range(1, n + 1)]
    else:
        th, q = m.mpf(theta), -m.mpf(p_exp)
        g = [m.mpf(1)]
        for j in range(n):
            g.append(g[-1] * th * (q + j) / (j + 1))
    return [m.fsum(w[k] * g[i - k] for k in range(i + 1)) for i in range(n + 1)]


def seq_close(values, refs) -> bool:
    if len(values) != len(refs):
        return False
    scale = max(abs(float(r)) for r in refs)
    return all(close(v, r, scale) for v, r in zip(values, refs))


# ---------------------------------------------------------------------------
# hypergeometric values and the mean


def hyp2f1(a, b, c, x):
    m = mp()
    return m.hyp2f1(m.mpf(a), m.mpf(b), m.mpf(c), m.mpf(x))


def hyp2f1_derivative(a, b, c, x):
    m = mp()
    return m.diff(lambda z: m.hyp2f1(m.mpf(a), m.mpf(b), m.mpf(c), z), m.mpf(x))


def mean(x, y, a, b):
    """M(x, y) = max * F(-a, b; 2b; 1 - min/max)^(1/a)."""
    m = mp()
    hi, lo = (m.mpf(x), m.mpf(y)) if x >= y else (m.mpf(y), m.mpf(x))
    t = 1 - lo / hi
    return hi * m.hyp2f1(-m.mpf(a), m.mpf(b), 2 * m.mpf(b), t) ** (1 / m.mpf(a))


def gm_terms(a, b, m_idx, t):
    """(F(1-a,b;2b+1;t), (1-t)^(1-m) F(1-a,b+1;2b+1;t)); G_m is their difference."""
    m = mp()
    a, b, t = m.mpf(a), m.mpf(b), m.mpf(t)
    f1 = m.hyp2f1(1 - a, b, 2 * b + 1, t)
    f2 = m.hyp2f1(1 - a, b + 1, 2 * b + 1, t)
    return f1, (1 - t) ** (1 - m.mpf(m_idx)) * f2


def q_p0(a, b, t):
    """Q_p0(t) = (1-t)^(-p0) F(a,b;2b+1;t) / F(a,b+1;2b+1;t), p0 = a/(2b+1)."""
    m = mp()
    a, b, t = m.mpf(a), m.mpf(b), m.mpf(t)
    p0 = a / (2 * b + 1)
    return (1 - t) ** (-p0) * m.hyp2f1(a, b, 2 * b + 1, t) / m.hyp2f1(a, b + 1, 2 * b + 1, t)


def gauss_at_one(a, b, c):
    return hyp2f1(a, b, c, 1)


def zero_balanced(a, b, x):
    """(R(a,b) - ln(1-x)) / B(a,b) with R(a,b) = -2*gamma - psi(a) - psi(b)."""
    m = mp()
    a, b, x = m.mpf(a), m.mpf(b), m.mpf(x)
    r = -2 * m.euler - m.digamma(a) - m.digamma(b)
    return (r - m.log(1 - x)) / m.beta(a, b)


# ---------------------------------------------------------------------------
# regions


def region(a, b, m) -> str | None:
    """Label of (a, b, m) by the E+ / E- set formulas, or None near a boundary.

    E+ = {m <= m0} and ({m < 1 <= a+b} or {m < a+b < 1} or {m = a+b <= 1/2})
    E- = {m >= m0} and ({a+b >= 1, m >= 1} or {1/2 <= m = a+b < 1}
                        or {a+b < min(1, m)})
    with m0 = (a+2b)/(1+2b); the one common point is labelled E+.
    """
    A, B, M = Fraction(a), Fraction(b), Fraction(m)
    s = A + B
    m0 = (A + 2 * B) / (1 + 2 * B)
    edges = (M - m0, s - 1, M - s, M - 1, 2 * s - 1)
    if any(0 < abs(e) < BOUNDARY_GUARD for e in edges):
        return None
    plus = M <= m0 and (M < 1 <= s or M < s < 1 or (M == s and 2 * s <= 1))
    minus = M >= m0 and ((1 <= s and 1 <= M) or (M == s and 1 <= 2 * s and s < 1) or s < min(1, M))
    if plus:
        return "E+"
    return "E-" if minus else "neither"
