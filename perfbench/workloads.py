"""The four workloads: seeded inputs, the operation each input drives, and its check.

A workload's inputs form one *pass*: a fixed, seeded list of operations
whose composition (kinds, size strata, parameter strata) does not depend on
the seed; the seed only draws values inside each stratum.  The timed loop
repeats whole passes, so every run measures the same mix.

Every operation returns an output that ``judge`` compares with a reference
from ``refs`` (never from hyprec).  An operation that raises a
``HyprecError``, or a subprocess that exits nonzero, is a failed operation;
any other exception is a wrong output.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import refs

#: Mean ratios are drawn log-uniformly over [1, 10^MEAN_DECADES], one per decade.
MEAN_DECADES = 7


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


@dataclass(frozen=True)
class Failed:
    """Output of an operation that raised instead of returning."""

    error: str
    hyprec: bool


@dataclass(frozen=True)
class Exit:
    """Exit status and standard output of one CLI invocation."""

    code: int
    stdout: str


@dataclass
class Verdict:
    wrong: bool = False
    bounds_checked: int = 0
    bounds_violated: int = 0
    worst_rel: float = 0.0


def _hyprec():
    import hyprec

    return hyprec


def child_env(*paths: str) -> dict:
    """This environment without PYTHON* and HYPREC_* variables, importing from ``paths``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "HYPREC_"))}
    if paths:
        env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# ---------------------------------------------------------------------------
# calibration jobs: fixed work of each workload's kind, done without hyprec


def fraction_job() -> None:
    """Products and sums of Fractions whose denominators grow, as in an exact convolution."""
    acc = Fraction(0)
    for k in range(1, 150):
        acc += Fraction(k, 2 * k + 3) * Fraction(3 * k + 1, 5 * k + 7)


def series_job() -> None:
    """A Gauss-type float series summed term by term in Python."""
    total = term = 1.0
    for n in range(9000):
        term *= (0.3 + n) * (1.2 + n) / ((2.5 + n) * (n + 1.0)) * 0.999
        total += term


def nodes_job() -> None:
    """Gauss-Jacobi nodes from scipy, the native work behind quadrature."""
    import scipy.special

    scipy.special.roots_jacobi(256, -0.3, -0.3)


def startup_job() -> None:
    """A fresh interpreter that imports numpy: interpreter start and import work."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), check=True)


def _bin(rng: random.Random, lo: float, hi: float, i: int, k: int) -> float:
    """Uniform draw from the i-th of k equal bins of [lo, hi)."""
    width = (hi - lo) / k
    return lo + width * (i + rng.random())


def _rational(rng: random.Random, lo: float, hi: float, den_lo: int, den_hi: int) -> Fraction:
    """Non-integer rational near [lo, hi] with a denominator drawn from [den_lo, den_hi]."""
    den = rng.randint(den_lo, den_hi)
    num = rng.randint(math.ceil(lo * den), math.floor(hi * den))
    if num % den == 0:
        num += 1
    return Fraction(num, den)


def _signed(rng: random.Random, q: Fraction) -> Fraction:
    return q if rng.random() < 0.5 else -q


def _rel(value, ref) -> float:
    ref = float(ref)
    return abs(float(value) - ref) / abs(ref) if ref else abs(float(value))


# ---------------------------------------------------------------------------
# exact-certify


EXACT_KINDS = tuple(("u_general", th) for th in ("-1", "-1/2", "0", "1/2", "1")) + (
    ("u_theta_plus1", "1"),
    ("u_theta_minus1", "-1"),
    ("v_log_product", None),
)
#: N of each stratum; the oracle's cost grows like N^2 times the bit size.
EXACT_N = (56, 92, 128, 164, 200)
#: Prime denominators of a, b, c and p, of about 3, 5.5, 8 and 5.5 bits: the
#: parameters of every spec differ in height, but every spec has the same mix
#: of heights and no reduction or shared factor, so an op's cost follows from
#: its N and kind and the seed, which only draws the numerators, hardly moves
#: it.
EXACT_PRIMES = ((5, 7, 11, 13), (37, 41), (251, 257, 263, 269), (43, 47))


class ExactCertify:
    """One op certifies one Fraction-mode spec termwise against cauchy_oracle."""

    name = "exact-certify"
    in_process = True
    calibration = staticmethod(fraction_job)

    def pool(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for n in EXACT_N:
            for k, (kind, theta) in enumerate(EXACT_KINDS):
                da, db, dc, dp = (primes[k % len(primes)] for primes in EXACT_PRIMES)
                a = _signed(rng, _rational(rng, 0.5, 2.5, da, da))
                b = _signed(rng, _rational(rng, 0.5, 2.5, db, db))
                c = _rational(rng, 0.5, 4.0, dc, dc)
                p = _signed(rng, _rational(rng, 0.5, 3.0, dp, dp))
                th = None if theta is None else Fraction(theta)
                ops.append(Op(kind, (a, b, c, p, th, n)))
        return ops

    def warm_up(self) -> None:
        H = _hyprec()
        spec = H.WeightedSeriesSpec(H.HypParams(Fraction(1, 3), Fraction(2, 3), Fraction(3, 2)), Fraction(1, 2), Fraction(1, 2))
        H.u_general(spec, 8)
        H.cauchy_oracle(spec, 8)

    def run(self, op: Op):
        H = _hyprec()
        a, b, c, p, th, n = op.args
        params = H.HypParams(a, b, c)
        if op.kind == "u_general":
            spec = H.WeightedSeriesSpec(params, p, th)
            rec = H.u_general(spec, n)
        elif op.kind == "u_theta_plus1":
            spec = H.WeightedSeriesSpec(params, p, th)
            rec = H.u_theta_plus1(params, p, n)
        elif op.kind == "u_theta_minus1":
            spec = H.WeightedSeriesSpec(params, p, th)
            rec = H.u_theta_minus1(params, p, n)
        else:
            spec = H.LogProductSpec(params)
            rec = H.v_log_product(params, n)
        oracle = H.cauchy_oracle(spec, n)
        return rec.coeffs, rec.coeffs == oracle.coeffs

    def reference(self, op: Op):
        a, b, c, p, th, n = op.args
        kind = "log" if op.kind == "v_log_product" else "weighted"
        return refs.exact_fingerprint(kind, a, b, c, p, th, n)

    def judge(self, op: Op, out, ref) -> Verdict:
        coeffs, certified = out
        return Verdict(wrong=not (certified and refs.exact_matches(coeffs, ref)))


# ---------------------------------------------------------------------------
# gm-scan


GM_A_BINS = 5
GM_B_BINS = 8
GM_M_PER_CELL = 3
T_GRID = tuple(0.02 * k for k in range(1, 50))
Q_SAMPLE = T_GRID[::4]


class GmScan:
    """One op is one (a, b) cell of schur_grid_scan plus per-triple scans."""

    name = "gm-scan"
    in_process = True
    calibration = staticmethod(series_job)

    def pool(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for i in range(GM_A_BINS):
            for j in range(GM_B_BINS):
                a = _bin(rng, 0.04, 0.96, i, GM_A_BINS)
                b = _bin(rng, 0.45, 2.25, j, GM_B_BINS)
                ms = tuple(_bin(rng, -0.5, 1.5, k, GM_M_PER_CELL) for k in range(GM_M_PER_CELL))
                ops.append(Op("cell", (a, b, ms)))
        return ops

    def warm_up(self) -> None:
        H = _hyprec()
        H.schur_grid_scan([0.5], [0.5], [0.5], t_grid=(0.5,))
        H.gm_sign_scan(H.RegionTriple(H.MeanParams(0.5, 0.5), 0.5), t_grid=(0.5,))
        H.q_p0_profile(H.MeanParams(0.5, 0.5), (0.5,))

    def run(self, op: Op):
        H = _hyprec()
        a, b, ms = op.args
        grid = H.schur_grid_scan([a], [b], list(ms))
        per_triple = []
        for m in ms:
            triple = H.RegionTriple(H.MeanParams(a, b), m)
            report = H.gm_sign_scan(triple)
            q = H.q_p0_profile(H.q_params_for_mean(triple.mean), Q_SAMPLE)
            per_triple.append((report, q))
        return grid, per_triple

    def reference(self, op: Op):
        a, b, ms = op.args
        ts = T_GRID + (0.9, 0.99, 0.999)
        terms = {t: refs.gm_terms(a, b, 0.0, t) for t in ts}
        out = {}
        for m in ms:
            g = {}
            scale = 0.0
            for t in ts:
                f1, f2_at_m0 = terms[t]
                f2 = f2_at_m0 * (1 - refs.mp().mpf(t)) ** (-refs.mp().mpf(m))
                g[t] = f1 - f2
                scale = max(scale, abs(float(f1)), abs(float(f2)))
            out[m] = (refs.region(a, b, m), g, scale)
        q = [refs.q_p0(1 - a, b, t) for t in Q_SAMPLE]
        return out, q

    def judge(self, op: Op, out, ref) -> Verdict:
        grid, per_triple = out
        by_m, q_ref = ref
        ms = op.args[2]
        v = Verdict()
        reports = list(grid) + [r for r, _ in per_triple]
        if len(grid) != len(ms):
            v.wrong = True
            return v
        for report, m in zip(reports, list(ms) * 2):
            label, g, scale = by_m[m]
            grid_g = [g[t] for t in T_GRID]
            checks = [(report.gm_min, min(grid_g)), (report.gm_max, max(grid_g))]
            checks += [(val, g[t]) for t, val in report.near_one]
            if label is not None and report.label != label:
                v.wrong = True
            for val, r in checks:
                v.worst_rel = max(v.worst_rel, _rel(val, r))
                if not refs.close(val, r, scale):
                    v.wrong = True
        for _, q in per_triple:
            for val, r in zip(q, q_ref):
                v.worst_rel = max(v.worst_rel, _rel(val, r))
                if not refs.close(val, r):
                    v.wrong = True
        return v


# ---------------------------------------------------------------------------
# point-queries


PQ_BLOCKS = 8
HYP_X_BINS = ((-0.9, 0.5), (0.5, 0.9), (0.9, 0.99), (0.99, 0.999))
DERIV_X_BINS = ((0.0, 0.9), (0.9, 0.99))
#: Known cases whose reported error_bound is smaller than the true error.
BAD_BOUND_CASES = ((0.1, 0.1, 5.0, 0.999), (0.5, 0.5, 3.0, 0.99))
COEFF_N = 64
#: Fixed (a, b) designs of the mean requests.  Quadrature cost jumps by three
#: orders of magnitude across b (below b ~ 0.5 it gives up from ratio 1e3 after
#: ~0.85 s of node computation), so (a, b) is a fixed spread and the seed
#: draws the ratios.  Two designs sit below b = 0.5, which puts 15-16 requests
#: of that cost in every pass, safely more than the tail percentile leaves
#: beyond it.
MEAN_A = tuple(0.05 + 0.9 * (i + 0.5) / PQ_BLOCKS for i in range(PQ_BLOCKS))
MEAN_B = (1.0, 0.2, 2.3, 0.7, 2.8, 1.4, 0.35, 1.8)
#: Requests per block of the short kinds: hyp2f1 per x bin, the derivative
#: per x bin, and the rest.  They outnumber the means so that a pass holds
#: over 1000 requests: the median falls inside the dense cluster of short
#: hyp2f1 series (per-call overhead), and the tail percentile is p99, inside
#: the cluster of quadratures that give up.
HYP_PER_BIN = (20, 16, 8, 8)
DERIV_PER_BIN = (12, 4)
CLASSIFY_PER_BLOCK = 19
SCHUR_PER_BLOCK = 8
COEFFS_PER_BLOCK = 16


def _hyp_params(rng: random.Random, falling: bool) -> tuple:
    """(a, b, c) whose series term ratio falls toward x (a+b > c+1) or rises (a+b < c+1).

    The tail bound is honest in the first regime and too small in the second,
    so a pass holds both in fixed proportion.
    """
    if falling:
        c = rng.uniform(0.5, 2.0)
        s = c + 1 + rng.uniform(0.2, 2.0)
    else:
        c = rng.uniform(1.0, 5.0)
        s = rng.uniform(-1.0, min(4.0, c + 0.8))
    w = rng.uniform(0.3, 0.7)
    return s * w, s * (1 - w), c


class PointQueries:
    """One op is one small float request; the mix is fixed per block."""

    name = "point-queries"
    in_process = True
    calibration = staticmethod(nodes_job)

    def pool(self, seed: int) -> list[Op]:
        """BAD_BOUND_CASES plus PQ_BLOCKS blocks of one request mix.

        Block j draws its x values and mean ratios from the j-th sub-bin of
        each stratum and pairs decade k with mean design (j + k) mod B, so a
        pass covers every stratum evenly and the share of inputs beyond the
        program's convergence limits hardly moves with the seed.
        """
        rng = random.Random(f"{self.name}:{seed}")
        u = rng.uniform
        B = PQ_BLOCKS
        ops = [Op("hyp2f1", case) for case in BAD_BOUND_CASES]
        for j in range(B):
            for (lo, hi), count in zip(HYP_X_BINS, HYP_PER_BIN):
                for r in range(count):
                    ops.append(Op("hyp2f1", (*_hyp_params(rng, r % 2 == 0), _bin(rng, lo, hi, j, B))))
            for (lo, hi), count in zip(DERIV_X_BINS, DERIV_PER_BIN):
                for r in range(count):
                    ops.append(Op("hyp2f1_derivative", (*_hyp_params(rng, r % 2 == 0), _bin(rng, lo, hi, j, B))))
            for kind in ("mean_series", "mean_quadrature"):
                for k in range(MEAN_DECADES):
                    x = u(0.5, 2.0)
                    y = x * 10 ** _bin(rng, k, k + 1, j, B)
                    if rng.random() < 0.5:
                        x, y = y, x
                    d = (j + k) % B
                    ops.append(Op(kind, (x, y, MEAN_A[d], MEAN_B[d])))
            for _ in range(SCHUR_PER_BLOCK):
                x = u(0.5, 2.0)
                ops.append(Op("schur_condition_sample", (x, x * 10 ** u(0.05, 1.3), u(0.05, 0.95), u(0.3, 2.0), u(-0.5, 1.5))))
            for _ in range(CLASSIFY_PER_BLOCK):
                ops.append(Op("classify_region", (u(0.02, 0.98), u(0.02, 2.5), u(-0.5, 1.5))))
            for _ in range(COEFFS_PER_BLOCK // 2):
                ops.append(Op("u_general", (u(-1, 2), u(-1, 2), u(0.5, 5), u(-2, 2), u(-1, 1))))
                ops.append(Op("v_log_product", (u(0.1, 2), u(0.1, 2), u(0.5, 5))))
        return ops

    def warm_up(self) -> None:
        H = _hyprec()
        params = H.HypParams(0.5, 0.5, 1.5)
        H.hyp2f1(params, 0.5)
        H.hyp2f1_derivative(params, 0.5)
        mp = H.MeanParams(0.5, 0.5)
        H.mean_series(1.0, 2.0, mp)
        H.mean_quadrature(1.0, 2.0, mp)
        triple = H.RegionTriple(mp, 0.5)
        H.schur_condition_sample(1.0, 2.0, triple)
        H.classify_region(triple)
        H.u_general(H.WeightedSeriesSpec(params, 0.5, 0.5), 8)
        H.v_log_product(params, 8)

    def run(self, op: Op):
        H = _hyprec()
        k, args = op.kind, op.args
        if k in ("hyp2f1", "hyp2f1_derivative"):
            a, b, c, x = args
            result = getattr(H, k)(H.HypParams(a, b, c), x)
            return result.value, result.error_bound
        if k in ("mean_series", "mean_quadrature"):
            x, y, a, b = args
            return getattr(H, k)(x, y, H.MeanParams(a, b))
        if k == "schur_condition_sample":
            x, y, a, b, m = args
            return H.schur_condition_sample(x, y, H.RegionTriple(H.MeanParams(a, b), m))
        if k == "classify_region":
            a, b, m = args
            return H.classify_region(H.RegionTriple(H.MeanParams(a, b), m)).label.value
        if k == "u_general":
            a, b, c, p, th = args
            return H.u_general(H.WeightedSeriesSpec(H.HypParams(a, b, c), p, th), COEFF_N).coeffs
        a, b, c = args
        return H.v_log_product(H.HypParams(a, b, c), COEFF_N).coeffs

    def reference(self, op: Op):
        k, args = op.kind, op.args
        if k == "hyp2f1":
            return refs.hyp2f1(*args)
        if k == "hyp2f1_derivative":
            return refs.hyp2f1_derivative(*args)
        if k in ("mean_series", "mean_quadrature"):
            return refs.mean(*args)
        if k == "schur_condition_sample":
            x, y, a, b, m = args
            t = 1 - min(x, y) / max(x, y)
            return refs.gm_terms(a, b, m, t)
        if k == "classify_region":
            return refs.region(*args)
        if k == "u_general":
            a, b, c, p, th = args
            return refs.float_coeffs("weighted", a, b, c, p, th, COEFF_N)
        a, b, c = args
        return refs.float_coeffs("log", a, b, c, 0, 0, COEFF_N)

    def judge(self, op: Op, out, ref) -> Verdict:
        k = op.kind
        v = Verdict()
        if k in ("hyp2f1", "hyp2f1_derivative"):
            value, bound = out
            v.bounds_checked = 1
            v.bounds_violated = int(abs(refs.mp().mpf(value) - ref) > bound)
            v.worst_rel = _rel(value, ref)
            v.wrong = not refs.close(value, ref)
        elif k in ("mean_series", "mean_quadrature"):
            v.worst_rel = _rel(out, ref)
            v.wrong = not refs.close(out, ref)
        elif k == "schur_condition_sample":
            f1, f2 = ref
            g = f1 - f2
            if abs(g) > refs.SIGN_FLOOR * max(abs(f1), abs(f2)):
                v.wrong = (out > 0) != (g > 0)
        elif k == "classify_region":
            v.wrong = ref is not None and out != ref
        else:
            v.wrong = not refs.seq_close(out, ref)
        return v


# ---------------------------------------------------------------------------
# cli-verify


def _lit(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _num(x: float) -> str:
    return repr(float(x))


#: x bins of the cli eval requests; the last one is a derivative request.
CLI_EVAL_X_BINS = ((0.5, 0.9), (0.9, 0.99), (0.9, 0.99), (0.99, 0.999), (0.5, 0.9))


class CliVerify:
    """One op is one sequential ``python3 -m hyprec`` subprocess."""

    name = "cli-verify"
    in_process = False
    calibration = staticmethod(startup_job)

    def __init__(self, root: str):
        self.src = os.path.join(root, "src")

    def pool(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        u = rng.uniform
        seed_arg = rng.randint(0, 10**6)
        ops = [Op("verify", (("verify", "--suite", "all", "--seed", str(seed_arg), "--format", "json"), seed_arg))]
        for family in ("general", "oracle", "log"):
            a, b = (_rational(rng, -0.9, 2.5, 2, 60) for _ in range(2))
            c = _rational(rng, 0.2, 4.0, 2, 60)
            argv = ["coeffs", f"--a={_lit(a)}", f"--b={_lit(b)}", f"--c={_lit(c)}", "--family", family, "--n", str(rng.randint(16, 40))]
            p = th = None
            if family != "log":
                p = _rational(rng, -3.0, 3.0, 2, 60)
                th = Fraction(rng.choice((-1, -1, 0, 1, 1)), rng.choice((1, 2)))
                argv += [f"--p={_lit(p)}", f"--theta={_lit(th)}"]
            ops.append(Op("coeffs", (tuple(argv), (a, b, c, p, th))))
        for family in ("general", "log"):
            a, b, c = u(0.1, 2), u(0.1, 2), u(0.5, 5)
            p, th = (u(-2, 2), u(-1, 1)) if family == "general" else (None, None)
            argv = ["coeffs", f"--a={_num(a)}", f"--b={_num(b)}", f"--c={_num(c)}", "--family", family, "--n", "64"]
            if p is not None:
                argv += [f"--p={_num(p)}", f"--theta={_num(th)}"]
            ops.append(Op("coeffs", (tuple(argv), (a, b, c, p, th))))
        # From x = 0.5 on, whether the error bound holds follows from the
        # regime (see _hyp_params): two evals hold and two do not.
        for i, (lo, hi) in enumerate(CLI_EVAL_X_BINS):
            (a, b, c), x = _hyp_params(rng, i % 2 == 0), u(lo, hi)
            deriv = i == len(CLI_EVAL_X_BINS) - 1
            argv = ["eval", f"--a={_num(a)}", f"--b={_num(b)}", f"--c={_num(c)}", f"--x={_num(x)}"]
            ops.append(Op("eval", (tuple(argv + (["--deriv"] if deriv else [])), (a, b, c, x, deriv))))
        a, b = u(0.1, 1.5), u(0.1, 1.5)
        c = a + b + u(0.2, 2)
        ops.append(Op("near-one", (("near-one", "--case", "value-at-one", f"--a={_num(a)}", f"--b={_num(b)}", f"--c={_num(c)}"), (a, b, c, None))))
        a, b, x = u(0.1, 1.5), u(0.1, 1.5), u(0.9, 0.999)
        ops.append(Op("near-one", (("near-one", "--case", "zero-balanced", f"--a={_num(a)}", f"--b={_num(b)}", f"--x={_num(x)}"), (a, b, None, x))))
        a, b = u(0.5, 2), u(0.5, 2)
        c, x = u(0.3, a + b - 0.1), u(0.5, 0.95)
        ops.append(Op("near-one", (("near-one", "--case", "euler", f"--a={_num(a)}", f"--b={_num(b)}", f"--c={_num(c)}", f"--x={_num(x)}"), (a, b, c, x))))
        for _ in range(2):
            a, b, m = u(0.02, 0.98), u(0.02, 2.5), u(-0.5, 1.5)
            ops.append(Op("classify", (("classify", f"--a={_num(a)}", f"--b={_num(b)}", f"--m={_num(m)}"), (a, b, m))))
        for _ in range(2):
            x = u(0.5, 2)
            y, a, b = x * 10 ** u(0, 3), u(0.05, 0.95), u(0.1, 3)
            ops.append(Op("mean", (("mean", f"--a={_num(a)}", f"--b={_num(b)}", f"--x={_num(x)}", f"--y={_num(y)}", "--method", "both"), (x, y, a, b))))
        a, b, m = u(0.05, 0.95), u(0.45, 2.25), u(-0.5, 1.5)
        ops.append(Op("gm-scan", (("gm-scan", f"--a={_num(a)}", f"--b={_num(b)}", f"--m={_num(m)}"), (a, b, m))))
        a, b = u(0.05, 0.95), u(0.3, 2.0)
        ops.append(Op("qprofile", (("qprofile", f"--a={_num(a)}", f"--b={_num(b)}"), (a, b))))
        return ops

    def warm_up(self) -> None:
        import contextlib
        import io

        import hyprec.cli

        with contextlib.redirect_stdout(io.StringIO()):
            hyprec.cli.main(["classify", "--a", "0.9", "--b", "0.5", "--m", "0"])
        _hyprec().verify_driver("special-cases", 0)

    @staticmethod
    def argv(op: Op) -> list[str]:
        return list(op.args[0])

    def run(self, op: Op):
        """Run the subcommand; returns its Exit and the child's peak RSS in KiB."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "hyprec", *self.argv(op)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(self.src),
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Exit(proc.returncode, out.decode()), usage.ru_maxrss

    def run_in_process(self, op: Op):
        """The same request through ``hyprec.cli.main`` in this process.

        The verify request runs each suite through ``verify_driver`` in turn,
        which produces the results ``--suite all`` does, one suite per call.
        """
        import contextlib
        import io

        H = _hyprec()
        if op.kind == "verify":
            failures = sum(H.verify_driver(suite, op.args[1]).failures for suite in H.verify.SUITES)
            return Exit(0, json.dumps({"failures": failures}))
        import hyprec.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = hyprec.cli.main(self.argv(op))
        return Exit(code, buf.getvalue())

    def reference(self, op: Op):
        k = op.kind
        if k == "verify":
            return None
        vals = op.args[1]
        if k == "coeffs":
            a, b, c, p, th = vals
            kind = "log" if p is None else "weighted"
            n = int(op.args[0][op.args[0].index("--n") + 1])
            if isinstance(a, Fraction):
                return refs.exact_fingerprint(kind, a, b, c, p, th, n)
            return refs.float_coeffs(kind, a, b, c, p or 0, th or 0, n)
        if k == "eval":
            a, b, c, x, deriv = vals
            return (refs.hyp2f1_derivative if deriv else refs.hyp2f1)(a, b, c, x)
        if k == "near-one":
            a, b, c, x = vals
            case = op.args[0][2]
            if case == "value-at-one":
                return refs.gauss_at_one(a, b, c)
            if case == "zero-balanced":
                return refs.zero_balanced(a, b, x)
            return refs.hyp2f1(a, b, c, x)
        if k == "classify":
            return refs.region(*vals)
        if k == "mean":
            return refs.mean(*vals)
        if k == "gm-scan":
            a, b, m = vals
            ts = T_GRID + (0.9, 0.99, 0.999)
            g = {}
            scale = 0.0
            for t in ts:
                f1, f2 = refs.gm_terms(a, b, m, t)
                g[t] = f1 - f2
                scale = max(scale, abs(float(f1)), abs(float(f2)))
            return refs.region(a, b, m), g, scale
        a, b = vals
        return [refs.q_p0(a, b, t) for t in T_GRID]

    def judge(self, op: Op, out, ref) -> Verdict:
        v = Verdict()
        payload = json.loads(out.stdout)
        k = op.kind
        if k == "verify":
            v.wrong = payload["failures"] != 0
        elif k == "coeffs":
            vals = op.args[1]
            if isinstance(vals[0], Fraction):
                v.wrong = not refs.exact_matches([Fraction(s) for s in payload["coeffs"]], ref)
            else:
                v.wrong = not refs.seq_close([float(s) for s in payload["coeffs"]], ref)
        elif k in ("eval", "near-one"):
            value = float(payload["value"])
            v.worst_rel = _rel(value, ref)
            v.wrong = not refs.close(value, ref)
            if "error_bound" in payload:
                v.bounds_checked = 1
                v.bounds_violated = int(abs(refs.mp().mpf(value) - ref) > float(payload["error_bound"]))
        elif k == "classify":
            v.wrong = ref is not None and payload["label"] != ref
        elif k == "mean":
            for key in ("series", "quadrature"):
                v.worst_rel = max(v.worst_rel, _rel(float(payload[key]), ref))
                v.wrong = v.wrong or not refs.close(float(payload[key]), ref)
        elif k == "gm-scan":
            label, g, scale = ref
            grid_g = [g[t] for t in T_GRID]
            checks = [(payload["gm_min"], min(grid_g)), (payload["gm_max"], max(grid_g))]
            checks += [(val, g[t]) for t, val in payload["near_one"]]
            v.wrong = label is not None and payload["label"] != label
            for val, r in checks:
                v.worst_rel = max(v.worst_rel, _rel(val, r))
                v.wrong = v.wrong or not refs.close(val, r, scale)
        else:
            for (_, val), r in zip(payload["q"], ref):
                v.worst_rel = max(v.worst_rel, _rel(val, r))
                v.wrong = v.wrong or not refs.close(val, r)
        return v


def get(name: str, root: str):
    """The workload called ``name``; ``root`` is the checkout holding ``src``."""
    table = {
        ExactCertify.name: ExactCertify,
        GmScan.name: GmScan,
        PointQueries.name: PointQueries,
        CliVerify.name: lambda: CliVerify(root),
    }
    return table[name]()


NAMES = (ExactCertify.name, GmScan.name, PointQueries.name, CliVerify.name)


def warm_up(name: str) -> None:
    """Entry point of the set-up probe: one call into each layer ``name`` uses."""
    get(name, os.getcwd()).warm_up()
