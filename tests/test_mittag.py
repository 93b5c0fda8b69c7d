import math
import os
import signal
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import erfc, erfcx, rgamma

from conftest import ml_series_reference
from isofokker import evolve, mittag
from isofokker.evolve import TemporalRule
from isofokker.mittag import mittag_leffler, ml_relaxation


def _asymptotic_tail(alpha: float, x: float, max_terms: int = 60) -> tuple[float, float]:
    """Optimally truncated tail sum of E_alpha(-x); returns (value, size of smallest kept term)."""
    total = 0.0
    last = math.inf
    smallest = math.inf
    for m in range(1, max_terms + 1):
        term = (-1.0) ** (m + 1) * x ** (-m) * rgamma(1.0 - alpha * m)
        mag = abs(term)
        if mag == 0.0:  # exact zero at a Gamma pole, not the divergence floor
            continue
        if mag >= last:
            break
        total += term
        last = mag
        smallest = mag
    return total, smallest


def _spectral_reference(alpha: float, x: float) -> float:
    """E_alpha(-x) for 0 < alpha < 1 by mpmath quadrature of its real-line representation.

    E_alpha(-x) = sin(alpha pi) / (alpha pi x) int_0^inf e^(-v^(1/alpha)) / Q(v/x) dv
    with Q(w) = w^2 + 2 cos(alpha pi) w + 1 (Gorenflo, Loutchko & Luchko 2002,
    with u = v^(1/alpha)).  The interval is split at the minimum of Q.
    """
    with mpmath.workdps(30):
        a, x = mpmath.mpf(alpha), mpmath.mpf(x)
        c = mpmath.cos(mpmath.pi * a)

        def f(v):
            w = v / x
            return mpmath.exp(-(v ** (1 / a))) / (w * w + 2 * c * w + 1)

        split = -c * x if c < 0 else mpmath.mpf(1)
        integral = mpmath.quad(f, [0, split, mpmath.inf])
        return float(mpmath.sin(mpmath.pi * a) / (a * mpmath.pi * x) * integral)


@pytest.fixture
def deadline():
    """Fail the test, rather than hang, if a call runs past the given seconds."""

    def on_alarm(signum, frame):
        raise TimeoutError("evaluation ran past its deadline")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


class TestMittagLeffler:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.999, 1.0])
    def test_value_at_zero(self, alpha):
        assert mittag_leffler(alpha, 0.0) == 1.0

    def test_classical_limit_is_exponential(self):
        assert abs(mittag_leffler(1.0, -1.0) - math.exp(-1.0)) < 1e-10
        assert abs(mittag_leffler(1.0, -1.0) - 0.36787944117144233) < 1e-10
        for z in (-0.3, -5.0, -40.0):
            assert mittag_leffler(1.0, z) == pytest.approx(math.exp(z), rel=1e-12)

    def test_one_half_erfc_identity(self):
        # E_{1/2}(-x) = e^{x^2} erfc(x)
        assert abs(mittag_leffler(0.5, -1.0) - math.e * erfc(1.0)) < 1e-8
        assert abs(mittag_leffler(0.5, -1.0) - 0.4275835761558070) < 1e-8
        for x in (0.25, 2.0, 3.0, 7.0, 20.0):
            ref = math.exp(x * x) * erfc(x)
            assert mittag_leffler(0.5, -x) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.5, 0.8, 0.9])
    def test_branch_overlap_window(self, alpha):
        # z in [-6, -4] straddles |z| = 5, where the series and quadrature
        # branches of the earlier evaluator met; the arbitrary-precision
        # series is an independent reference
        for z in np.linspace(-6.0, -4.0, 11):
            assert abs(mittag_leffler(alpha, z) - ml_series_reference(alpha, z)) <= 1e-9

    def test_integral_matches_asymptotic_far_out(self):
        for alpha in (0.25, 0.5, 0.75):
            val = mittag_leffler(alpha, -200.0)
            tail, smallest = _asymptotic_tail(alpha, 200.0)
            assert abs(val - tail) <= max(1e-12, 10.0 * smallest)

    def test_deep_cancellation_series(self):
        # the power series loses ~15 digits here in float64; the contour
        # integral has no such cancellation
        assert mittag_leffler(0.5, -6.0) == pytest.approx(math.exp(36.0) * erfc(6.0), rel=1e-12)

    def test_positive_argument_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            mittag_leffler(0.5, 0.1)
        with pytest.raises(ValueError, match="non-positive"):
            mittag_leffler(0.5, [-1.0, 0.1])
        with pytest.raises(ValueError, match="non-positive"):
            mittag_leffler(0.5, math.nan)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            mittag_leffler(alpha, -1.0)

    def test_array_matches_scalar_calls(self):
        zs = -np.logspace(-2, 3, 7).reshape(7, 1) * np.ones((1, 2))
        vals = mittag_leffler(0.6, zs)
        assert vals.shape == zs.shape
        assert isinstance(mittag_leffler(0.6, -1.0), float)
        for z, v in zip(zs.ravel(), vals.ravel()):
            assert v == pytest.approx(mittag_leffler(0.6, float(z)), abs=1e-14)


class TestRangeRegressions:
    """Points of the documented range where the earlier evaluator raised, crawled or hung."""

    @pytest.mark.parametrize(
        "alpha, z",
        [
            (0.1, -3.0),  # raised ValueError (series precision cap)
            (0.1, -2.0),  # took ~54 s in an arbitrary-precision series
            (0.95, -700.0),  # ran for ~18 s in the series branch
            (0.8355, -5.598),  # false ArithmeticError from the asymptotic cross-check
        ],
    )
    def test_fast_and_accurate(self, alpha, z, deadline):
        deadline(1.0)
        value = mittag_leffler(alpha, z)
        deadline(0)
        assert abs(value - _spectral_reference(alpha, -z)) <= 1e-10

    def test_sweep_against_references(self):
        # alpha in [0.05, 1], z in [-1e4, 0]: the 1e-10 contract against
        # exp, erfcx and the series, and complete monotonicity (values in
        # [0, 1], never increasing with |z|)
        xs = np.concatenate([[0.0], np.logspace(-3, 4, 141)])
        for alpha in [round(0.05 * k, 2) for k in range(1, 21)]:
            vals = mittag_leffler(alpha, -xs)
            assert np.all((vals >= 0.0) & (vals <= 1.0)), alpha
            assert np.all(np.diff(vals) <= 0.0), alpha
            if alpha == 1.0:
                assert np.max(np.abs(vals - np.exp(-xs))) <= 1e-10
            if alpha == 0.5:
                assert np.max(np.abs(vals - erfcx(xs))) <= 1e-10
            for x in (0.01, 0.3, 1.0, 2.5, 6.0, 15.0):
                if x ** (1.0 / alpha) <= 40.0:
                    err = abs(mittag_leffler(alpha, -x) - ml_series_reference(alpha, -x))
                    assert err <= 1e-10, (alpha, x)

    def test_spectral_reference_far_out(self):
        for alpha, x in ((0.05, 1e4), (0.3, 50.0), (0.7, 1e3), (0.999, 5.0)):
            assert abs(mittag_leffler(alpha, -x) - _spectral_reference(alpha, x)) <= 1e-10

    def test_guard_rejects_a_coarse_rule(self, coarse_ml_rule):
        with pytest.raises(ArithmeticError, match="differ"):
            mittag_leffler(0.5, -1.0)


class TestMlRelaxation:
    def test_zero_rate_never_decays(self):
        for t in (0.0, 1.0, 1e3):
            assert ml_relaxation(0.5, 0.0, t) == 1.0

    def test_starts_at_one(self):
        assert ml_relaxation(0.7, 3.0, 0.0) == 1.0

    def test_classical_limit(self):
        assert abs(ml_relaxation(1.0, 2.0, 1.0) - math.exp(-2.0)) < 1e-10

    def test_erfc_identity_at_t4(self):
        # alpha = 1/2, eps = 1, t = 4: E_{1/2}(-2) = e^4 erfc(2)
        assert ml_relaxation(0.5, 1.0, 4.0) == pytest.approx(math.exp(4.0) * erfc(2.0), abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_complete_monotonicity_surrogate(self, alpha):
        ts = np.logspace(-3, 3, 61)
        vals = [ml_relaxation(alpha, 1.0, t) for t in ts]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", [0.5, 0.75])
    def test_heavy_tail(self, alpha):
        # T(t) t^alpha -> 1/Gamma(1-alpha); algebraic, not exponential
        T = ml_relaxation(alpha, 1.0, 1e3)
        limit = 1.0 / math.gamma(1.0 - alpha)
        assert abs(T * 1e3**alpha - limit) <= 0.02 * limit

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            ml_relaxation(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            ml_relaxation(0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            ml_relaxation(0.5, [1.0, -1.0], 1.0)
        with pytest.raises(ValueError, match="finite"):
            ml_relaxation(0.5, [0.0, 1.0], math.inf)

    def test_broadcasts_over_rates_and_times(self):
        eps = np.array([0.0, 0.5, 2.0])
        ts = np.array([0.0, 0.3, 4.0])
        table = ml_relaxation(0.4, eps[:, None], ts[None, :])
        for i, e in enumerate(eps):
            for j, t in enumerate(ts):
                assert table[i, j] == pytest.approx(ml_relaxation(0.4, float(e), float(t)), abs=1e-14)
        assert np.all(table[0] == 1.0) and np.all(table[:, 0] == 1.0)


def test_import_does_not_load_mpmath():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, isofokker; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _two_pass(alpha: float, x: np.ndarray) -> np.ndarray:
    """E_alpha(-x) with each contour rule evaluated on its own, s^alpha recomputed per rule.

    The evaluator before the rules shared one reciprocal: the fused
    evaluation must give these bytes and raise where this guard does.
    """

    def contour_sum(rule):
        s, w = rule
        sa = s**alpha
        return np.imag((1.0 / (sa + x[..., None])) @ (w * sa / s))

    value = contour_sum(mittag._RULE)
    gap = float(np.max(np.abs(value - contour_sum(mittag._GUARD_RULE)), initial=0.0))
    if not gap <= mittag.GUARD_TOL:
        raise ArithmeticError(f"guard gap {gap:.3g}")
    return np.where(x == 0.0, 1.0, value)


_FUSED_XS = [
    np.array(0.0),
    np.array(2.5),
    np.concatenate([[0.0], np.logspace(-3, 3, 7)]),
    np.concatenate([[0.0], np.logspace(-3, 4, 23)]).reshape(3, 8),
]


class TestFusedRules:
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25, 0.4, 0.5, 0.55, 0.7, 0.75, 0.9, 0.95, 0.3183])
    def test_bytes_equal_two_separate_rules(self, alpha):
        # a Python float and a numpy order, in both orders of first use:
        # numpy takes s**0.5 as a square root for the Python float only
        for order in ((alpha, np.float64(alpha)), (np.float64(alpha), alpha)):
            mittag._ORDER_NODES.clear()
            for a in order:
                for x in _FUSED_XS:
                    value = np.asarray(mittag_leffler(a, -x))
                    assert value.shape == x.shape
                    assert value.tobytes() == _two_pass(a, x).tobytes(), (type(a), x.shape)

    @pytest.mark.parametrize("rules", [(32, 20), (32, 22), (26, 22)])
    def test_guard_raises_where_two_passes_do(self, monkeypatch, rules):
        # rules coarse enough that the guard passes at some points and fails at others
        monkeypatch.setattr(mittag, "_RULE", mittag._half_rule(rules[0]))
        monkeypatch.setattr(mittag, "_GUARD_RULE", mittag._half_rule(rules[1]))
        outcomes = set()
        for alpha in (0.3, 0.5, 0.8, 0.95):
            for x in [*_FUSED_XS, *np.logspace(-3, 1, 9)]:
                x = np.asarray(x)
                try:
                    expected = _two_pass(alpha, x)
                except ArithmeticError:
                    outcomes.add("raised")
                    with pytest.raises(ArithmeticError, match="differ"):
                        mittag_leffler(alpha, -x)
                else:
                    outcomes.add("passed")
                    assert np.asarray(mittag_leffler(alpha, -x)).tobytes() == expected.tobytes()
        assert outcomes == {"raised", "passed"}

    def test_guard_rejects_a_coarse_rule_after_a_warm_call(self, request):
        # the nodes kept for alpha = 0.5 from the fine rules must not outlive the swap
        assert mittag_leffler(0.5, -1.0) == pytest.approx(math.e * erfc(1.0), abs=1e-10)
        request.getfixturevalue("coarse_ml_rule")
        with pytest.raises(ArithmeticError, match="differ"):
            mittag_leffler(0.5, -1.0)

    def test_fine_rules_return_after_a_coarse_swap(self, monkeypatch):
        monkeypatch.setattr(mittag, "_RULE", mittag._half_rule(8))
        monkeypatch.setattr(mittag, "_GUARD_RULE", mittag._half_rule(6))
        with pytest.raises(ArithmeticError):
            mittag_leffler(0.5, -1.0)
        monkeypatch.undo()
        assert mittag_leffler(0.5, -1.0) == pytest.approx(math.e * erfc(1.0), abs=1e-10)

    def test_kept_orders_stay_bounded(self):
        x = np.array([0.0, 0.5, 4.0])
        for alpha in np.linspace(0.05, 0.95, 200):
            assert np.asarray(mittag_leffler(alpha, -x)).tobytes() == _two_pass(alpha, x).tobytes()
        assert len(mittag._ORDER_NODES) <= mittag.ORDER_NODES_KEPT
        # an order evicted long ago is rebuilt to the same bytes
        assert np.asarray(mittag_leffler(0.05, -x)).tobytes() == _two_pass(0.05, x).tobytes()


_BAD = [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-1.0, "-1.0")]


class TestInputMessages:
    """The messages name the first offending entry, for a scalar and an array alike."""

    @pytest.mark.parametrize("bad, shown", _BAD)
    @pytest.mark.parametrize("as_array", [False, True])
    def test_ml_relaxation_rate(self, bad, shown, as_array):
        eps = [0.0, 2.0, bad, -2.0, math.nan] if as_array else bad
        with pytest.raises(ValueError, match=f"^relaxation rate must be finite and non-negative, got {shown}$"):
            ml_relaxation(0.5, eps, 1.0)

    @pytest.mark.parametrize("bad, shown", _BAD)
    @pytest.mark.parametrize("as_array", [False, True])
    def test_ml_relaxation_time(self, bad, shown, as_array):
        t = [0.0, 2.0, bad, -2.0, math.nan] if as_array else bad
        with pytest.raises(ValueError, match=f"^time must be finite and non-negative, got {shown}$"):
            ml_relaxation(0.5, [0.0, 1.0], np.asarray(t)[:, None] if as_array else t)

    def test_ml_relaxation_rate_checked_before_time(self):
        with pytest.raises(ValueError, match="^relaxation rate .* got -1.0$"):
            ml_relaxation(0.5, -1.0, math.nan)

    @pytest.mark.parametrize("bad, shown", _BAD[:3])
    @pytest.mark.parametrize("alpha", [None, 0.5])
    def test_factors_non_finite_rate(self, bad, shown, alpha):
        with pytest.raises(ValueError, match=f"^relaxation rate must be finite, got {shown}$"):
            TemporalRule(alpha).factors([0.0, -1.0, bad, math.nan], 1.0)

    @pytest.mark.parametrize("alpha", [None, 0.5])
    def test_factors_negative_rate(self, alpha):
        with pytest.raises(ValueError, match=r"^negative relaxation rate -0.5$"):
            TemporalRule(alpha).factors([0.0, -1e-9, -0.5, 1.0], 1.0)
        assert TemporalRule(alpha).factors([-1e-9, 1.0], 0.0).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("bad, shown", _BAD)
    @pytest.mark.parametrize("t_shape", [(), (3, 1)])
    def test_factors_time(self, bad, shown, t_shape):
        t = np.array([0.5, bad, math.nan]).reshape(t_shape) if t_shape else bad
        rules = [TemporalRule(0.5)] + ([TemporalRule()] if not t_shape else [])
        for rule in rules:
            with pytest.raises(ValueError, match=f"^time must be finite and non-negative, got {shown}$"):
                rule.factors([0.0, 1.0], t)

    def test_factors_reach_ml_relaxation_through_evolve(self, monkeypatch):
        calls = []

        def spy(alpha, eps, t):
            calls.append((alpha, eps.tolist(), t))
            return ml_relaxation(alpha, eps, t)

        monkeypatch.setattr(evolve, "ml_relaxation", spy)
        TemporalRule(0.5).factors([0.0, 1.0], 2.0)
        assert calls == [(0.5, [0.0, 1.0], 2.0)]
