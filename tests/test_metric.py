import math

import numpy as np
import pytest
from scipy.special import erf

from intquant.gelu import QUARTIC_ERF_COEFFS, erf_poly_eval
from intquant.metric import (INF_DB, MetricScore, MetricTable, approx_error,
                             perturbation, sample_energies, softplus, sqnr,
                             unified_score)


class TestSqnr:
    def test_worked_example_twenty_db(self):
        # signal power 1e4, noise power 100 -> 20 dB
        x = np.full(10, 100.0)
        x_hat = x - 10.0
        assert sqnr(x, x_hat) == pytest.approx(20.0, abs=0.01)

    def test_worked_example_fractional_db(self):
        # signal power 1e4, noise power 60 -> 22.21 dB
        x = np.full(10, 100.0)
        x_hat = x - math.sqrt(60.0)
        assert sqnr(x, x_hat) == pytest.approx(22.21, abs=0.01)

    def test_exact_reconstruction_sentinel(self):
        x = np.arange(5.0)
        assert sqnr(x, x.copy()) == INF_DB

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sqnr(np.zeros(3), np.zeros(4))


class TestPerturbation:
    def test_zero_for_identical(self):
        x = np.arange(6.0)
        assert perturbation(x, x.copy()) == 0.0

    def test_hand_value(self):
        assert perturbation(np.array([3.0, 4.0]), np.zeros(2)) == 25.0

    @pytest.mark.parametrize("shape", [(37,), (16, 10), (6, 4, 33, 33)])
    def test_sum_of_the_sample_energies_bit_for_bit(self, shape):
        # stage 1 sums its per-sample energies, so it gets perturbation's bits
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=shape), rng.normal(size=shape)
        energies = sample_energies(x, y)
        assert energies.shape == shape[:1]
        assert perturbation(x, y) == float(np.sum(energies))
        for i in (0, shape[0] - 1):
            assert energies[i] == np.sum((x[i] - y[i]) ** 2)
            assert sample_energies(x[i:i + 1], y[i:i + 1])[0] == energies[i]

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=20), rng.normal(size=20)
        for k in (0.5, 2.0, 7.0):
            assert perturbation(k * x, k * y) == pytest.approx(
                k * k * perturbation(x, y), rel=1e-12)


class TestSoftplus:
    def test_at_zero(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_upper_asymptote(self):
        assert softplus(50.0) == pytest.approx(50.0, abs=1e-9)

    def test_lower_asymptote(self):
        assert softplus(-50.0) == pytest.approx(math.exp(-50.0), rel=1e-6)

    def test_always_positive(self):
        for x in (-700.0, -10.0, 0.0, 10.0, 700.0):
            assert softplus(x) > 0.0


class TestUnifiedScore:
    def test_hand_value_at_origin(self):
        # 3 / (1/ln2 + ln2 + ln2)
        want = 3.0 / (1.0 / math.log(2) + 2 * math.log(2))
        assert unified_score(0.0, 0.0, 0.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(1.06045, abs=1e-4)

    def test_perfect_reconstruction_limit(self):
        got = unified_score(INF_DB, 1.0, 2.0)
        assert got == pytest.approx(3.0 / (softplus(1.0) + softplus(2.0)), abs=1e-12)

    def test_monotone_in_sensitivity(self):
        assert unified_score(22.21, 5.0, 100) > unified_score(20.0, 5.0, 100)

    def test_monotone_in_perturbation_and_cost(self):
        assert unified_score(20.0, 1.0, 100) > unified_score(20.0, 2.0, 100)
        assert unified_score(20.0, 1.0, 100) > unified_score(20.0, 1.0, 200)

    def test_dominance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            q1, q2 = sorted(rng.uniform(-10, 40, size=2))
            p1, p2 = sorted(rng.uniform(0, 50, size=2))
            c1, c2 = sorted(rng.integers(1, 10 ** 6, size=2))
            better = unified_score(q2, p1, c1)
            worse = unified_score(q1, p2, c2)
            assert better >= worse

    def test_bounded_by_sensitivity_term(self):
        q, p, c = 13.0, 2.5, 1000
        assert unified_score(q, p, c) <= 3.0 * softplus(q)


class TestApproxError:
    def test_identical_functions(self):
        assert approx_error(np.sin, np.sin, (-1, 1)) == (0.0, 0.0)

    def test_constant_offset(self):
        l2, linf = approx_error(lambda x: x, lambda x: x + 0.1, (0, 5))
        assert l2 == pytest.approx(0.1, abs=1e-12)
        assert linf == pytest.approx(0.1, abs=1e-12)

    def test_symmetry_and_negation_invariance(self):
        f, g = np.sin, np.cos
        assert approx_error(f, g, (-2, 2)) == approx_error(g, f, (-2, 2))
        neg = approx_error(lambda x: -f(x), lambda x: -g(x), (-2, 2))
        a = approx_error(f, g, (-2, 2))
        assert neg == pytest.approx(a)

    def test_quartic_erf_table_values(self):
        l2, linf = approx_error(erf, lambda x: erf_poly_eval(x, QUARTIC_ERF_COEFFS),
                                (-3.0, 3.0))
        assert l2 == pytest.approx(0.0098, rel=0.15)
        assert linf == pytest.approx(0.0550, abs=0.0005)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            approx_error(np.sin, np.cos, (1, 1))


class TestMetricTable:
    def test_csv_round_shape(self, tmp_path):
        t = MetricTable()
        t.add("layer0", "softmax", "a", MetricScore(10.0, 1.0, 100, 0.5))
        t.add("layer0", "softmax", "b", MetricScore(INF_DB, 0.0, 50, 0.9))
        path = tmp_path / "m.csv"
        t.write_csv(path, {"layer0": "b"})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "layer_id,kind,candidate,q_db,p,c,score,chosen"
        assert len(lines) == 3
        assert lines[2].startswith("layer0,softmax,b,inf,") and lines[2].endswith(",1")
