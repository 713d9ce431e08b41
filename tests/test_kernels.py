import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstoch.kernels import (
    KernelParams,
    LatticePoint,
    TailBoundWarning,
    eval_g,
    eval_g_prime,
    eval_M,
    eval_Phi,
    eval_Z,
    partition_sum,
    tail_bound,
)

P1 = KernelParams()


def test_params_validation():
    with pytest.raises(ValueError):
        KernelParams(q=0.0)
    with pytest.raises(ValueError):
        KernelParams(lam=-1.0)
    with pytest.raises(ValueError):
        KernelParams(trunc_radius=0)
    with pytest.raises(ValueError):
        KernelParams(q=float("inf"))
    with pytest.raises(ValueError):
        KernelParams(lam=float("inf"))
    with pytest.raises(ValueError):
        LatticePoint(())


def test_g_at_origin_and_tanh():
    assert float(eval_g(P1, 0.0)) == 0.0
    assert float(eval_g(P1, 1.0)) == pytest.approx(0.7615941559557649, abs=1e-12)


def test_g_deformed_value():
    # direct arithmetic: (e^0.5 - 2 e^-0.5) / (e^0.5 + 2 e^-0.5)
    p = KernelParams(q=2.0)
    expected = (math.exp(0.5) - 2 * math.exp(-0.5)) / (math.exp(0.5) + 2 * math.exp(-0.5))
    assert float(eval_g(p, 0.5)) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.152233, abs=1e-6)


def test_g_overflow_safe():
    assert float(eval_g(P1, 1e6)) == 1.0
    assert float(eval_g(P1, -1e6)) == -1.0
    assert np.isfinite(eval_g_prime(P1, 1e6))


def test_g_tanh_shift_identity():
    # independent closed form: g_{q,lam}(x) = tanh(lam x - ln(q)/2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = float(rng.uniform(0.1, 10.0))
        lam = float(rng.uniform(0.2, 4.0))
        x = float(rng.uniform(-30.0, 30.0))
        p = KernelParams(q=q, lam=lam)
        assert float(eval_g(p, x)) == pytest.approx(
            math.tanh(lam * x - math.log(q) / 2.0), abs=1e-14
        )


def test_g_prime_value_and_finite_difference():
    assert float(eval_g_prime(P1, 0.0)) == 1.0
    h = 1e-5
    fd = (float(eval_g(P1, 2.0 + h)) - float(eval_g(P1, 2.0 - h))) / (2 * h)
    assert float(eval_g_prime(P1, 2.0)) == pytest.approx(fd, abs=1e-8)
    assert float(eval_g_prime(KernelParams(q=3.0, lam=0.5), -1.0)) > 0


@given(
    q=st.floats(0.2, 5.0),
    lam=st.floats(0.3, 3.0),
    x=st.floats(-20.0, 20.0),
)
@settings(max_examples=200, deadline=None)
def test_oddness_pairing(q, lam, x):
    a = float(eval_g(KernelParams(q=q, lam=lam), -x))
    b = float(eval_g(KernelParams(q=1.0 / q, lam=lam), x))
    assert abs(a + b) < 1e-12


@given(q=st.floats(0.2, 5.0), lam=st.floats(0.3, 3.0))
@settings(max_examples=50, deadline=None)
def test_g_strictly_increasing(q, lam):
    # stay below tanh saturation (|lam x| ~ 18) or consecutive values tie in float64
    span = 14.0 / lam
    xs = np.linspace(-span, span, 200)
    vals = eval_g(KernelParams(q=q, lam=lam), xs)
    assert np.all(np.diff(vals) > 0)


def test_M_values_and_decay():
    assert float(eval_M(P1, 0.0)) == pytest.approx(math.tanh(1.0) / 2.0, abs=1e-15)
    assert float(eval_M(P1, 20.0)) < 1e-15
    assert float(eval_M(P1, 20.0)) > 0.0


def test_M_mirror_identity():
    # from g_{q,lam}(-x) = -g_{1/q,lam}(x)
    a = float(eval_M(KernelParams(q=2.0), 0.5))
    b = float(eval_M(KernelParams(q=0.5), -0.5))
    assert a == pytest.approx(b, rel=1e-14)


def test_Phi_evenness_bitwise_and_value():
    p = KernelParams(q=2.0)
    assert float(eval_Phi(p, 0.7)) == float(eval_Phi(p, -0.7))
    assert float(eval_Phi(P1, 0.0)) == pytest.approx(0.3807970779778824, abs=1e-12)


def test_Phi_is_mean_of_two_M():
    p = KernelParams(q=5.0, lam=2.0)
    lhs = float(eval_Phi(p, 0.0))
    rhs = 0.5 * (float(eval_M(p, 0.0)) + float(eval_M(KernelParams(q=0.2, lam=2.0), 0.0)))
    assert lhs == pytest.approx(rhs, rel=1e-14)


@given(
    q=st.floats(0.2, 5.0),
    lam=st.floats(0.3, 3.0),
    x=st.floats(-10.0, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_positivity(q, lam, x):
    p = KernelParams(q=q, lam=lam)
    assert float(eval_M(p, x)) > 0
    assert float(eval_Phi(p, x)) > 0
    assert float(eval_Z(p, np.array([x, -x / 2 if x else 1.0]))) > 0


def test_Z_product_structure():
    p = KernelParams(q=2.0)
    phi0 = float(eval_Phi(p, 0.0))
    assert float(eval_Z(p, np.zeros(2))) == pytest.approx(phi0**2, rel=1e-14)
    a, b, c = 0.3, -1.2, 0.8
    assert float(eval_Z(p, np.array([a, b, c]))) == pytest.approx(
        float(eval_Z(p, np.array([-a, b, -c]))), rel=1e-14
    )
    assert float(eval_Z(p, np.array([0.3]))) == float(eval_Phi(p, 0.3))
    with pytest.raises(ValueError):
        eval_Z(p, np.zeros(0))


def _partition_telescoped(params, x, K):
    # derived oracle: the translate sum of M telescopes in parity classes to
    # (g(x+K+1) + g(x+K) - g(x-K) - g(x-K-1)) / 4; Phi averages q and 1/q
    def m_sum(p):
        return 0.25 * (
            float(eval_g(p, x + K + 1))
            + float(eval_g(p, x + K))
            - float(eval_g(p, x - K))
            - float(eval_g(p, x - K - 1))
        )

    return 0.5 * (m_sum(params) + m_sum(params.inverse_q))


@pytest.mark.parametrize(
    "q,lam,x,K",
    [(1.0, 1.0, 0.3, 40), (2.0, 0.5, -1.7, 60), (0.5, 2.0, 2.2, 40)],
)
def test_partition_matches_telescoping_oracle(q, lam, x, K):
    p = KernelParams(q=q, lam=lam, trunc_radius=K)
    got = float(partition_sum(p, np.asarray(x)))
    assert got == pytest.approx(_partition_telescoped(p, x, K), abs=1e-13)
    assert abs(got - 1.0) < 1e-10


def test_partition_small_K_loses_mass():
    p = KernelParams(trunc_radius=1, tail_tol=1.0)
    val = float(partition_sum(p, np.asarray(0.0)))
    assert val < 1.0 - 1e-3


def test_partition_warns_when_tail_too_large():
    p = KernelParams(trunc_radius=3, tail_tol=1e-10)
    with pytest.warns(TailBoundWarning):
        partition_sum(p, np.asarray(0.5))


def test_tail_bound_dominates_actual_tail():
    for q, lam in [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)]:
        p = KernelParams(q=q, lam=lam)
        K = p.trunc_radius
        for x in (0.0, 1.9, -2.7):
            ks = np.arange(K + 1, K + 400)
            actual = float(np.sum(eval_Phi(p, x - ks)) + np.sum(eval_Phi(p, x + ks)))
            assert actual <= float(tail_bound(p, K - abs(x))) + 1e-300


def test_phi_exponential_decay_envelope():
    # C fitted once over the dev grid and frozen; decay e^{-lam(|x|-2)} is
    # far weaker than the true e^{-2 lam |x|} so the envelope is safe
    C = 1.1
    for q, lam in [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (3.0, 1.5)]:
        p = KernelParams(q=q, lam=lam)
        xs = np.linspace(3.0, 40.0, 200)
        envelope = C * (q + 1.0 / q) * np.exp(-lam * (xs - 2.0))
        assert np.all(eval_Phi(p, xs) <= envelope)
