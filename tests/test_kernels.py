import decimal
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstoch.kernels import (
    KernelParams,
    TailBoundWarning,
    eval_g,
    eval_M,
    eval_Phi,
    eval_Z,
    partition_sum,
    tail_bound,
)

P1 = KernelParams()
EPS = float(np.finfo(float).eps)


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


def test_g_tanh_shift_identity():
    # eval_g is tanh(lam x - ln(q)/2); the oracle is the defining quotient
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = float(rng.uniform(0.1, 10.0))
        lam = float(rng.uniform(0.2, 4.0))
        x = float(rng.uniform(-30.0, 30.0))
        p = KernelParams(q=q, lam=lam)
        e_pos, e_neg = math.exp(lam * x), q * math.exp(-lam * x)
        assert float(eval_g(p, x)) == pytest.approx((e_pos - e_neg) / (e_pos + e_neg), abs=1e-14)


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


_ORACLE_PAIRS = [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (5.0, 2.0), (0.1, 8.0), (3.0, 1.5), (1.0, 0.05)]
_ORACLE_XS = np.concatenate([np.arange(-40.0, 41.0, 2.0), [0.0, 1.0, -1.0, 0.999, 1.001]])


def _M_decimal(q: float, lam: float, x: float) -> Decimal:
    # the definition (g(x+1) - g(x-1)) / 4 with the quotient form of g, carried
    # with enough digits to absorb the cancellation of the difference
    with decimal.localcontext() as ctx:
        ctx.prec = 30 + math.ceil(2.0 * lam * (abs(x) + 1.0) / math.log(10.0))
        qd, lamd, xd = Decimal(q), Decimal(lam), Decimal(x)

        def g(y):
            e_pos = (lamd * y).exp()
            e_neg = qd / e_pos
            return (e_pos - e_neg) / (e_pos + e_neg)

        return (g(xd + 1) - g(xd - 1)) / 4


@pytest.mark.parametrize("q,lam", _ORACLE_PAIRS)
def test_M_and_Phi_match_decimal_oracle(q, lam):
    # M's own conditioning in x is about 1 + 2 lam |x|
    p = KernelParams(q=q, lam=lam)
    got_m, got_phi = eval_M(p, _ORACLE_XS), eval_Phi(p, _ORACLE_XS)
    for x, m, phi in zip(_ORACLE_XS, got_m, got_phi):
        tol = 8.0 * EPS * (1.0 + 2.0 * lam * abs(x))
        ref_m = _M_decimal(q, lam, float(x))
        ref_phi = (ref_m + _M_decimal(1.0 / q, lam, float(x))) / 2
        for got, ref in ((m, ref_m), (phi, ref_phi)):
            if ref > Decimal("1e-290"):
                assert abs(Decimal(float(got)) / ref - 1) <= tol, (x, got, ref)


@pytest.mark.parametrize("lam", [400.0, 1e4])
@pytest.mark.parametrize("q", [2.0, 0.5])
def test_M_and_Phi_at_extreme_slopes_and_arguments(q, lam):
    p = KernelParams(q=q, lam=lam)
    xs = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 1e6, -1e6, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, phi = eval_M(p, xs), eval_Phi(p, xs)
    for vals in (m, phi):
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    tol = 8.0 * EPS * (1.0 + 2.0 * lam)
    assert abs(phi[0] - 0.5) <= 0.5 * tol
    assert abs(phi[3] - 0.25) <= 0.25 * tol


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


@pytest.mark.parametrize("q,lam", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (5.0, 2.0), (0.1, 8.0)])
def test_Phi_matches_mean_of_two_M_bitwise(q, lam):
    # reference form: two eval_M calls at |x|, mirrored in q
    x = np.concatenate([np.linspace(-60.0, 60.0, 20_001), [np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0]])
    xa = np.abs(x)
    p, p_inv = KernelParams(q=q, lam=lam), KernelParams(q=1.0 / q, lam=lam)
    ref = 0.5 * (eval_M(p, xa) + eval_M(p_inv, xa))
    got = eval_Phi(p, x)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


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

    return 0.5 * (m_sum(params) + m_sum(KernelParams(q=1.0 / params.q, lam=params.lam)))


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
    p = KernelParams(trunc_radius=1)
    with pytest.warns(TailBoundWarning):
        val = float(partition_sum(p, np.asarray(0.0)))
    assert val < 1.0 - 1e-3


def test_partition_warns_when_tail_too_large():
    p = KernelParams(trunc_radius=3)
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
