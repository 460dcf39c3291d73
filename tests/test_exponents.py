"""Exponent algebra: frozen worked examples plus randomized identities."""

from __future__ import annotations

from dataclasses import astuple, fields

import numpy as np
import pytest

from vhjlab.exponents import (
    DerivedConstants,
    ExponentOutOfRange,
    NonIntegerDimension,
    Regime,
    RegimeMismatch,
    classify_regime,
    derive_constants,
    validate_params,
)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- validation

def test_validate_accepts_basic_triple():
    prm = validate_params(1, 2.0, 0.5)
    assert prm.N == 1 and prm.p == 2.0 and prm.q == 0.5
    assert prm.p_crit == 1.0


def test_validate_rejects_subcritical_p():
    with pytest.raises(ExponentOutOfRange, match="p_c"):
        validate_params(2, 1.2, 0.1)  # p_c = 4/3


def test_validate_rejects_noninteger_dimension():
    with pytest.raises(NonIntegerDimension):
        validate_params(1.5, 2.0, 0.5)


def test_validate_rejects_bad_exponents():
    with pytest.raises(ExponentOutOfRange):
        validate_params(1, 2.3, 0.5)
    with pytest.raises(ExponentOutOfRange):
        validate_params(1, 2.0, -0.1)
    with pytest.raises(ExponentOutOfRange):
        validate_params(1, 1.0, 0.5)
    # a subnormal q overflowed the self-similar table; the least normal
    # float is an exponent
    for q in (5e-324, 2.225073858507201e-308):
        with pytest.raises(ExponentOutOfRange, match=rf"got subnormal q = {q}$"):
            validate_params(2, 1.99, q)
    assert validate_params(2, 1.99, 2.2250738585072014e-308).q == 2.2250738585072014e-308


# ------------------------------------------------------------ classification

def test_regime_examples():
    assert classify_regime(1, 2.0, 0.5) is Regime.SINGLE_POINT
    assert classify_regime(2, 1.8, 0.6) is Regime.SINGLE_POINT
    assert classify_regime(2, 1.8, 0.85) is Regime.COMPLETE_EXTINCTION
    assert classify_regime(2, 1.8, 0.95) is Regime.NO_EXTINCTION
    assert classify_regime(1, 2.0, 1.1) is Regime.NO_EXTINCTION
    assert classify_regime(2, 1.2, 0.1) is Regime.OUT_OF_SCOPE


def test_regime_of_a_non_numeric_triple_follows_validate_params():
    # validate_params reads numeric strings, so classify_regime does too
    assert classify_regime(1, "2.0", 0.5) is Regime.SINGLE_POINT
    for N, p, q in ((None, 2.0, 0.5), (1, "two", 0.5), (1, 2.0, [0.5])):
        with pytest.raises((TypeError, ValueError)):
            validate_params(N, p, q)
        assert classify_regime(N, p, q) is Regime.OUT_OF_SCOPE


def test_regime_partition_is_exhaustive_and_exclusive():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        N = int(rng.integers(1, 5))
        p = float(rng.uniform(1.0 + 1e-6, 2.0))
        q = float(rng.uniform(1e-6, 2.0))
        tags = []
        p_c = 2 * N / (N + 1)
        if p <= p_c:
            tags.append(Regime.OUT_OF_SCOPE)
        else:
            if 0 < q < p - 1:
                tags.append(Regime.SINGLE_POINT)
            if p - 1 <= q < p / 2:
                tags.append(Regime.COMPLETE_EXTINCTION)
            if q >= p / 2:
                tags.append(Regime.NO_EXTINCTION)
        assert len(tags) == 1
        assert classify_regime(N, p, q) is tags[0]


def test_complete_extinction_window_empty_at_p2():
    # [p-1, p/2) collapses at p = 2: everything above q = 1 never goes extinct
    for q in (0.999, 1.0, 1.3):
        assert classify_regime(3, 2.0, q) is not Regime.COMPLETE_EXTINCTION


# ---------------------------------------------------------- worked examples

def test_constants_N1_p2_q05():
    c = derive_constants(validate_params(1, 2.0, 0.5))
    assert close(c.p_crit, 1.0)
    assert close(c.kappa, 1.0 / 12.0)
    assert close(c.omega, 3.0)
    assert close(c.sigma, 2.0 / 3.0)
    assert close(c.nu, 1.0 / 6.0)
    assert close(c.alpha_ss, 1.5)
    assert close(c.beta_ss, -0.5)
    assert close(c.gamma_sigma, 3.0)
    assert close(c.alpha1, 1.0 / 3.0)
    assert close(c.alpha2, 1.0)
    assert close(c.theta_sub, 2.0)
    assert close(c.gamma_sub, 0.5)
    assert close(c.b0_sub, 1.0)
    assert close(c.gamma_super, 0.5)
    assert close(c.decay_threshold, 1.0)
    assert close(c.rate_lower, 2.0)
    assert close(c.rate_upper_p2, 1.5)
    assert close(c.lambda_j, 2.0)
    assert close(c.beta_j, 2.0 / 3.0)


def test_constants_N2_p18_q06():
    c = derive_constants(validate_params(2, 1.8, 0.6))
    assert close(c.kappa, (1.0 / 6.0) * 5.0 ** -5)
    assert close(c.omega, 6.0)
    assert close(c.sigma, 5.0 / 12.0)
    assert close(c.nu, 0.05)
    assert close(c.alpha_ss, 2.0)
    assert close(c.beta_ss, -1.0 / 3.0)
    assert close(c.alpha1, 0.25)
    assert close(c.alpha2, 3.0 / 7.0)
    assert close(c.theta_sub, 2.25)
    assert close(c.gamma_sub, 2.0 / 3.0)
    assert close(c.b0_sub, (0.8 * 1.5 ** 0.6) ** -3.75)
    assert close(c.gamma_super, 0.75)
    assert close(c.decay_threshold, 1.5)
    assert close(c.rate_lower, 2.5)
    assert c.rate_upper_p2 is None  # improved upper rate exists only at p = 2
    assert close(c.lambda_j, 5.0)
    assert close(c.beta_j, 2.0 / 3.0)


def test_constants_complete_extinction_partial():
    c = derive_constants(validate_params(2, 1.8, 0.85))
    assert close(c.p_crit, 4.0 / 3.0)
    assert close(c.decay_threshold, 0.85 / 0.15)
    assert close(c.alpha_ss, 9.5)
    assert close(c.beta_ss, 0.5)
    for name in ("kappa", "omega", "sigma", "nu", "alpha1", "alpha2",
                 "theta_sub", "gamma_sub", "b0_sub", "gamma_super",
                 "rate_lower", "rate_upper_p2", "lambda_j", "beta_j"):
        assert getattr(c, name) is None, name


# derive_constants as float.hex, in DerivedConstants' field order, written
# down from the implementation that listed every field twice; trailing
# fields left out are None.  Six single-point triples (two at p = 2, where
# rate_upper_p2 exists) and three complete-extinction ones
_PINNED_CONSTANTS = {
    (1, 2.0, 0.5): (
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.8000000000000p+0',
        '-0x1.0000000000000p-1', '0x1.5555555555555p-4', '0x1.8000000000000p+1',
        '0x1.5555555555555p-1', '0x1.5555555555555p-3', '0x1.8000000000000p+1',
        '0x1.5555555555555p-2', '0x1.0000000000000p+0', '0x1.0000000000000p+1',
        '0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x1.0000000000000p-1',
        '0x1.0000000000000p+1', '0x1.8000000000000p+0', '0x1.0000000000000p+1',
        '0x1.5555555555555p-1',
    ),
    (2, 1.8, 0.6): (
        '0x1.5555555555555p+0', '0x1.7ffffffffffffp+0', '0x1.0000000000000p+1',
        '-0x1.555555555555ap-2', '0x1.bf647612f36b5p-15', '0x1.7ffffffffffffp+2',
        '0x1.aaaaaaaaaaab0p-2', '0x1.99999999999a5p-5', '0x1.7ffffffffffffp+2',
        '0x1.0000000000000p-2', '0x1.b6db6db6db6dcp-2', '0x1.2000000000000p+1',
        '0x1.5555555555554p-1', '0x1.dac36a4772a21p-1', '0x1.7ffffffffffffp-1',
        '0x1.4000000000000p+1', None, '0x1.3ffffffffffffp+2', '0x1.5555555555555p-1',
    ),
    (3, 1.9, 0.3): (
        '0x1.8000000000000p+0', '0x1.b6db6db6db6dcp-2', '0x1.3b13b13b13b14p+0',
        '-0x1.d89d89d89d89dp-2', '0x1.7cc046689eda6p-5', '0x1.5555555555556p+1',
        '0x1.1249249249249p-1', '0x1.50bd0bd0bd0bbp-3', '0x1.5555555555556p+1',
        '0x1.4924924924924p-3', '0x1.6276276276276p-2', '0x1.0e38e38e38e39p+1',
        '0x1.9fc267f099fc2p-3', '0x1.1ef263e7fd759p-1', '0x1.b6db6db6db6dcp-3',
        '0x1.6db6db6db6db7p+0', None, '0x1.c000000000000p+1', '0x1.2000000000000p-1',
    ),
    (1, 1.5, 0.2): (
        '0x1.0000000000000p+0', '0x1.0000000000000p-2', '0x1.2e8ba2e8ba2e8p+0',
        '-0x1.1745d1745d175p-2', '0x1.58683372a4ee9p-5', '0x1.1555555555556p+2',
        '0x1.2762762762763p-2', '0x1.82af70c880e53p-5', '0x1.1555555555556p+2',
        '0x1.d89d89d89d89dp-5', '0x1.4c1bacf914c1bp-4', '0x1.8000000000000p+1',
        '0x1.5555555555555p-4', '0x1.c6bf526340003p-5', '0x1.0000000000000p-3',
        '0x1.4000000000000p+0', None, '0x1.aaaaaaaaaaaabp+0', '0x1.89d89d89d89d8p-2',
    ),
    (2, 2.0, 0.05): (
        '0x1.5555555555555p+0', '0x1.af286bca1af29p-5', '0x1.06bca1af286bdp+0',
        '-0x1.0000000000000p-1', '0x1.d406cdff41c0cp-3', '0x1.06bca1af286bdp+1',
        '0x1.0690690690691p-1', '0x1.f2df2df2df2e0p-3', '0x1.06bca1af286bdp+1',
        '0x1.a41a41a41a41bp-6', '0x1.af286bca1af29p-5', '0x1.0000000000000p+1',
        '0x1.af286bca1af29p-6', '0x1.5f225427ef88fp-29', '0x1.af286bca1af29p-6',
        '0x1.0d79435e50d79p+0', '0x1.06bca1af286bdp+0', '0x1.06bca1af286bdp+1',
        '0x1.0690690690691p-1',
    ),
    (1, 1.2, 0.15): (
        '0x1.0000000000000p+0', '0x1.6969696969697p-3', '0x1.2aaaaaaaaaaabp+0',
        '-0x1.c71c71c71c724p-5', '0x1.8618618618531p-45', '0x1.5000000000005p+4',
        '0x1.caef81caef824p-5', '0x1.a01a01a01a027p-10', '0x1.5000000000005p+4',
        '0x1.135c81135c80dp-7', '0x1.23b4091da048ap-7', '0x1.8000000000001p+2',
        '0x1.e1e1e1e1e1e1cp-6', '0x1.504d3b1957b38p-16', '0x1.6969696969697p-4',
        '0x1.2d2d2d2d2d2d3p+0', None, '0x1.0000000000002p+2', '0x1.8618618618617p-3',
    ),
    (2, 1.8, 0.85): (
        '0x1.5555555555555p+0', '0x1.6aaaaaaaaaaaap+2', '0x1.2fffffffffffcp+3',
        '0x1.fffffffffffecp-2',
    ),
    (1, 1.6, 0.7): (
        '0x1.0000000000000p+0', '0x1.2aaaaaaaaaaaap+1', '0x1.1fffffffffffcp+2',
        '0x1.fffffffffffecp-2',
    ),
    (3, 1.8, 0.85): (
        '0x1.8000000000000p+0', '0x1.6aaaaaaaaaaaap+2', '0x1.2fffffffffffcp+3',
        '0x1.fffffffffffecp-2',
    ),
}


@pytest.mark.parametrize("triple", list(_PINNED_CONSTANTS), ids=str)
def test_derived_constants_are_pinned_to_the_bit(triple):
    pinned = _PINNED_CONSTANTS[triple]
    pinned += (None,) * (len(fields(DerivedConstants)) - len(pinned))
    got = astuple(derive_constants(validate_params(*triple)))
    for f, want, value in zip(fields(DerivedConstants), pinned, got):
        assert (None if value is None else value.hex()) == want, f.name


def test_constants_refused_outside_extinction_regimes():
    with pytest.raises(RegimeMismatch):
        derive_constants(validate_params(1, 2.0, 1.2))


# ------------------------------------------------------- randomized algebra

def sample_single_point(rng, n):
    """n random validated triples in the single-point regime, away from corners."""
    out = []
    while len(out) < n:
        N = int(rng.integers(1, 5))
        p_c = 2 * N / (N + 1)
        p = float(rng.uniform(p_c + 0.05, 2.0))
        if p - 1.0 < 0.04:
            continue
        q = float(rng.uniform(0.01, p - 1.0 - 0.01))
        out.append(validate_params(N, p, q))
    return out


def test_exponent_identities_random():
    """The identities that glue the exponent family together, 1e4 triples."""
    rng = np.random.default_rng(20240817)
    for prm in sample_single_point(rng, 10_000):
        c = derive_constants(prm)
        q, p = prm.q, prm.p
        assert c.kappa > 0
        assert c.omega > 2.0
        assert c.sigma > c.nu > 0
        assert close(c.gamma_sigma, c.omega)
        assert close(c.omega * c.alpha1, q / (1 - q))
        assert close(c.omega * c.alpha1, c.decay_threshold)
        assert c.alpha1 < c.alpha2 <= 1.0
        assert c.beta_ss < 0 < c.alpha_ss
        # self-similar scaling relations
        s = c.alpha_ss + c.beta_ss
        assert close(c.alpha_ss - 1.0, q * s)
        assert close(c.alpha_ss - 1.0, (p - 1.0) * s + c.beta_ss)
        # rate bracket is ordered, and collapses as q -> p-1
        if p == 2.0:
            assert c.rate_upper_p2 <= c.rate_lower
