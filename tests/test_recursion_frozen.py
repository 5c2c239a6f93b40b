"""Frozen outputs of the 3-majority recursions.

A sha256 over the float and mpf series of a, pi and b, the volatility ratio
and the cutoff diagnostic.  The grid crosses the linear -> log switch in
epsilon and alpha modes at t = 0, 0.5 and infinity, starts below the switch
threshold, and runs past the float range at depth 1100.  Floats are hashed
through repr (exact round trip) and mpfs through their binary mantissa and
exponent, so any change in the last bit of any value changes the digest.
"""

import hashlib
import math

import mpmath as mp
import pytest

from boolvol import analysis as ana
from boolvol.errors import PrecisionExhausted

FROZEN_SHA256 = "ce0829bcd9144f495f9f0ebdd4fe110803269a93ed54a8daa2a19f7b284cb94f"


def _atom(v):
    if isinstance(v, mp.mpf):
        return "mpf%r" % (v._mpf_,)
    return repr(v)


def _series(s):
    info = sorted((k, _atom(v)) for k, v in s.info.items())
    return [[_atom(v) for v in s.values], list(s.modes), s.precision, info]


def _cases():
    out = []
    for p0 in (0.0, 1e-300, 1e-100, 0.3, 0.4, 0.5 - 1e-9, 0.5, 0.7, 1.0):
        out.append(("a", p0, _series(ana.maj3_a_seq(p0, 40))))
    out.append(("a", 0.4, _series(ana.maj3_a_seq(0.4, 1100))))
    out.append(("a-mpf", 0.4, _series(ana.maj3_a_seq(0.4, 1000, digits=30))))
    out.append(("a-mpf", 0.3, _series(ana.maj3_a_seq(0.3, 20, digits=60))))

    for eps in (0.0, 1e-300, 1e-20, 0.01, 0.25, 0.5):
        out.append(("pi", eps, _series(ana.maj3_pi_seq(eps, 60))))
    out.append(("pi", 1e-300, _series(ana.maj3_pi_seq(1e-300, 1000))))
    out.append(("pi-mpf", 0.01, _series(ana.maj3_pi_seq(0.01, 100, digits=30))))

    params = []
    for t in (0.0, 0.5, math.inf):
        for eps in (0.0, 1e-12, 0.01, 0.2, 0.49):
            params.append(ana.Maj3Params(n=60, epsilon=eps, t=t))
        for n, alpha in ((60, 0.3), (60, 2.0), (40, 3.0)):
            params.append(ana.Maj3Params.from_alpha(n, alpha, t=t))
    params.append(ana.Maj3Params(n=1100, epsilon=0.01, t=0.5))
    for p in params:
        out.append(("b", repr(p), _series(ana.maj3_b_seq(p))))
    for p, digits in ((ana.Maj3Params(n=1000, epsilon=0.01, t=0.5), 30),
                      (ana.Maj3Params.from_alpha(60, 0.3, t=0.5), 50),
                      (ana.Maj3Params(n=30, epsilon=0.2, t=0.0), 30),
                      (ana.Maj3Params(n=30, epsilon=0.2, t=math.inf), 30)):
        out.append(("b-mpf", repr(p), _series(ana.maj3_b_seq(p, digits=digits))))

    for p, kw in ((ana.Maj3Params.from_alpha(60, 0.3), {"t_scale_by_a": 1.0}),
                  (ana.Maj3Params.from_alpha(40, 1.0, t=0.5), {}),
                  (ana.Maj3Params(n=30, epsilon=0.01, t=0.5), {"digits": 40}),
                  (ana.Maj3Params(n=20, epsilon=0.1, t=1e-6), {})):
        if "digits" in kw:  # one pass at exactly that precision
            r = ana._volatility_pass(p, None, kw["digits"])
        else:
            r = ana.maj3_volatility_ratio(p, **kw)
        out.append(("rho", repr(p), sorted(kw.items()),
                    [_atom(v) for v in (r.rho, r.log_rho, r.flagged, r.digits,
                                        r.n, r.log_a, r.log_t)]))

    for alpha, n, digits in ((0.4, 100, 50), (1.0, 300, 50), (0.58, 200, 80)):
        d = ana.maj3_cutoff_diagnostic(alpha, n, digits=digits)
        out.append(("cutoff", alpha, n, digits,
                    [_atom(v) for v in (d.alpha, d.n, d.log_diag, d.digits)]))
    return out


def digest():
    return hashlib.sha256(repr(_cases()).encode()).hexdigest()


def test_recursion_outputs_are_frozen():
    assert digest() == FROZEN_SHA256


@pytest.mark.parametrize("t", [0.0, 0.5, math.inf])
def test_float_b_refuses_a_bias_lost_at_one_half(t):
    # epsilon = 200^0.5 (2/3)^200 = 8.6e-35 rounds p to exactly 1/2, where the
    # float series would sit at the fixed point; mpf carries the bias
    params = ana.Maj3Params.from_alpha(200, 0.5, t=t)
    assert params.p == 0.5
    with pytest.raises(PrecisionExhausted, match="digits="):
        ana.maj3_b_seq(params)
    assert ana.maj3_b_seq(params, digits=60).log_value(200) < -300.0  # not log(1/4)
    # a float epsilon that underflows to 0 is refused the same way
    with pytest.raises(PrecisionExhausted):
        ana.maj3_b_seq(ana.Maj3Params.from_alpha(2000, 0.4, t=t))


if __name__ == "__main__":
    print(digest())
