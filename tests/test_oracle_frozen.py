"""Frozen outputs of the enumeration oracles at large arity.

A sha256 over the influence reports and output probabilities of maj:23,
type2:21 and dap:22 at p = 1/2 and p = 0.3137, and the noise covariances of
type2:20 and maj:19 at p = 0.31, epsilon = 0.4: the arities and families the
benchmark's exact workload reads.  Floats are hashed through repr (exact
round trip), so any change in the last bit of any value changes the digest.
"""

import hashlib

from boolvol import oracle
from boolvol.functions import make_instance, parse_spec

FROZEN_SHA256 = "cea6c5ab9d711379e1d81d5160b01e102622c2885ab515253323a0707daea0e6"


def _cases():
    out = []
    for text in ("maj:23", "type2:21", "dap:22"):
        f = make_instance(parse_spec(text))
        for p in (0.5, 0.3137):
            rep = oracle.exact_influence_report(f, p)
            out.append(("influence", text, p, repr(rep.to_json_dict())))
            out.append(("prob_one", text, p, repr(oracle.exact_prob_one(f, p))))
    for text in ("type2:20", "maj:19"):
        res = oracle.exact_noise_covariance(make_instance(parse_spec(text)), 0.31, 0.4)
        out.append(("noise", text, repr(res.joint), repr(res.covariance)))
    return out


def digest():
    return hashlib.sha256(repr(_cases()).encode()).hexdigest()


def test_oracle_outputs_are_frozen():
    assert digest() == FROZEN_SHA256


if __name__ == "__main__":
    print(digest())
