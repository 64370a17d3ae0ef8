"""Record the digests that bench/workloads.py checks outputs against.

    PYTHONPATH=src python3 -B bench/record_expected.py

Writes bench/expected.json.  For theta_power it records every weight that
any seed can draw, that is every dominant-chain weight within the drawing
spread, so that each seed is checked against a value computed here and not
against the run under test.  Run it only when an output is meant to change.
"""

from __future__ import annotations

import itertools
import json

from workloads import HERE, SIZES, coords_digest, sha, vector_digest


def chain_weights(n: int, m: int, spread: int):
    """Every weight roots.sample_dominant_chain(n, m, ..., spread) can return."""
    from qshapo import roots

    out = []
    for tail in itertools.product(range(spread + 1), repeat=n - 1):
        lam = (m - 1,) + tail
        for i in range(2, n + 1):
            lam = roots.dot_reflect(i, lam)
        out.append(lam)
    return out


def main():
    from qshapo import freealg, shapovalov, verma

    expected = {"systems": {}, "theta_power": {}, "hwv_negative": {}}
    for mode in ("smoke", "full"):
        size = SIZES["certify"][mode]
        for n, cap in size["systems"]:
            rs = freealg.complete(freealg.serre_relations(n), cap, n=n)
            expected["systems"][f"{n},{cap}"] = sha(rs.to_text())

        size = SIZES["hwv-symbolic"][mode]
        for n in size["ranks"]:
            rs = freealg.get_rewrite_system(n, size["cap"])
            free = verma.HighestWeight.symbolic(n)
            vec = shapovalov.theta_vector(shapovalov.theta_sum(n).evaluate(free), free, rs)
            expected["hwv_negative"][str(n)] = vector_digest(verma.act_e(n, vec, rs))

        size = SIZES["level-m"][mode]
        for key in ("induction", "large"):
            s = size[key]
            rs = freealg.get_rewrite_system(s["n"], s["cap"])
            for w in chain_weights(s["n"], s["m"], s["spread"]):
                tp = shapovalov.theta_power(s["n"], s["m"], w, rs)
                expected["theta_power"][f"{s['n']},{s['m']},{w}"] = coords_digest(tp)
                print(s["n"], s["m"], w, flush=True)

    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
