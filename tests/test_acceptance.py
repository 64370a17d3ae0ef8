"""Acceptance gate: each test runs one acceptance criterion end to end at its
stated scale and tolerance (exact equality of canonical forms throughout)
and prints a one-line verdict.  Run with -s to see the lines."""

import itertools

from qshapo.freealg import get_rewrite_system
from qshapo.roots import hyperplane_sample, sample_dominant_chain
from qshapo.scalars import RatQ
from qshapo.shapovalov import (
    compare_doot,
    make_doot_weight,
    theta_det,
    theta_inductive,
    theta_power,
    theta_sum,
    theta_vector,
    verify_hwv,
)
from qshapo.suites import (
    run_suite,
    suite_calculus,
    suite_pbw,
    suite_powers,
    suite_section2,
    suite_section3,
    suite_section44,
)
from qshapo.verma import HighestWeight, act_e, is_hwv


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {label}" + (f" [{detail}]" if detail else ""))
    assert ok, f"acceptance criterion {num} failed: {label} {detail}"


def _all_pass(report):
    bad = [r for r in report if r["status"] != "pass"]
    return not bad, "; ".join(r["check"] for r in bad[:3])


def test_acceptance_1_highest_weight_symbolic():
    ok = True
    detail = ""
    for n in (2, 3, 4, 5):
        rep = verify_hwv(n, 1, mode="symbolic")
        good, bad = _all_pass(rep)
        if not good:
            ok = False
            detail = f"n={n}: {bad}"
    _verdict(1, "raising operators kill theta*v symbolically, N=2..5", ok, detail)


def test_acceptance_2_determinant_equals_sum():
    ok = True
    detail = ""
    for n in range(1, 6):
        tied = HighestWeight.symbolic(n, hyperplane_m=1)
        if theta_det(n, tied) != theta_sum(n).evaluate(tied):
            ok, detail = False, f"symbolic n={n}"
        for lam in hyperplane_sample(n, 1, 20, seed=2024):
            hw = HighestWeight.numeric(lam)
            if theta_det(n, hw) != theta_sum(n).evaluate(hw):
                ok, detail = False, f"n={n} lam={lam}"
                break
    _verdict(2, "ordered determinant equals the closed sum, N<=5", ok, detail)


def test_acceptance_3_commutation_suite():
    ok = True
    detail = ""
    for n in (2, 3, 4, 5):
        good, bad = _all_pass(suite_section2(n))
        if not good:
            ok, detail = False, f"n={n}: {bad}"
    _verdict(3, "commutation-relation suite exhaustive, N<=5", ok, detail)


def test_acceptance_4_cancellation_suite():
    ok = True
    detail = ""
    for n in (2, 3, 4):
        good, bad = _all_pass(suite_section3(n))
        if not good:
            ok, detail = False, f"n={n}: {bad}"
    _verdict(4, "per-chain cancellation identities, symbolic, N<=4", ok, detail)


def test_acceptance_5_adjoint_calculus():
    ok = True
    detail = ""
    for n in (2, 3, 4):
        good, bad = _all_pass(suite_calculus(n, seed=5))
        if not good:
            ok, detail = False, f"n={n}: {bad}"
    _verdict(5, "twisted adjoint calculus (derivation, Leibniz, expansions)", ok, detail)


def test_acceptance_6_chain_and_determinant_comparison():
    ok = True
    detail = ""
    for n in (2, 3, 4, 5):
        good, bad = _all_pass(suite_section44(n))
        if not good:
            ok, detail = False, f"n={n}: {bad}"
    for n in (2, 3):
        for p in (1, 2, 3):
            if compare_doot(n, p)["status"] != "pass":
                ok, detail = False, f"doot n={n} p={p}"
            for sample in range(2):
                mu = make_doot_weight(n, p, seed=6, sample=sample)
                if compare_doot(n, p, mu=mu)["status"] != "pass":
                    ok, detail = False, f"doot n={n} p={p} mu={mu}"
    _verdict(6, "chain expansions and rank comparison identity", ok, detail)


def test_acceptance_7_conjugation_and_powers():
    ok = True
    detail = ""
    # formal shift identity and the level-1 induction-vs-sum match
    for n in (2, 3, 4):
        rep = suite_powers(n, 1, samples=10, seed=7)
        good, bad = _all_pass(rep)
        if not good:
            ok, detail = False, f"n={n}: {bad}"
    # levels beyond one: product form passes the raising test and matches
    # the induction after normalization (no negative powers survived any run)
    for (n, m) in [(2, 2), (2, 3), (3, 2)]:
        rep = suite_powers(n, m, samples=3, seed=7, check_shift=False)
        good, bad = _all_pass(rep)
        if not good:
            ok, detail = False, f"(n,m)=({n},{m}): {bad}"
    _verdict(7, "conjugation operators, induction, and powers", ok, detail)


def test_acceptance_8_basis_audit():
    ok = True
    detail = ""
    for n in (2, 3, 4):
        good, bad = _all_pass(suite_pbw(n))
        if not good:
            ok, detail = False, f"n={n}: {bad}"
    _verdict(8, "normal-word dimensions and confluence audit, N<=4 cap 8", ok, detail)


def test_acceptance_9_negative_control():
    ok = True
    detail = ""
    for n in (2, 3):
        rep = run_suite("negative", n)
        good, bad = _all_pass(rep)
        if not good:
            ok, detail = False, f"n={n}: {bad}"
        # and the witness for the last raising direction must be nonzero
        if rep[-1]["witness"] == "0":
            ok, detail = False, f"n={n}: zero witness"
    _verdict(9, "off-hyperplane weights leave a nonzero raising witness", ok, detail)
