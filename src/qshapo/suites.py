"""Named verification suites.

Every suite returns a list of report entries {"check", "status", "witness"}
with deterministic ordering and canonical-form witnesses, so the command
line can emit machine-readable results and the test suite can assert on
them.  The checks here are the package's executable record of the
commutation identities, the adjoint-action calculus, and the
cross-construction agreements.
"""

from __future__ import annotations

import itertools
import random

from .freealg import (
    NCPoly,
    audit_confluence,
    complete,
    get_rewrite_system,
    serre_relations,
)
from .roots import (
    cartan_entry,
    enumerate_II,
    enumerate_JJ,
    kostant_count,
    positive_roots,
    r_of,
    sample_dominant_chain,
    split_I,
)
from .scalars import R_ONE, V_MINUS_VINV, RatQ, qbinom, qint
from .shapovalov import (
    compare_doot,
    make_doot_weight,
    theta_inductive,
    theta_power,
    theta_sum,
    theta_vector,
    verify_hwv,
)
from .uqsl import (
    LocElement,
    ad_F,
    ad_F_pow,
    expand_pbw,
    f_monomial_of_index_set,
    fell_u_expand,
    from_pbw,
    jimbo,
    leibniz_check,
    psi,
    psi_loc,
    sigma_aut,
    to_pbw,
    ws_t_rescale,
)
from .verma import (
    HighestWeight,
    H_eval,
    VermaVector,
    act_e,
    act_k,
    act_poly,
    is_hwv,
    quantum_bracket,
    vector_from_ncpoly,
)

V = RatQ.v_power
Q = RatQ.q_power


def _entry(name, ok, witness="0"):
    return {
        "check": name,
        "status": "pass" if ok else "fail",
        "witness": "0" if ok else witness,
    }


def _vec_zero_entry(name, vec):
    return _entry(name, vec.is_zero(), vec.witness())


# ----------------------------------------------------------------------------
# Commutation-relation suite
# ----------------------------------------------------------------------------

def _tails(n, heavy: bool, max_height: int):
    """Trailing PBW factors used to probe operator identities: the empty
    tail, every single root vector, and (when heavy) all root-vector pairs,
    capped in height so that products stay inside the rewrite cap."""
    tails = [()]
    roots = [r for r in positive_roots(n) if r[1] - r[0] <= max_height]
    tails += [(r,) for r in roots]
    if heavy:
        for a, b in itertools.combinations_with_replacement(roots, 2):
            mono = tuple(sorted((a, b)))
            if sum(x[1] - x[0] for x in mono) <= min(4, max_height):
                tails.append(mono)
    return tails


def suite_section2(n: int, heavy: bool = False) -> list[dict]:
    """Single-commutator structure of the raising action on chains.

    Checks, with a fully symbolic weight: that e_l commutes with a root
    vector f_{i,j} unless l = i or l = j - 1; the two nontrivial commutators
    [e_i, f_{i,b}] = q f_{i+1,b} k_i^2 and [e_i, f_{a,i+1}] = -1/q f_{a,i}
    k_i^-2, as operator identities against trailing factors; and the full
    case analysis of e_i on every chain f_J.
    """
    rs = get_rewrite_system(n)
    hw = HighestWeight.symbolic(n)
    report = []
    # the longest left factor is a height-n root vector; keep room for it
    tails = _tails(n, heavy, max_height=rs.cap - n)

    def two_alpha(i):
        return tuple(2 if k == i - 1 else 0 for k in range(n))

    # commutation vanishing off the two exceptional columns
    ok = True
    bad = ""
    for (i, j) in positive_roots(n):
        if j == i + 1:
            continue
        fij = jimbo(i, j, n)
        for ell in range(1, n + 1):
            if ell == i or ell == j - 1:
                continue
            for X in tails:
                base = vector_from_ncpoly(expand_pbw(X, n), hw, rs)
                lhs = act_e(ell, act_poly(fij, base, rs), rs)
                rhs = act_poly(fij, act_e(ell, base, rs), rs)
                if not (lhs - rhs).is_zero():
                    ok = False
                    bad = f"[e_{ell}, f_{i}{j}] on tail {X}"
    report.append(_entry("e_l commutes with f_ij for l not in {i, j-1}", ok, bad))

    # [e_i, f_{i,b}] = q f_{i+1,b} k_i^2
    ok = True
    bad = ""
    for i in range(1, n + 1):
        for b in range(i + 2, n + 2):
            fib = jimbo(i, b, n)
            upper = jimbo(i + 1, b, n)
            for X in tails:
                base = vector_from_ncpoly(expand_pbw(X, n), hw, rs)
                lhs = act_e(i, act_poly(fib, base, rs), rs) - act_poly(
                    fib, act_e(i, base, rs), rs
                )
                rhs = act_poly(upper, act_k(two_alpha(i), base), rs).scale(Q(1))
                if not (lhs - rhs).is_zero():
                    ok = False
                    bad = f"[e_{i}, f_{i}{b}] vs q f k^2 on tail {X}"
    report.append(_entry("[e_i, f_ib] = q f_(i+1)b k_i^2", ok, bad))

    # [e_i, f_{a,i+1}] = -1/q f_{a,i} k_i^-2
    ok = True
    bad = ""
    for i in range(2, n + 1):
        for a in range(1, i):
            fai1 = jimbo(a, i + 1, n)
            lower = jimbo(a, i, n)
            minus2 = tuple(-x for x in two_alpha(i))
            for X in tails:
                base = vector_from_ncpoly(expand_pbw(X, n), hw, rs)
                lhs = act_e(i, act_poly(fai1, base, rs), rs) - act_poly(
                    fai1, act_e(i, base, rs), rs
                )
                rhs = act_poly(lower, act_k(minus2, base), rs).scale(-Q(-1))
                if not (lhs - rhs).is_zero():
                    ok = False
                    bad = f"[e_{i}, f_{a}{i + 1}] on tail {X}"
    report.append(_entry("[e_i, f_a(i+1)] = -1/q f_ai k_i^-2", ok, bad))

    # full case analysis of e_i on chains f_J
    ok = True
    bad = ""
    vmv_inv = V_MINUS_VINV.inverse()
    for J in enumerate_II(n):
        s = set(J)
        fJ = expand_pbw(f_monomial_of_index_set(J), n)
        vJ = vector_from_ncpoly(fJ, hw, rs)
        for i in range(1, n + 1):
            got = act_e(i, vJ, rs)
            if i in s and i + 1 in s:
                sp = split_I(J, i, n)
                f1 = expand_pbw(f_monomial_of_index_set(sp.I1), n)
                f2 = expand_pbw(f_monomial_of_index_set(sp.I2), n)
                base2 = vector_from_ncpoly(f2, hw, rs)
                mid = act_k(two_alpha(i), base2) - act_k(
                    tuple(-x for x in two_alpha(i)), base2
                )
                expect = act_poly(f1, mid, rs).scale(vmv_inv)
            elif i in s and i + 1 not in s and i < n:
                I = tuple(sorted(s | {i + 1}))
                sp = split_I(I, i, n)
                f12 = expand_pbw(
                    f_monomial_of_index_set(sp.I1), n
                ) * expand_pbw(f_monomial_of_index_set(sp.I2), n)
                base = VermaVector.highest(hw)
                expect = act_poly(f12, act_k(two_alpha(i), base), rs).scale(Q(1))
            elif i + 1 in s and i not in s and i > 1:
                I = tuple(sorted(s | {i}))
                sp = split_I(I, i, n)
                f1 = expand_pbw(f_monomial_of_index_set(sp.I1), n)
                f2 = expand_pbw(f_monomial_of_index_set(sp.I2), n)
                base2 = vector_from_ncpoly(f2, hw, rs)
                expect = act_poly(
                    f1, act_k(tuple(-x for x in two_alpha(i)), base2), rs
                ).scale(-Q(-1))
            else:
                expect = VermaVector(hw, {})
            if not (got - expect).is_zero():
                ok = False
                bad = f"e_{i} on chain {J}"
    report.append(_entry("raising action on chains follows the case analysis", ok, bad))
    return report


# ----------------------------------------------------------------------------
# Cancellation suite for the closed sum
# ----------------------------------------------------------------------------

def suite_section3(n: int) -> list[dict]:
    """Per-chain identities behind the closed sum, fully symbolic.

    For each pivot i and each chain containing i and i+1: the raising
    action on f_I H_I and on its two companions, their two- and three-term
    cancellations, the scalar recurrence that drives the interior
    cancellation, and the hyperplane identity that kills the last raising
    direction at level one.
    """
    rs = get_rewrite_system(n)
    hw = HighestWeight.symbolic(n)
    report = []

    def bracket_alpha(shift, i):
        # [ (lam, alpha_i) + shift ]_v as a symbolic scalar
        plus = hw.k_eigen(tuple(2 if k == i - 1 else 0 for k in range(n)))
        minus = hw.k_eigen(tuple(-2 if k == i - 1 else 0 for k in range(n)))
        return (plus * V(shift) - minus * V(-shift)) * V_MINUS_VINV.inverse()

    def sigma_power(i, e):
        # v**(e * (lam + rho, sigma_i)) as a symbolic scalar
        return hw.k_eigen(tuple(2 * e if k < i else 0 for k in range(n))) * V(e * i)

    ok_a = ok_b = ok_c = ok_lem1 = ok_cor3 = ok_last = True
    bad_a = bad_b = bad_c = bad_l1 = bad_c3 = bad_last = ""
    for i in range(1, n + 1):
        for I in enumerate_II(n):
            s = set(I)
            if i not in s or i + 1 not in s:
                continue
            sp = split_I(I, i, n)
            HI = H_eval(r_of(I, n), hw)
            f12 = expand_pbw(f_monomial_of_index_set(sp.I1), n) * expand_pbw(
                f_monomial_of_index_set(sp.I2), n
            )
            base12 = vector_from_ncpoly(f12, hw, rs)
            fI = expand_pbw(f_monomial_of_index_set(I), n)
            eI = act_e(i, vector_from_ncpoly(fI, hw, rs), rs).scale(HI)
            e_plus = None
            if sp.I_plus is not None:
                HIp = H_eval(r_of(sp.I_plus, n), hw)
                fIp = expand_pbw(f_monomial_of_index_set(sp.I_plus), n)
                e_plus = act_e(i, vector_from_ncpoly(fIp, hw, rs), rs).scale(HIp)
            e_minus = None
            if sp.I_minus is not None:
                HIm = H_eval(r_of(sp.I_minus, n), hw)
                fIm = expand_pbw(f_monomial_of_index_set(sp.I_minus), n)
                e_minus = act_e(i, vector_from_ncpoly(fIm, hw, rs), rs).scale(HIm)

            if 1 < i <= n:
                shift = 0 if i == n else 1
                expect = base12.scale(bracket_alpha(shift, i) * HI)
                if not (eI - expect).is_zero():
                    ok_a = False
                    bad_a = f"i={i} I={I}"
            if 1 < i <= n and e_plus is not None:
                scal = sigma_power(i, -1) * quantum_bracket(hw, 0, i - 1) * HI
                if i == n:
                    scal = scal * V(1)  # q^2 = v
                expect = base12.scale(scal)
                if not (e_plus - expect).is_zero():
                    ok_b = False
                    bad_b = f"i={i} I={I}"
            if 1 < i < n and e_minus is not None:
                scal = sigma_power(i - 1, -1) * quantum_bracket(hw, 0, i)
                expect = base12.scale(scal * HI).scale(-1)
                if not (e_minus - expect).is_zero():
                    ok_c = False
                    bad_c = f"i={i} I={I}"
            if i == 1 and n > 1 and e_minus is not None:
                if not (eI + e_minus).is_zero():
                    ok_lem1 = False
                    bad_l1 = f"I={I}"
            if 1 < i < n:
                total = eI + e_plus + e_minus
                if not total.is_zero():
                    ok_cor3 = False
                    bad_c3 = f"i={i} I={I}"

    report.append(_entry("raising the chain term: bracket formula", ok_a, bad_a))
    report.append(_entry("raising the dropped-row companion", ok_b, bad_b))
    report.append(_entry("raising the dropped-column companion", ok_c, bad_c))
    report.append(_entry("two-term cancellation at the first pivot", ok_lem1, bad_l1))
    report.append(_entry("three-term interior cancellation", ok_cor3, bad_c3))

    # scalar recurrence: [A+1] + v^-(A+B+1) [B] - v^-B [A+B+1] = 0 with
    # A = (lam, alpha_i), B = (lam + rho, sigma_(i-1)); stated via brackets
    ok_rec = True
    bad_rec = ""
    for i in range(2, n + 1):
        lhs = (
            bracket_alpha(1, i)
            + sigma_power(i, -1) * quantum_bracket(hw, 0, i - 1)
            - sigma_power(i - 1, -1) * quantum_bracket(hw, 0, i)
        )
        if not lhs.is_zero():
            ok_rec = False
            bad_rec = f"i={i}: {lhs}"
    report.append(_entry("quantum-integer recurrence of the cancellation", ok_rec, bad_rec))

    # hyperplane identity killing the last raising direction at level one:
    # v**(lam, alpha_N) = v**(1 - (lam + rho, 2 eta - alpha_N)), whose rho
    # part contributes 2N - 1 to the exponent
    tied = HighestWeight.symbolic(n, hyperplane_m=1)
    yN2 = tied.k_eigen(tuple(2 if k == n - 1 else 0 for k in range(n)))
    gamma = tuple(-4 if k < n - 1 else -2 for k in range(n))
    other = tied.k_eigen(gamma) * V(2 - 2 * n)
    diff = yN2 - other
    report.append(
        _entry(
            "hyperplane identity for the last raising direction",
            diff.is_zero(),
            str(diff),
        )
    )

    # the resulting two-term cancellation for the last pivot, constrained
    ok = True
    bad = ""
    for I in enumerate_II(n):
        s = set(I)
        if n not in s or n + 1 not in s or n == 1:
            continue
        sp = split_I(I, n, n)
        HI = H_eval(r_of(I, n), tied)
        fI = expand_pbw(f_monomial_of_index_set(I), n)
        eI = act_e(n, vector_from_ncpoly(fI, tied, rs), rs).scale(HI)
        HIp = H_eval(r_of(sp.I_plus, n), tied)
        fIp = expand_pbw(f_monomial_of_index_set(sp.I_plus), n)
        ep = act_e(n, vector_from_ncpoly(fIp, tied, rs), rs).scale(HIp)
        if not (eI + ep).is_zero():
            ok = False
            bad = f"I={I}"
    report.append(_entry("two-term cancellation at the last pivot (on hyperplane)", ok, bad))
    return report


# ----------------------------------------------------------------------------
# Adjoint-calculus suite
# ----------------------------------------------------------------------------

def suite_calculus(n: int, seed: int = 0) -> list[dict]:
    rs = get_rewrite_system(n)
    rng = random.Random(seed)
    beta = n
    report = []

    def rand_hom(length):
        w = tuple(rng.randint(1, n) for _ in range(length))
        return NCPoly(n, {w: R_ONE})

    # sigma-derivation property and the twist relation, free level
    ok_der = ok_twist = True
    for _ in range(12):
        x = rand_hom(rng.randint(1, 3))
        y = rand_hom(rng.randint(1, 3))
        lhs = ad_F(x * y, beta)
        rhs = ad_F(x, beta) * y + sigma_aut(x, beta) * ad_F(y, beta)
        if lhs != rhs:
            ok_der = False
        if sigma_aut(ad_F(x, beta), beta).scale(V(1) ** 2) != ad_F(
            sigma_aut(x, beta), beta
        ):
            ok_twist = False
    report.append(_entry("ad_F is a sigma-derivation", ok_der))
    report.append(_entry("v^2 sigma ad_F = ad_F sigma", ok_twist))

    # twisted Leibniz rule against brute-force iterates
    ok = True
    for _ in range(6):
        x = rand_hom(rng.randint(1, 2))
        y = rand_hom(rng.randint(1, 2))
        for deg in range(0, 5):
            if not leibniz_check(x, y, beta, deg):
                ok = False
    report.append(_entry("twisted Leibniz rule, orders 0..4", ok))

    # Serre nilpotency in the quotient
    ok = True
    for gamma in range(1, n + 1):
        if gamma == beta:
            continue
        power = 1 - cartan_entry(beta, gamma)
        if not rs.normal_form(
            ad_F_pow(NCPoly.letter(gamma, n), beta, power)
        ).is_zero():
            ok = False
    report.append(_entry("Serre nilpotency of ad_F on the other generators", ok))

    # sigma versus ad_F power twist
    ok = True
    for _ in range(8):
        z = rand_hom(rng.randint(1, 3))
        for k in range(0, 4):
            lhs = sigma_aut(ad_F_pow(z, beta, k), beta)
            rhs = ad_F_pow(sigma_aut(z, beta), beta, k).scale(V(-2 * k))
            if lhs != rhs:
                ok = False
    report.append(_entry("sigma twists ad_F powers by v^-2k", ok))

    # finite expansion of F^l u against brute force, in normal form
    ok = True
    us = [jimbo(i, j, n) for i, j in positive_roots(n)]
    us += [rand_hom(3) for _ in range(3)]
    for u in us:
        for ell in range(0, 6):
            if ell + u.degree() > rs.cap:
                continue
            brute = rs.normal_form(NCPoly.word((beta,) * ell, n) * u)
            if rs.normal_form(fell_u_expand(ell, u, beta)) != brute:
                ok = False
    report.append(_entry("finite expansion of F^l u, l <= 5", ok))

    # Gaussian-binomial recurrence
    ok = True
    for ell in range(2, 13):
        for i in range(1, ell):
            lhs = V(-i * (ell - 1 - i)) * qbinom(ell - 1, i) + V(
                -(i + 1) * (ell - i)
            ) * qbinom(ell - 1, i - 1)
            if lhs != V(-i * (ell - i)) * qbinom(ell, i):
                ok = False
    report.append(_entry("Gaussian-binomial recurrence, l <= 12", ok))
    return report


# ----------------------------------------------------------------------------
# Chain/determinant comparison suite
# ----------------------------------------------------------------------------

def suite_section44(n: int, pmax: int = 3, doot: bool = True, seed: int = 0) -> list[dict]:
    rs = get_rewrite_system(n)
    report = []
    F = (n,)

    # chain maps under ad_F and right append
    ok_a = ok_b = True
    for J in enumerate_JJ(n):
        fJ = expand_pbw(f_monomial_of_index_set(J), n)
        J1 = J + (n + 1,)
        J2 = tuple(x for x in J if x != n) + (n + 1,)
        if rs.normal_form(ad_F(fJ, n)) != rs.normal_form(
            expand_pbw(f_monomial_of_index_set(J2), n).scale(-Q(1))
        ):
            ok_a = False
        if rs.normal_form(fJ.rmul_word(F)) != rs.normal_form(
            expand_pbw(f_monomial_of_index_set(J1), n)
        ):
            ok_b = False
    report.append(_entry("ad_F sends a chain to -q times its stretched chain", ok_a))
    report.append(_entry("right append of F closes a chain", ok_b))

    # two-term expansion of F^(p+1) f_J
    ok = True
    bad = ""
    for p in range(1, pmax + 1):
        c_val = -(Q(-1) * V(-p)) * qint(p + 1)
        for J in enumerate_JJ(n):
            fJ = expand_pbw(f_monomial_of_index_set(J), n)
            if p + 1 + fJ.degree() > rs.cap:
                continue
            J1 = J + (n + 1,)
            J2 = tuple(x for x in J if x != n) + (n + 1,)
            lhs = rs.normal_form(fJ.lmul_word(F * (p + 1)))
            rhs = (
                expand_pbw(f_monomial_of_index_set(J1), n)
                + expand_pbw(f_monomial_of_index_set(J2), n).scale(c_val)
            ).rmul_word(F * p).scale(V(p + 1))
            if lhs != rs.normal_form(rhs):
                ok = False
                bad = f"p={p} J={J}"
    report.append(_entry("two-term expansion of F^(p+1) on chains", ok, bad))

    # leading-coefficient form: in PBW coordinates F^(p+1) f_[N] has exactly
    # the closed-chain monomial with coefficient v^(p+1) plus the single
    # stretched-chain correction
    ok = True
    bad = ""
    for p in range(1, pmax + 1):
        J = tuple(range(1, n + 1))
        fJ = expand_pbw(f_monomial_of_index_set(J), n)
        if p + 1 + fJ.degree() > rs.cap:
            continue
        coords = to_pbw(rs.normal_form(fJ.lmul_word(F * (p + 1))), rs)
        J1chain = f_monomial_of_index_set(J + (n + 1,)) + ((n, n + 1),) * p
        J2 = tuple(x for x in J if x != n) + (n + 1,)
        J2chain = tuple(sorted(f_monomial_of_index_set(J2) + ((n, n + 1),) * p))
        c_val = -(Q(-1) * V(-p)) * qint(p + 1)
        expect = {
            tuple(sorted(J1chain)): V(p + 1),
            J2chain: V(p + 1) * c_val,
        }
        if coords != expect:
            ok = False
            bad = f"p={p}"
    report.append(
        _entry("leading PBW coefficient of F^(p+1) f_[N] is v^(p+1)", ok, bad)
    )

    if doot and n >= 2:
        for p in range(1, pmax + 1):
            rep = compare_doot(n, p, rs=rs)
            report.append(rep)
            for sample in range(2):
                mu = make_doot_weight(n, p, seed=seed, sample=sample)
                report.append(compare_doot(n, p, mu=mu, rs=rs))
    return report


# ----------------------------------------------------------------------------
# Conjugation-operator and powers suite
# ----------------------------------------------------------------------------

def suite_powers(
    n: int,
    m: int = 1,
    samples: int = 3,
    seed: int = 0,
    check_shift: bool = True,
    lam=None,
) -> list[dict]:
    from .shapovalov import InductionPreconditionError

    rs = get_rewrite_system(n)
    report = []

    if check_shift:
        ok = True
        from .scalars import WeightScalar

        minus_one_t = WeightScalar.const(1, RatQ.from_int(-1), "t")
        # arguments must avoid the letter F = f_n so that ad_F is nilpotent
        us = [jimbo(i, j, n) for i, j in positive_roots(n) if j <= n]
        us.append(us[0] * us[-1])
        for u in us:
            inner = LocElement(n, n, {0: sigma_aut(u, n), -1: ad_F(u, n)})
            lhs = psi_loc(None, inner, n, rs, formal=True)
            rhs = psi(None, u, n, rs, formal=True)
            rhs = LocElement(
                n, n, {j: p.map_scalars(ws_t_rescale) for j, p in rhs.terms.items()}
            )
            W, _ = (lhs + rhs.scale(minus_one_t)).cleared(rs)
            if not W.is_zero():
                ok = False
        report.append(_entry("conjugation-operator shift identity (formal)", ok))

    if lam is not None:
        lams = [tuple(lam)]
    else:
        lams = sample_dominant_chain(n, m, samples, seed=seed, spread=1)

    # the element itself produces highest weight vectors of the right weight
    ok_hwv = ok_wt = True
    bad = ""
    pi0_mono = tuple(sorted([(i, i + 1) for i in range(1, n + 1)] * m))
    for w in lams:
        coords = (
            theta_sum(n).evaluate(HighestWeight.numeric(w))
            if m == 1
            else theta_power(n, m, w, rs)
        )
        hw = HighestWeight.numeric(w)
        vec = theta_vector(coords, hw, rs)
        if not is_hwv(vec, rs):
            ok_hwv = False
            bad = f"lambda={w}"
        if vec.weight_offset() != (m,) * n:
            ok_wt = False
            bad = f"lambda={w}"
    report.append(_entry(f"level-{m} element produces highest weight vectors", ok_hwv, bad))
    report.append(_entry(f"level-{m} element lowers the weight by m*eta", ok_wt, bad))

    # induction comparisons, where the reflection chain is admissible
    inductions = []
    skipped = []
    ok_pi0 = ok_match = True
    bad = ""
    for w in lams:
        try:
            res = theta_inductive(n, m, w, rs)
        except InductionPreconditionError:
            skipped.append(w)
            continue
        inductions.append((w, res))
        if res.pi0 != res.predicted_pi0():
            ok_pi0 = False
            bad = f"lambda={w}"
        if m == 1:
            if res.normalized() != theta_sum(n).evaluate(HighestWeight.numeric(w)):
                ok_match = False
                bad = f"lambda={w}"
        else:
            tp = theta_power(n, m, w, rs)
            inv = tp[pi0_mono].inverse()
            if {M: c * inv for M, c in tp.items()} != res.normalized():
                ok_match = False
                bad = f"lambda={w}"
    if inductions:
        report.append(
            _entry("induction leading coefficient is the predicted v power", ok_pi0, bad)
        )
        other = "closed sum" if m == 1 else f"level-{m} product"
        report.append(
            _entry(
                f"normalized induction equals the {other} ({len(inductions)} weights)",
                ok_match,
                bad,
            )
        )
    if skipped:
        report.append(
            _entry(
                "induction comparison not applicable (chain exponent <= 0) at "
                + "; ".join(map(str, skipped)),
                True,
            )
        )

    # submodule picture: theta times F^p on the reflected weight is again a
    # highest weight vector, checked in the larger Verma module
    ok = True
    bad = ""
    for w, res in inductions:
        p = res.r_values[-1] if res.r_values else 0
        if p == 0 or n < 2:
            continue
        mu = res.chain[n - 1]
        theta_poly = from_pbw(res.coords, n)
        if theta_poly.degree() + p > rs.cap:
            continue
        hw_mu = HighestWeight.numeric(mu)
        vec = vector_from_ncpoly(theta_poly.rmul_word((n,) * p), hw_mu, rs)
        if not is_hwv(vec, rs):
            ok = False
            bad = f"lambda={w} p={p}"
    report.append(_entry("theta F^p on the reflected weight is a highest weight vector", ok, bad))
    return report


# ----------------------------------------------------------------------------
# Basis/confluence suite
# ----------------------------------------------------------------------------

def suite_pbw(n: int, cap: int = 8, height: int = 8) -> list[dict]:
    rs = complete(serre_relations(n), cap, n=n)
    report = []
    fails = audit_confluence(rs)
    report.append(
        _entry(
            f"completion confluent to degree {cap}",
            not fails,
            str(fails[:2]) if fails else "0",
        )
    )
    bad = None
    for h in range(1, height + 1):
        for mu in itertools.product(range(h + 1), repeat=n):
            if sum(mu) != h:
                continue
            if rs.dim_weight_space(mu) != kostant_count(mu):
                bad = mu
    report.append(
        _entry(
            f"normal-word counts match partition counts to height {height}",
            bad is None,
            str(bad),
        )
    )
    return report


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------

SUITES = {
    "hwv",
    "negative",
    "section2",
    "section3",
    "calculus",
    "section44",
    "powers",
    "pbw",
}


def run_suite(
    name: str,
    n: int,
    m: int = 1,
    mode: str = "symbolic",
    lam=None,
    samples: int = 5,
    seed: int = 0,
) -> list[dict]:
    if name == "hwv":
        return verify_hwv(n, m, mode=mode, lam=lam, samples=samples, seed=seed)
    if name == "negative":
        # a weight off the hyperplane: the final raising direction survives
        off = tuple(lam) if lam is not None else (0,) * n
        if sum(off) == m - n:
            raise ValueError("negative control needs a weight off the hyperplane")
        rs = get_rewrite_system(n)
        hw = HighestWeight.numeric(off)
        vec = theta_vector(theta_sum(n).evaluate(hw), hw, rs)
        report = []
        for k in range(1, n):
            report.append(
                _vec_zero_entry(
                    f"e_{k} still kills theta*v off the hyperplane", act_e(k, vec, rs)
                )
            )
        eN = act_e(n, vec, rs)
        ok = not eN.is_zero()
        report.append(
            {
                "check": f"e_{n} has a nonzero witness off the hyperplane",
                "status": "pass" if ok else "fail",
                "witness": eN.witness() if ok else "unexpected zero",
            }
        )
        return report
    if name == "section2":
        return suite_section2(n, heavy=(n <= 3))
    if name == "section3":
        return suite_section3(n)
    if name == "calculus":
        return suite_calculus(n, seed=seed)
    if name == "section44":
        return suite_section44(n, doot=(2 <= n <= 3), seed=seed)
    if name == "powers":
        return suite_powers(n, m, samples=samples, seed=seed, lam=lam)
    if name == "pbw":
        return suite_pbw(n, cap=min(8, get_rewrite_system(n).cap))
    raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
