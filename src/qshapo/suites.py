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
    alpha,
    cartan_entry,
    enumerate_II,
    enumerate_JJ,
    kostant_count,
    positive_roots,
    r_of,
    sample_dominant_chain,
    sigma_vec,
    split_I,
    weights_of_height,
)
from .scalars import R_ONE, V_MINUS_VINV, RatQ, WeightScalar, qbinom, qint
from .shapovalov import (
    Checks,
    InductionPreconditionError,
    _level_one,
    check_hwv_args,
    check_power_weight,
    compare_doot,
    make_doot_weight,
    pi0_monomial,
    theta_inductive,
    theta_power,
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


def _chain(I, n):
    """The chain f_I of an index set, expanded into free words."""
    factors = f_monomial_of_index_set(I)
    return expand_pbw(factors, n)


# ----------------------------------------------------------------------------
# Commutation-relation suite
# ----------------------------------------------------------------------------

def _tails(n):
    """Trailing PBW factors used to probe operator identities: the empty
    tail, every single root vector, and (at N <= 3) the root-vector pairs
    of height at most 4."""
    roots = positive_roots(n)
    tails = [()] + [(r,) for r in roots]
    if n <= 3:
        for a, b in itertools.combinations_with_replacement(roots, 2):
            mono = tuple(sorted((a, b)))
            if sum(x[1] - x[0] for x in mono) <= 4:
                tails.append(mono)
    return tails


def suite_section2(n: int) -> list[dict]:
    """Single-commutator structure of the raising action on chains.

    Checks, with a fully symbolic weight: that e_l commutes with a root
    vector f_{i,j} unless l = i or l = j - 1; the two nontrivial commutators
    [e_i, f_{i,b}] = q f_{i+1,b} k_i^2 and [e_i, f_{a,i+1}] = -1/q f_{a,i}
    k_i^-2, as operator identities against trailing factors; and the full
    case analysis of e_i on every chain f_J.
    """
    rs = get_rewrite_system(n)
    hw = HighestWeight.symbolic(n)
    bases = [(X, vector_from_ncpoly(expand_pbw(X, n), hw, rs)) for X in _tails(n)]
    commute = "e_l commutes with f_ij for l not in {i, j-1}"
    upper_rule = "[e_i, f_ib] = q f_(i+1)b k_i^2"
    lower_rule = "[e_i, f_a(i+1)] = -1/q f_ai k_i^-2"
    cases = "raising action on chains follows the case analysis"
    checks = Checks(commute, upper_rule, lower_rule, cases)

    def two_alpha(i):
        return tuple(2 if k == i - 1 else 0 for k in range(n))

    def bracket(ell, f, base):
        # [e_ell, f] applied to base
        return act_e(ell, act_poly(f, base, rs), rs) - act_poly(f, act_e(ell, base, rs), rs)

    # commutation vanishing off the two exceptional columns
    for (i, j) in positive_roots(n):
        if j == i + 1:
            continue
        fij = jimbo(i, j, n)
        for ell in range(1, n + 1):
            if ell == i or ell == j - 1:
                continue
            for X, base in bases:
                checks.check(
                    commute, bracket(ell, fij, base).is_zero(), f"[e_{ell}, f_{i}{j}] on tail {X}"
                )

    # [e_i, f_{i,b}] = q f_{i+1,b} k_i^2
    for i in range(1, n + 1):
        for b in range(i + 2, n + 2):
            fib = jimbo(i, b, n)
            upper = jimbo(i + 1, b, n)
            for X, base in bases:
                rhs = act_poly(upper, act_k(two_alpha(i), base), rs).scale(Q(1))
                checks.check(
                    upper_rule,
                    (bracket(i, fib, base) - rhs).is_zero(),
                    f"[e_{i}, f_{i}{b}] vs q f k^2 on tail {X}",
                )

    # [e_i, f_{a,i+1}] = -1/q f_{a,i} k_i^-2
    for i in range(2, n + 1):
        for a in range(1, i):
            fai1 = jimbo(a, i + 1, n)
            lower = jimbo(a, i, n)
            minus2 = tuple(-x for x in two_alpha(i))
            for X, base in bases:
                rhs = act_poly(lower, act_k(minus2, base), rs).scale(-Q(-1))
                checks.check(
                    lower_rule,
                    (bracket(i, fai1, base) - rhs).is_zero(),
                    f"[e_{i}, f_{a}{i + 1}] on tail {X}",
                )

    # full case analysis of e_i on chains f_J
    vmv_inv = V_MINUS_VINV.inverse()
    for J in enumerate_II(n):
        s = set(J)
        vJ = vector_from_ncpoly(_chain(J, n), hw, rs)
        for i in range(1, n + 1):
            got = act_e(i, vJ, rs)
            if i in s and i + 1 in s:
                sp = split_I(J, i, n)
                base2 = vector_from_ncpoly(_chain(sp.I2, n), hw, rs)
                mid = act_k(two_alpha(i), base2) - act_k(
                    tuple(-x for x in two_alpha(i)), base2
                )
                expect = act_poly(_chain(sp.I1, n), mid, rs).scale(vmv_inv)
            elif i in s and i + 1 not in s and i < n:
                sp = split_I(tuple(sorted(s | {i + 1})), i, n)
                f12 = _chain(sp.I1, n) * _chain(sp.I2, n)
                base = VermaVector.highest(hw)
                expect = act_poly(f12, act_k(two_alpha(i), base), rs).scale(Q(1))
            elif i + 1 in s and i not in s and i > 1:
                sp = split_I(tuple(sorted(s | {i})), i, n)
                base2 = vector_from_ncpoly(_chain(sp.I2, n), hw, rs)
                expect = act_poly(
                    _chain(sp.I1, n), act_k(tuple(-x for x in two_alpha(i)), base2), rs
                ).scale(-Q(-1))
            else:
                expect = VermaVector(hw, {})
            checks.check(cases, (got - expect).is_zero(), f"e_{i} on chain {J}")
    return checks.report()


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
    tied = HighestWeight.symbolic(n, hyperplane_m=1)
    term = "raising the chain term: bracket formula"
    row = "raising the dropped-row companion"
    col = "raising the dropped-column companion"
    first = "two-term cancellation at the first pivot"
    interior = "three-term interior cancellation"
    recurrence = "quantum-integer recurrence of the cancellation"
    hyperplane = "hyperplane identity for the last raising direction"
    last = "two-term cancellation at the last pivot (on hyperplane)"
    checks = Checks(term, row, col, first, interior, recurrence, hyperplane, last)

    def sigma_power(i, e):
        # v**(e * (lam + rho, sigma_i)) as a symbolic scalar
        return hw.k_eigen(tuple(2 * e if k < i else 0 for k in range(n))) * V(e * i)

    def raised(i, I, weight):
        # e_i applied to f_I H_I v at the weight, or None without an index set
        if I is None:
            return None
        vec = vector_from_ncpoly(_chain(I, n), weight, rs)
        return act_e(i, vec, rs).scale(H_eval(r_of(I, n), weight))

    for i in range(1, n + 1):
        for I in enumerate_II(n):
            s = set(I)
            if i not in s or i + 1 not in s:
                continue
            sp = split_I(I, i, n)
            HI = H_eval(r_of(I, n), hw)
            base12 = vector_from_ncpoly(_chain(sp.I1, n) * _chain(sp.I2, n), hw, rs)
            eI = raised(i, I, hw)
            e_plus = raised(i, sp.I_plus, hw)
            e_minus = raised(i, sp.I_minus, hw)
            where = f"i={i} I={I}"

            if 1 < i <= n:
                shift = 0 if i == n else 1
                expect = base12.scale(quantum_bracket(hw, alpha(i, n), shift) * HI)
                checks.check(term, (eI - expect).is_zero(), where)
            if 1 < i <= n and e_plus is not None:
                scal = sigma_power(i, -1) * quantum_bracket(hw, sigma_vec(i - 1, n), i - 1) * HI
                if i == n:
                    scal = scal * V(1)  # q^2 = v
                expect = base12.scale(scal)
                checks.check(row, (e_plus - expect).is_zero(), where)
            if 1 < i < n and e_minus is not None:
                scal = sigma_power(i - 1, -1) * quantum_bracket(hw, sigma_vec(i, n), i)
                expect = base12.scale(scal * HI).scale(-1)
                checks.check(col, (e_minus - expect).is_zero(), where)
            if i == 1 and n > 1 and e_minus is not None:
                checks.check(first, (eI + e_minus).is_zero(), f"I={I}")
            if 1 < i < n:
                checks.check(interior, (eI + e_plus + e_minus).is_zero(), where)

    # scalar recurrence: [A+1] + v^-(A+B+1) [B] - v^-B [A+B+1] = 0 with
    # A = (lam, alpha_i), B = (lam + rho, sigma_(i-1)); stated via brackets
    for i in range(2, n + 1):
        lhs = (
            quantum_bracket(hw, alpha(i, n), 1)
            + sigma_power(i, -1) * quantum_bracket(hw, sigma_vec(i - 1, n), i - 1)
            - sigma_power(i - 1, -1) * quantum_bracket(hw, sigma_vec(i, n), i)
        )
        checks.check(recurrence, lhs.is_zero(), f"i={i}: {lhs}")

    # hyperplane identity killing the last raising direction at level one:
    # v**(lam, alpha_N) = v**(1 - (lam + rho, 2 eta - alpha_N)), whose rho
    # part contributes 2N - 1 to the exponent
    yN2 = tied.k_eigen(tuple(2 if k == n - 1 else 0 for k in range(n)))
    gamma = tuple(-4 if k < n - 1 else -2 for k in range(n))
    diff = yN2 - tied.k_eigen(gamma) * V(2 - 2 * n)
    checks.check(hyperplane, diff.is_zero(), str(diff))

    # the resulting two-term cancellation for the last pivot, constrained
    for I in enumerate_II(n):
        s = set(I)
        if n not in s or n + 1 not in s or n == 1:
            continue
        sp = split_I(I, n, n)
        pair = raised(n, I, tied) + raised(n, sp.I_plus, tied)
        checks.check(last, pair.is_zero(), f"I={I}")
    return checks.report()


# ----------------------------------------------------------------------------
# Adjoint-calculus suite
# ----------------------------------------------------------------------------

def suite_calculus(n: int, seed: int = 0) -> list[dict]:
    rs = get_rewrite_system(n)
    rng = random.Random(seed)
    beta = n
    derivation = "ad_F is a sigma-derivation"
    twist = "v^2 sigma ad_F = ad_F sigma"
    checks = Checks(derivation, twist)

    def rand_hom(length):
        w = tuple(rng.randint(1, n) for _ in range(length))
        return NCPoly(n, {w: R_ONE})

    # sigma-derivation property and the twist relation, free level
    for _ in range(12):
        x = rand_hom(rng.randint(1, 3))
        y = rand_hom(rng.randint(1, 3))
        lhs = ad_F(x * y, beta)
        rhs = ad_F(x, beta) * y + sigma_aut(x, beta) * ad_F(y, beta)
        checks.check(derivation, lhs == rhs)
        checks.check(
            twist,
            sigma_aut(ad_F(x, beta), beta).scale(V(1) ** 2) == ad_F(sigma_aut(x, beta), beta),
        )

    # twisted Leibniz rule against brute-force iterates
    name = "twisted Leibniz rule, orders 0..4"
    checks.declare(name)
    for _ in range(6):
        x = rand_hom(rng.randint(1, 2))
        y = rand_hom(rng.randint(1, 2))
        for deg in range(0, 5):
            checks.check(name, leibniz_check(x, y, beta, deg))

    # Serre nilpotency in the quotient
    name = "Serre nilpotency of ad_F on the other generators"
    checks.declare(name)
    for gamma in range(1, n + 1):
        if gamma == beta:
            continue
        power = 1 - cartan_entry(beta, gamma)
        nil = rs.normal_form(ad_F_pow(NCPoly.letter(gamma, n), beta, power))
        checks.check(name, nil.is_zero())

    # sigma versus ad_F power twist
    name = "sigma twists ad_F powers by v^-2k"
    checks.declare(name)
    for _ in range(8):
        z = rand_hom(rng.randint(1, 3))
        for k in range(0, 4):
            lhs = sigma_aut(ad_F_pow(z, beta, k), beta)
            rhs = ad_F_pow(sigma_aut(z, beta), beta, k).scale(V(-2 * k))
            checks.check(name, lhs == rhs)

    # finite expansion of F^l u against brute force, in normal form
    name = "finite expansion of F^l u, l <= 5"
    checks.declare(name)
    us = [jimbo(i, j, n) for i, j in positive_roots(n)]
    us += [rand_hom(3) for _ in range(3)]
    for u in us:
        for ell in range(0, 6):
            brute = rs.normal_form(NCPoly.word((beta,) * ell, n) * u)
            checks.check(name, rs.normal_form(fell_u_expand(ell, u, beta)) == brute)

    # Gaussian-binomial recurrence
    name = "Gaussian-binomial recurrence, l <= 12"
    checks.declare(name)
    for ell in range(2, 13):
        for i in range(1, ell):
            lhs = V(-i * (ell - 1 - i)) * qbinom(ell - 1, i) + V(
                -(i + 1) * (ell - i)
            ) * qbinom(ell - 1, i - 1)
            checks.check(name, lhs == V(-i * (ell - i)) * qbinom(ell, i))
    return checks.report()


# ----------------------------------------------------------------------------
# Chain/determinant comparison suite
# ----------------------------------------------------------------------------

def suite_section44(n: int, seed: int = 0) -> list[dict]:
    """Chain maps under ad_F and F^(p+1) on chains for p = 1..3; at N <= 3
    also compare_doot at each p, at its default mu and two seeded ones."""
    pmax = 3
    rs = get_rewrite_system(n)
    F = (n,)
    stretch = "ad_F sends a chain to -q times its stretched chain"
    close = "right append of F closes a chain"
    two_term = "two-term expansion of F^(p+1) on chains"
    leading = "leading PBW coefficient of F^(p+1) f_[N] is v^(p+1)"
    checks = Checks(stretch, close, two_term, leading)

    def ends(J):
        # the chain closed by n+1, and the chain stretched over the row n
        return J + (n + 1,), tuple(x for x in J if x != n) + (n + 1,)

    def stretch_coeff(p):
        # coefficient -1/q v^-p [p+1]_v of the stretched chain
        return -(Q(-1) * V(-p)) * qint(p + 1)

    # chain maps under ad_F and right append
    for J in enumerate_JJ(n):
        fJ = _chain(J, n)
        J1, J2 = ends(J)
        checks.check(
            stretch,
            rs.normal_form(ad_F(fJ, n)) == rs.normal_form(_chain(J2, n).scale(-Q(1))),
        )
        checks.check(close, rs.normal_form(fJ.rmul_word(F)) == rs.normal_form(_chain(J1, n)))

    # two-term expansion of F^(p+1) f_J
    for p in range(1, pmax + 1):
        c_val = stretch_coeff(p)
        for J in enumerate_JJ(n):
            fJ = _chain(J, n)
            J1, J2 = ends(J)
            lhs = rs.normal_form(fJ.lmul_word(F * (p + 1)))
            rhs = (_chain(J1, n) + _chain(J2, n).scale(c_val)).rmul_word(F * p).scale(V(p + 1))
            checks.check(two_term, lhs == rs.normal_form(rhs), f"p={p} J={J}")

    # leading-coefficient form: in PBW coordinates F^(p+1) f_[N] has exactly
    # the closed-chain monomial with coefficient v^(p+1) plus the single
    # stretched-chain correction
    J = tuple(range(1, n + 1))
    fJ = _chain(J, n)
    J1, J2 = ends(J)
    for p in range(1, pmax + 1):
        coords = to_pbw(rs.normal_form(fJ.lmul_word(F * (p + 1))), rs)
        J1chain = f_monomial_of_index_set(J1) + ((n, n + 1),) * p
        J2chain = tuple(sorted(f_monomial_of_index_set(J2) + ((n, n + 1),) * p))
        expect = {
            tuple(sorted(J1chain)): V(p + 1),
            J2chain: V(p + 1) * stretch_coeff(p),
        }
        checks.check(leading, coords == expect, f"p={p}")

    report = checks.report()
    if n <= 3:
        for p in range(1, pmax + 1):
            report.append(compare_doot(n, p, rs=rs))
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
    rs = get_rewrite_system(n)
    checks = Checks()

    # arguments must avoid the letter F = f_n so that ad_F is nilpotent; at
    # N = 1 every root vector contains f_1, so the identity has no arguments
    # and is not reported
    us = [jimbo(i, j, n) for i, j in positive_roots(n) if j <= n] if check_shift else []
    if us:
        name = "conjugation-operator shift identity (formal)"
        checks.declare(name)
        minus_one_t = WeightScalar.const(1, RatQ.from_int(-1), "t")
        us.append(us[0] * us[-1])
        for u in us:
            inner = LocElement(n, n, {0: sigma_aut(u, n), -1: ad_F(u, n)})
            lhs = psi_loc(None, inner, n, rs, formal=True)
            rhs = psi(None, u, n, rs, formal=True)
            rhs = LocElement(
                n, n, {j: p.map_scalars(ws_t_rescale) for j, p in rhs.terms.items()}
            )
            W, _ = (lhs + rhs.scale(minus_one_t)).cleared(rs)
            checks.check(name, W.is_zero())

    if lam is not None:
        lams = [tuple(lam)]
    else:
        lams = sample_dominant_chain(n, m, samples, seed=seed, spread=1)

    # the element itself produces highest weight vectors of the right weight;
    # each weight's element is built once and reused by the comparisons below
    hwv_name = f"level-{m} element produces highest weight vectors"
    weight_name = f"level-{m} element lowers the weight by m*eta"
    checks.declare(hwv_name, weight_name)
    elements = {}
    for w in lams:
        hw = HighestWeight.numeric(w)
        coords = theta_power(n, m, w, rs)
        elements[w] = coords
        vec = theta_vector(coords, hw, rs)
        checks.check(hwv_name, is_hwv(vec, rs), f"lambda={w}")
        checks.check(weight_name, vec.weight_offset() == (m,) * n, f"lambda={w}")

    # induction comparisons, where the reflection chain is admissible
    inductions = []
    skipped = []
    for w in lams:
        try:
            inductions.append((w, theta_inductive(n, m, w, rs)))
        except InductionPreconditionError:
            skipped.append(w)
    if inductions:
        pi0_name = "induction leading coefficient is the predicted v power"
        other = "closed sum" if m == 1 else f"level-{m} product"
        match_name = f"normalized induction equals the {other} ({len(inductions)} weights)"
        checks.declare(pi0_name, match_name)
        for w, res in inductions:
            checks.check(pi0_name, res.pi0 == res.predicted_pi0(), f"lambda={w}")
            expect = elements[w]
            if m > 1:
                inv = expect[pi0_monomial(n, m)].inverse()
                expect = {M: c * inv for M, c in expect.items()}
            checks.check(match_name, res.normalized() == expect, f"lambda={w}")
    if skipped:
        checks.declare(
            "induction comparison not applicable (chain exponent <= 0) at "
            + "; ".join(map(str, skipped))
        )

    # submodule picture: theta times F^p on the reflected weight is again a
    # highest weight vector, checked in the larger Verma module on theta's
    # normal form, so theta F^p is normal and needs no degree the induction
    # did not reach.  The check is reported only when some weight ran it,
    # never as a vacuous pass (at N = 1 none can)
    name = "theta F^p on the reflected weight is a highest weight vector"
    for w, res in inductions:
        if not res.r_values:  # N = 1: no reflected weight
            continue
        p = res.r_values[-1]
        hw_mu = HighestWeight.numeric(res.chain[n - 1])
        vec = vector_from_ncpoly(res.poly.rmul_word((n,) * p), hw_mu, rs)
        checks.check(name, is_hwv(vec, rs), f"lambda={w} p={p}")
    return checks.report()


# ----------------------------------------------------------------------------
# Basis/confluence suite
# ----------------------------------------------------------------------------

def suite_pbw(n: int) -> list[dict]:
    cap, height = 8, 8
    rs = complete(serre_relations(n), cap, n=n)
    checks = Checks()
    fails = audit_confluence(rs)
    checks.check(f"completion confluent to degree {cap}", not fails, str(fails[:2]))
    name = f"normal-word counts match partition counts to height {height}"
    checks.declare(name)
    for h in range(1, height + 1):
        for mu in weights_of_height(n, h):
            checks.check(name, rs.dim_weight_space(mu) == kostant_count(mu), str(mu))
    return checks.report()


# ----------------------------------------------------------------------------
# Negative control
# ----------------------------------------------------------------------------

def suite_negative(n: int, lam=None) -> list[dict]:
    """A weight off the hyperplane: e_1, ..., e_(N-1) still kill theta*v,
    but the final raising direction survives; its entry shows the surviving
    vector's first term.  theta*v is built segment by segment from the
    closed sum (shapovalov._level_one), with no PBW coordinates."""
    check_suite_args("negative", n, lam=lam)
    off = tuple(lam) if lam is not None else (0,) * n
    rs = get_rewrite_system(n)
    hw = HighestWeight.numeric(off)
    vec = VermaVector._kernel(hw, *_level_one(hw, rs))
    checks = Checks()
    for k in range(1, n):
        e = act_e(k, vec, rs)
        checks.check(f"e_{k} still kills theta*v off the hyperplane", e.is_zero(), e.witness())
    eN = act_e(n, vec, rs)
    name = f"e_{n} has a nonzero witness off the hyperplane"
    checks.check(name, not eN.is_zero(), "unexpected zero")
    checks.show(name, eN.witness())
    return checks.report()


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------

# suite name -> runner taking the keyword arguments of run_suite; a runner
# looks its suite function up when it runs
SUITES = {
    "hwv": lambda n, **kw: verify_hwv(n, **kw),
    "negative": lambda n, lam, **_: suite_negative(n, lam),
    "section2": lambda n, **_: suite_section2(n),
    "section3": lambda n, **_: suite_section3(n),
    "calculus": lambda n, seed, **_: suite_calculus(n, seed=seed),
    "section44": lambda n, seed, **_: suite_section44(n, seed=seed),
    "powers": lambda n, m, lam, samples, seed, **_: suite_powers(
        n, m, samples=samples, seed=seed, lam=lam
    ),
    "pbw": lambda n, **_: suite_pbw(n),
}


def check_suite_args(name: str, n: int, m: int = 1, mode: str = "symbolic", lam=None) -> None:
    """Raise ValueError for an unknown suite, for a weight or a level the
    suite would not read, or for arguments the suite refuses.  It builds
    nothing, so a caller can refuse the arguments before it loads a
    rewriting system."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if lam is not None and name not in ("hwv", "negative", "powers"):
        raise ValueError(f"the {name} suite takes no weight")
    if m != 1 and name not in ("hwv", "powers"):
        raise ValueError(f"the {name} suite is level-one only")
    if name == "section44" and n < 2:
        raise ValueError("requires rank >= 2")
    if name == "hwv":
        check_hwv_args(n, m, mode, lam)
    elif name == "powers" and lam is not None:
        check_power_weight(n, m, lam)
    elif name == "negative" and sum(lam if lam is not None else (0,) * n) == 1 - n:
        raise ValueError("negative control needs a weight off the hyperplane")


def run_suite(
    name: str,
    n: int,
    m: int = 1,
    mode: str = "symbolic",
    lam=None,
    samples: int = 5,
    seed: int = 0,
) -> list[dict]:
    check_suite_args(name, n, m, mode, lam)
    return SUITES[name](n, m=m, mode=mode, lam=lam, samples=samples, seed=seed)
