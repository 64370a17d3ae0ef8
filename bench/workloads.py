"""One round of one benchmark workload, in a fresh interpreter.

    python3 -B bench/workloads.py WORKLOAD --seed N --t0 T --out FILE
        [--smoke] [--spans FILE]

``bench/run.py`` starts this script once per round with ``PYTHONPATH`` set
to the checkout's ``src`` and ``QSHAPO_CACHE`` set to a fresh directory.  A
fresh interpreter per round matters: the library keeps process-wide caches
(``_SYSTEMS``, every system's ``_nf_cache``, ``_PBW_BASIS_CACHE`` and the
``lru_cache`` on ``jimbo`` and ``kostant_partitions``), so a second round in
the same process would run a different program.

The round has two phases.  Set-up imports qshapo and builds every rewriting
system the workload reads; the timed phase runs the workload's items.  Every
item checks its results against expected verdicts and, where an output is
rendered, against SHA-256 digests in ``expected.json``.  Only public
functions of the library are called, and weights are drawn here from the
seed; the library receives the drawn tuples.  With ``--spans`` the tracer
is installed before set-up and its spans are written to that file at the
end.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Sizes per workload.  "full" is what the benchmark measures; "smoke" is the
# smallest run of the same items, for the benchmark's own test.
SIZES = {
    "hwv-symbolic": {
        "full": {"ranks": (6, 7), "cap": 8},
        "smoke": {"ranks": (2, 3), "cap": 8},
    },
    "level-m": {
        "full": {
            # suite_powers at (n, m) over `count` weights drawn with `spread`
            "powers": {"n": 4, "m": 2, "count": 3, "spread": 1},
            "induction": {"n": 3, "m": 3, "count": 2, "spread": 1, "cap": 12},
            "large": {"n": 5, "m": 2, "count": 1, "spread": 0, "cap": 10},
            "negative": 4,
        },
        "smoke": {
            "powers": {"n": 2, "m": 2, "count": 2, "spread": 1},
            "induction": {"n": 2, "m": 3, "count": 1, "spread": 1, "cap": 10},
            "large": {"n": 3, "m": 2, "count": 1, "spread": 0, "cap": 10},
            "negative": 2,
        },
    },
    "certify": {
        "full": {"systems": ((4, 10), (5, 12)), "height": 6},
        "smoke": {"systems": ((2, 6), (3, 8)), "height": 4},
    },
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def coords_digest(coords: dict) -> str:
    """PBW coordinates rendered in the order the CLI prints them."""
    return sha("".join(f"{pbw}:{c}\n" for pbw, c in sorted(coords.items())))


def vector_digest(vec) -> str:
    return sha("".join(f"{w}:{c}\n" for w, c in vec.sorted_terms()))


def draw_weights(rng: random.Random, n: int, m: int, count: int, spread: int):
    """`count` dominant-chain weights for (n, m), drawn from the seed."""
    from qshapo import roots

    return roots.sample_dominant_chain(n, m, count, seed=rng.randrange(2**32), spread=spread)


# The timed phase is also counted in runs of a fixed reference loop timed
# beside it.  On a shared machine, other processes can slow this benchmark by
# 20-50% for tens of seconds at a time.  They slow the loop alike, so the
# ratio stays steady where the seconds do not.  The loop does what the library spends its
# time on (tuple-keyed dict updates and big-integer products) and nothing else:
# it must not change when the library does.
REF_LOOP = 2000
REF_INTERVAL_S = 0.05


def reference_loop() -> float:
    t = time.perf_counter()
    acc: dict = {}
    big = 3**40
    for i in range(REF_LOOP):
        key = (i % 61, i % 67)
        acc[key] = acc.get(key, 0) + big * i
        if i % 7 == 0:
            acc.pop((i % 61, (i + 1) % 67), None)
    return time.perf_counter() - t


class Round:
    """Items of one round, run in order.  Each item names its checks up
    front, so the number attempted does not depend on whether the item
    raised.  Items that need an earlier item's output read it from `state`;
    if that item failed, they raise and fail too.

    While an item runs, a timer runs the reference loop every
    REF_INTERVAL_S, and once before it starts.  `wall_s` is the items' time
    without the timer's share; `wall_ref` is the sum over items of that time
    divided by the mean reference-loop time seen during the item."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.state: dict = {}
        self.items: list[tuple[str, tuple[str, ...], object]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.wall_s = 0.0
        self.wall_ref = 0.0

    def add(self, name, checks, fn):
        self.items.append((name, tuple(checks), fn))

    def run(self):
        samples: list[float] = []
        in_timer = [0.0]

        def tick(signum, frame):
            t = time.perf_counter()
            samples.append(reference_loop())
            in_timer[0] += time.perf_counter() - t

        signal.signal(signal.SIGALRM, tick)
        for name, checks, fn in self.items:
            self.attempted += len(checks)
            first, timer_before = len(samples), in_timer[0]
            samples.append(reference_loop())
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
            try:
                results = fn()
                failed = [c for c, ok in zip(checks, results) if not ok]
            except Exception as exc:  # an item that raises fails all its checks
                failed = [f"{c}: raised {exc!r}" for c in checks]
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start - (in_timer[0] - timer_before)
            self.wall_s += elapsed
            self.wall_ref += elapsed / statistics.mean(samples[first:])
            self.failures += [f"{name}: {c}" for c in failed]


def all_pass(report) -> bool:
    return bool(report) and all(entry["status"] == "pass" for entry in report)


# ----------------------------------------------------------------------------
# hwv-symbolic
# ----------------------------------------------------------------------------

def setup_hwv(size):
    from qshapo import freealg

    return {n: freealg.get_rewrite_system(n, size["cap"]) for n in size["ranks"]}


def items_hwv(rnd: Round, size, systems, rng):
    from qshapo import shapovalov, verma

    state = rnd.state
    for n in size["ranks"]:
        rs = systems[n]

        def verify(n=n, rs=rs):
            report = shapovalov.verify_hwv(n, 1, "symbolic", rs=rs)
            return [len(report) == n and all_pass(report)]

        # Negative control: e_N does not kill theta*v at the unconstrained
        # weight; the hyperplane constraint is what makes the last check pass.
        def free_vector(n=n, rs=rs):
            free = verma.HighestWeight.symbolic(n)
            vec = shapovalov.theta_vector(shapovalov.theta_sum(n).evaluate(free), free, rs)
            state["free", n] = vec
            return [not vec.is_zero()]

        def raise_free(n=n, rs=rs):
            e = verma.act_e(n, state["free", n], rs)
            return [not e.is_zero(), vector_digest(e) == rnd.expected["hwv_negative"][str(n)]]

        rnd.add(f"verify_hwv N={n}", ["all checks pass"], verify)
        rnd.add(f"theta*v at the free weight N={n}", ["vector nonzero"], free_vector)
        rnd.add(f"e_N on theta*v at the free weight N={n}",
                ["witness nonzero", "witness digest"], raise_free)


# ----------------------------------------------------------------------------
# level-m
# ----------------------------------------------------------------------------

def setup_level_m(size):
    from qshapo import freealg

    # suite_powers and the negative suite read the default-cap systems
    freealg.get_rewrite_system(size["powers"]["n"])
    freealg.get_rewrite_system(size["negative"])
    return {
        key: freealg.get_rewrite_system(size[key]["n"], size[key]["cap"])
        for key in ("induction", "large")
    }


def add_power_items(rnd: Round, n: int, m: int, w, rs):
    """theta_power at w against its digest, then its highest-weight test."""
    from qshapo import shapovalov, verma

    def power():
        tp = shapovalov.theta_power(n, m, w, rs)
        rnd.state["power", n, m, w] = tp
        return [coords_digest(tp) == rnd.expected["theta_power"][f"{n},{m},{w}"]]

    def hwv():
        tp = rnd.state["power", n, m, w]
        hw = verma.HighestWeight.numeric(w)
        return [verma.is_hwv(shapovalov.theta_vector(tp, hw, rs), rs)]

    rnd.add(f"theta_power {n, m} at {w}", ["power digest"], power)
    rnd.add(f"is_hwv of the power {n, m} at {w}", ["power is a highest weight vector"], hwv)


def items_level_m(rnd: Round, size, systems, rng):
    from qshapo import shapovalov, suites

    p = size["powers"]
    for i, w in enumerate(draw_weights(rng, p["n"], p["m"], p["count"], p["spread"])):
        def powers(w=w, first=(i == 0)):
            report = suites.suite_powers(p["n"], p["m"], lam=w, check_shift=first)
            return [all_pass(report)]

        rnd.add(f"suite_powers {p['n'], p['m']} at {w}", ["all checks pass"], powers)

    ind = size["induction"]
    rs3 = systems["induction"]
    for w in draw_weights(rng, ind["n"], ind["m"], ind["count"], ind["spread"]):
        add_power_items(rnd, ind["n"], ind["m"], w, rs3)

        def induction(w=w, n=ind["n"], m=ind["m"]):
            tp = rnd.state["power", n, m, w]
            res = shapovalov.theta_inductive(n, m, w, rs3)
            lead = tuple(sorted([(i, i + 1) for i in range(1, n + 1)] * m))
            inv = tp[lead].inverse()
            return [
                {M: c * inv for M, c in tp.items()} == res.normalized(),
                res.pi0 == res.predicted_pi0(),
            ]

        rnd.add(f"theta_inductive {ind['n'], ind['m']} at {w}",
                ["normalized induction equals power", "leading coefficient prediction"],
                induction)

    big = size["large"]
    for w in draw_weights(rng, big["n"], big["m"], big["count"], big["spread"]):
        add_power_items(rnd, big["n"], big["m"], w, systems["large"])

    def negative(n=size["negative"]):
        # off the hyperplane e_N must leave a nonzero witness
        report = suites.run_suite("negative", n)
        return [len(report) == n and all_pass(report)]

    rnd.add(f"negative suite N={size['negative']}", ["all checks pass"], negative)


# ----------------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------------

def setup_certify(size):
    return {}


def weights_up_to(n: int, height: int):
    for h in range(1, height + 1):
        for mu in itertools.product(range(h + 1), repeat=n):
            if sum(mu) == h:
                yield mu


def dimensions_match(rs, n: int, height: int) -> bool:
    from qshapo import roots

    return all(rs.dim_weight_space(mu) == roots.kostant_count(mu) for mu in weights_up_to(n, height))


def drop_rule_block(text: str, rng: random.Random, max_lead: int) -> str:
    """The system's text without one seeded rule block whose lead has at
    most `max_lead` letters, with the header's rule count lowered to match,
    so that the text still parses."""
    lines = text.splitlines(keepends=True)
    starts = [i for i, ln in enumerate(lines) if ln.startswith("LEAD ")]
    short = [i for i in starts if len(lead_of(lines[i])) <= max_lead]
    cut = rng.choice(short)
    end = next((i for i in starts if i > cut), len(lines))
    header = lines[1].split()
    header = [f"rules={len(starts) - 1}" if h.startswith("rules=") else h for h in header]
    return "".join(lines[:1] + [" ".join(header) + "\n"] + lines[2:cut] + lines[end:])


def lead_of(line: str) -> tuple[int, ...]:
    return tuple(int(x) for x in line[5:].split(","))


def items_certify(rnd: Round, size, systems, rng):
    from qshapo import cli, freealg

    cache_dir = Path(os.environ["QSHAPO_CACHE"])
    height = size["height"]
    state = rnd.state
    for n, cap in size["systems"]:
        def build(n=n, cap=cap):
            rs, first = cli.load_or_build(n, cap, cache_dir)
            again, second = cli.load_or_build(n, cap, cache_dir)
            state["built", n], state["loaded", n] = rs, again
            return [
                first == "built",
                second == "loaded" and again.rules == rs.rules,
                sha(rs.to_text()) == rnd.expected["systems"][f"{n},{cap}"],
            ]

        def audit(n=n):
            return [freealg.audit_confluence(state["loaded", n]) == []]

        def dimensions(n=n):
            return [dimensions_match(state["loaded", n], n, height)]

        rnd.add(f"load_or_build N={n} cap={cap}",
                ["first call builds", "second call loads equal rules", "text digest"], build)
        rnd.add(f"audit_confluence N={n}", ["audit empty"], audit)
        rnd.add(f"normal words N={n}", ["counts match Kostant partitions"], dimensions)

    n_neg = size["systems"][-1][0]

    def negative():
        # a system missing one rule must fail the dimension check
        text = drop_rule_block(state["built", n_neg].to_text(), rng, height)
        return [not dimensions_match(freealg.RewriteSystem.from_text(text), n_neg, height)]

    rnd.add(f"negative control N={n_neg}", ["dimension check fails"], negative)


WORKLOADS = {
    "hwv-symbolic": (setup_hwv, items_hwv),
    "level-m": (setup_level_m, items_level_m),
    "certify": (setup_certify, items_certify),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this interpreter was started")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    import qshapo  # noqa: F401  (set-up includes the import)

    tracer = None
    if args.spans is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    size = SIZES[args.workload]["smoke" if args.smoke else "full"]
    expected = json.loads((HERE / "expected.json").read_text())
    setup, add_items = WORKLOADS[args.workload]
    systems = setup(size)
    rnd = Round(expected)
    add_items(rnd, size, systems, random.Random(args.seed))

    t_start = time.monotonic()
    rnd.run()

    result = {
        "setup_s": t_start - args.t0,
        "wall_s": rnd.wall_s,
        "wall_ref": rnd.wall_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": rnd.attempted,
        "failures": rnd.failures,
    }
    if tracer is not None:
        result["counts"] = tracer.finish_counts()
        tracer.write_spans(args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
