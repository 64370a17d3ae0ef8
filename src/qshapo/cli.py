"""Command-line front end: compute elements and run verification suites.

Each command builds the rank's rewriting system in process
(freealg.get_rewrite_system, from the closed-form overlap schedule), or
leaves that to the construction or suite it calls; nothing is read from or
written to disk.

Exit codes: 0 success, 1 a verification check failed, 2 invalid weight
(including a --lambda off the hyperplane (lam + rho, eta) = m where the
element needs it, or one the command would not read) or arguments, 4 an
internal inconsistency (a singular PBW system, a failed right division, an
ad_F iterate that does not vanish, a construction result its derivation
rules out, or a rewriting system whose schedule or count certificate
fails), 5 out of memory (a MemoryError: the computation outgrew the
machine; no size is refused in advance).  No degree is refused: the
rewriting system extends itself as far as a computation needs.  Output is
deterministic for a fixed argument vector (sampling is seeded, never
wall-clock)."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from .freealg import (
    CacheCorrupt,
    RewriteSystem,
    build_serre_system,
    latex_document,
    serre_relations,
)
from .shapovalov import (
    InconsistentResult,
    InductionPreconditionError,
    WeightError,
    theta_det,
    theta_inductive,
    theta_power,
    theta_sum,
)
from .suites import SUITES, run_suite
from .uqsl import NilpotencyCapExceeded, NotRightDivisible, SingularSystem
from .verma import HighestWeight


# ----------------------------------------------------------------------------
# Rewrite-system file (for the benchmark only)
# ----------------------------------------------------------------------------

def cache_path(cache_dir: Path, n: int, cap: int) -> Path:
    """The file load_or_build reads and writes.  Only the benchmark calls it;
    it is kept until ROADMAP item 2, then item 7, removes it."""
    return cache_dir / f"rws_n{n}_cap{cap}.txt"


def load_or_build(n: int, cap: int, cache_dir: Path):
    """Return (system, status) with status in built/loaded/rebuilt.  The
    cap is the system's initial degree; the system extends itself beyond it.
    Only the benchmark calls it; it is kept until ROADMAP item 2, then
    item 7, removes it.

    A built system comes from freealg.build_serre_system, the closed-form
    schedule with its count certificate, and extends itself by that
    schedule.  A loaded system is trusted only if it passes the checks of
    RewriteSystem.from_text, its header matches, every Serre relation
    reduces to 0 in it and the same certificate holds, each degree d <= cap
    having p_N(d) normal words (RewriteSystem.count_failure); otherwise it
    is rebuilt with a warning.  A loaded system has no schedule and extends
    itself by completion (see RewriteSystem).
    The cache file is written to a temp file beside it and moved into place,
    so a concurrent run reads either the old file or the whole new one."""
    path = cache_path(cache_dir, n, cap)
    status = "built"
    if path.exists():
        try:
            rs = RewriteSystem.from_text(path.read_text())
            if rs.n != n or rs.cap != cap:
                raise CacheCorrupt("header mismatch")
            if any(rs.normal_form(rel) for rel in serre_relations(n)):
                raise CacheCorrupt("a Serre relation has a nonzero normal form")
            failure = rs.count_failure(0, cap)
            if failure:
                raise CacheCorrupt(failure)
            return rs, "loaded"
        except CacheCorrupt as exc:
            print(f"warning: cache {path} is corrupt ({exc}); rebuilding", file=sys.stderr)
            status = "rebuilt"
    rs = build_serre_system(n, cap)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=path.name + ".", suffix=".tmp", delete=False
    )
    try:
        with tmp:
            tmp.write(rs.to_text())
        os.replace(tmp.name, path)
    except BaseException:
        os.unlink(tmp.name)
        raise
    return rs, status


# ----------------------------------------------------------------------------
# theta
# ----------------------------------------------------------------------------

def _render_evaluated(coords: dict, cfg: argparse.Namespace) -> str:
    items = sorted(coords.items())
    if cfg.fmt == "json":
        obj = {
            "n": cfg.n,
            "m": cfg.m,
            "method": cfg.method,
            "lambda": list(cfg.lam) if cfg.lam is not None else None,
            "terms": [
                {"pbw": [list(p) for p in pbw], "coeff": str(c)} for pbw, c in items
            ],
        }
        return json.dumps(obj, indent=2)
    if cfg.fmt == "latex":
        parts = []
        for pbw, c in items:
            fs = "".join(f"f_{{{i},{j}}}" for (i, j) in pbw) or "1"
            parts.append(f"\\left({c}\\right) {fs}")
        return latex_document(" + ".join(parts))
    parts = []
    for pbw, c in items:
        fs = "".join(f"f[{i},{j}]" for (i, j) in pbw) or "1"
        cs = str(c)
        parts.append(fs if cs == "1" else f"({cs})\u00b7{fs}")
    return " + ".join(parts)


def cmd_theta(cfg: argparse.Namespace) -> int:
    if cfg.lam is not None and len(cfg.lam) != cfg.n:
        print(f"error: lambda must have {cfg.n} entries", file=sys.stderr)
        return 2
    if cfg.method in ("sum", "det") and cfg.m != 1:
        print("error: the sum and determinant forms are level-one; use "
              "--method power or inductive for m > 1", file=sys.stderr)
        return 2
    if cfg.method == "sum":
        if cfg.lam is not None:
            print("error: the sum form takes no weight; use --method det to evaluate it",
                  file=sys.stderr)
            return 2
        element = theta_sum(cfg.n)
        if cfg.fmt == "json":
            print(json.dumps(element.to_json_obj(), indent=2))
        elif cfg.fmt == "latex":
            print(element.to_latex(), end="")
        else:
            print(element.to_text())
        return 0
    if cfg.method == "det":
        if cfg.lam is not None:
            hw = HighestWeight.numeric(cfg.lam)
        else:
            hw = HighestWeight.symbolic(cfg.n, hyperplane_m=cfg.m)
        coords = theta_det(cfg.n, hw)
        print(_render_evaluated(coords, cfg))
        return 0
    # inductive or power, the last two --method choices
    if cfg.lam is None:
        print("error: this method needs --lambda", file=sys.stderr)
        return 2
    if cfg.method == "inductive":
        coords = theta_inductive(cfg.n, cfg.m, cfg.lam).normalized()
    else:
        coords = theta_power(cfg.n, cfg.m, cfg.lam)
    print(_render_evaluated(coords, cfg))
    return 0


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def cmd_verify(cfg: argparse.Namespace) -> int:
    checks = run_suite(
        cfg.suite,
        cfg.n,
        m=cfg.m,
        mode=cfg.mode,
        lam=cfg.lam,
        samples=cfg.samples,
        seed=cfg.seed,
    )
    all_pass = all(c["status"] == "pass" for c in checks)
    obj = {
        "suite": cfg.suite,
        "n": cfg.n,
        "m": cfg.m,
        "checks": checks,
        "all_pass": all_pass,
    }
    print(json.dumps(obj, indent=2, default=str))
    return 0 if all_pass else 1


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------

def _parse_lambda(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("lambda must be comma-separated integers")


def _joined_lambda(argv: list) -> list:
    """argv with '--lambda X' (or an abbreviation, such as '--lam X')
    written '--lambda=X' where X starts with '-' and a digit: argparse takes
    such an X, unless it is one integer, for an option, so '--lambda -1,0'
    would lose its weight."""
    out = []
    for arg in argv:
        after_lambda = out and out[-1].startswith("--l") and "--lambda".startswith(out[-1])
        if after_lambda and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qshapo",
        description="Exact Shapovalov-element computations for quantized sl(N+1).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("theta", help="compute a Shapovalov element")
    t.add_argument("--n", type=int, required=True, help="rank N")
    t.add_argument("--m", type=int, default=1, help="level m")
    t.add_argument(
        "--method", choices=["sum", "det", "inductive", "power"], default="sum"
    )
    t.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None)
    t.add_argument("--format", dest="fmt", choices=["text", "json", "latex"], default="text")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=sorted(SUITES), required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--m", type=int, default=1)
    v.add_argument("--mode", choices=["symbolic", "sampled"], default="symbolic")
    v.add_argument("--samples", type=int, default=5)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cfg = build_parser().parse_args(_joined_lambda(argv))
    # theta has no --samples
    if cfg.n < 1 or cfg.m < 1 or getattr(cfg, "samples", 1) < 1:
        print("error: n, m and samples must be positive", file=sys.stderr)
        return 2
    try:
        return cmd_theta(cfg) if cfg.command == "theta" else cmd_verify(cfg)
    except (WeightError, InductionPreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        SingularSystem, NotRightDivisible, NilpotencyCapExceeded, InconsistentResult
    ) as exc:
        print(f"error: internal inconsistency ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
