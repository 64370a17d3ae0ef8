"""Command-line front end: compute elements, run verification suites, and
manage the on-disk rewrite-system cache.

Exit codes: 0 success, 1 a verification check failed, 2 invalid weight
(including a --lambda off the hyperplane (lam + rho, eta) = m where the
element needs it) or arguments, 4 an internal inconsistency (a singular PBW
system, a failed right division, an ad_F iterate that does not vanish, or a
construction result its derivation rules out).  No degree is refused: the
rewriting system completes itself as far as a computation needs.  A cache
file that fails to parse, has the wrong header, has one leading word inside
another, leaves a Serre relation nonzero or has other than p_N(d) normal
words in a degree d up to its cap is rebuilt with a warning; one that is
wrong in another way can still cause exit 4.  Output is
deterministic for a fixed argument vector (sampling is seeded, never
wall-clock)."""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import freealg
from .freealg import (
    CacheCorrupt,
    RewriteSystem,
    complete,
    default_cap,
    latex_document,
    serre_relations,
)
from .roots import pbw_dimension
from .shapovalov import (
    InconsistentResult,
    InductionPreconditionError,
    WeightError,
    check_power_weight,
    reflection_chain,
    theta_det,
    theta_inductive,
    theta_power,
    theta_sum,
)
from .suites import SUITES, check_suite_args, run_suite
from .uqsl import NilpotencyCapExceeded, NotRightDivisible, SingularSystem
from .verma import HighestWeight

ENV_CACHE = "QSHAPO_CACHE"


@dataclass
class JobConfig:
    command: str
    n: int = 1
    m: int = 1
    lam: tuple | None = None
    mode: str = "symbolic"
    samples: int = 5
    seed: int = 0
    fmt: str = "text"
    method: str = "sum"
    suite: str | None = None
    cache_dir: str | None = None


# ----------------------------------------------------------------------------
# Cache management
# ----------------------------------------------------------------------------

def resolve_cache_dir(cfg_dir: str | None) -> Path:
    if cfg_dir:
        return Path(cfg_dir)
    env = os.environ.get(ENV_CACHE)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "qshapo"


def cache_path(cache_dir: Path, n: int, cap: int) -> Path:
    return cache_dir / f"rws_n{n}_cap{cap}.txt"


def load_or_build(n: int, cap: int, cache_dir: Path):
    """Return (system, status) with status in built/loaded/rebuilt.  The
    cap is the system's initial degree; the system extends itself beyond it.

    A loaded system is trusted only if it passes the checks of
    RewriteSystem.from_text, its header matches, every Serre relation
    reduces to 0 in it and each degree d <= cap has p_N(d) normal words;
    otherwise it is rebuilt with a warning.  A built system carries the
    dimensions p_N(d), a loaded one does not (see RewriteSystem).
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
            for d in range(1, cap + 1):
                got, want = rs.count_normal_words(d), pbw_dimension(n, d)
                if got != want:
                    raise CacheCorrupt(f"{got} normal words in degree {d}, not {want}")
            return rs, "loaded"
        except CacheCorrupt as exc:
            print(f"warning: cache {path} is corrupt ({exc}); rebuilding", file=sys.stderr)
            status = "rebuilt"
    rs = complete(serre_relations(n), cap, n=n, dimensions=partial(pbw_dimension, n))
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


def _register_system(n: int, cap: int, cache_dir: Path) -> RewriteSystem:
    """Load (or build) the system and make it the rank's process-wide
    system so downstream code picks it up."""
    rs, _ = load_or_build(n, cap, cache_dir)
    freealg._SYSTEMS[n] = rs
    return rs


# ----------------------------------------------------------------------------
# theta
# ----------------------------------------------------------------------------

def _render_evaluated(coords: dict, cfg: JobConfig) -> str:
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


def cmd_theta(cfg: JobConfig) -> int:
    if cfg.lam is not None and len(cfg.lam) != cfg.n:
        print(f"error: lambda must have {cfg.n} entries", file=sys.stderr)
        return 2
    if cfg.method in ("sum", "det") and cfg.m != 1:
        print("error: the sum and determinant forms are level-one; use "
              "--method power or inductive for m > 1", file=sys.stderr)
        return 2
    if cfg.method == "sum":
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
    if cfg.method in ("inductive", "power"):
        if cfg.lam is None:
            print("error: this method needs --lambda", file=sys.stderr)
            return 2
        if cfg.method == "power":
            check_power_weight(cfg.n, cfg.m, cfg.lam)
        else:
            reflection_chain(cfg.n, cfg.lam)
        rs = _register_system(cfg.n, default_cap(cfg.n), resolve_cache_dir(cfg.cache_dir))
        if cfg.method == "inductive":
            coords = theta_inductive(cfg.n, cfg.m, cfg.lam, rs).normalized()
        else:
            coords = theta_power(cfg.n, cfg.m, cfg.lam, rs)
        print(_render_evaluated(coords, cfg))
        return 0
    print(f"error: unknown method {cfg.method}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def cmd_verify(cfg: JobConfig) -> int:
    check_suite_args(cfg.suite, cfg.n, cfg.m, cfg.mode, cfg.lam)
    _register_system(cfg.n, default_cap(cfg.n), resolve_cache_dir(cfg.cache_dir))
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
# cache
# ----------------------------------------------------------------------------

def cmd_cache(cfg: JobConfig) -> int:
    cache_dir = resolve_cache_dir(cfg.cache_dir)
    cap = default_cap(cfg.n)
    rs, status = load_or_build(cfg.n, cap, cache_dir)
    path = cache_path(cache_dir, cfg.n, cap)
    if status == "loaded":
        print(f"loaded from cache: {len(rs.rules)} rules (n={cfg.n}, cap={cap}) at {path}")
    else:
        print(f"{status}: {len(rs.rules)} rules (n={cfg.n}, cap={cap}), cached at {path}")
    return 0


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------

def _parse_lambda(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("lambda must be comma-separated integers")


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
    t.add_argument("--cache-dir", default=None)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=sorted(SUITES), required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--m", type=int, default=1)
    v.add_argument("--mode", choices=["symbolic", "sampled"], default="symbolic")
    v.add_argument("--samples", type=int, default=5)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None)
    v.add_argument("--cache-dir", default=None)

    c = sub.add_parser("cache", help="build or inspect the rewrite-system cache")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--cache-dir", default=None)
    return ap


def main(argv=None) -> int:
    cfg = JobConfig(**vars(build_parser().parse_args(argv)))
    if cfg.n < 1 or cfg.m < 1 or cfg.samples < 1:
        print("error: n, m and samples must be positive", file=sys.stderr)
        return 2
    try:
        if cfg.command == "theta":
            return cmd_theta(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "cache":
            return cmd_cache(cfg)
    except (WeightError, InductionPreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        SingularSystem, NotRightDivisible, NilpotencyCapExceeded, InconsistentResult
    ) as exc:
        print(f"error: internal inconsistency ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4
    print(f"error: unknown command {cfg.command}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
