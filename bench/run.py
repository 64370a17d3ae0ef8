"""The qshapo benchmark.

    python3 bench/run.py --workload {hwv-symbolic,level-m,certify,all}
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout.  Each round of a workload is one fresh
single-threaded interpreter (bench/workloads.py) with ``PYTHONPATH=src``, a
fresh empty ``QSHAPO_CACHE`` directory under ``.bench_work/`` and
``PYTHONDONTWRITEBYTECODE=1``; rounds run one after another.

``--trace 0`` runs rounds until the next one would end after ``--seconds``
(at least one) and reports the median of each end-to-end metric:
``setup_s`` (interpreter start to the first timed call: the import plus a
cold build of every rewriting system the workload reads), ``wall_ref`` (all
items of the workload and their checks, counted in runs of a reference loop
timed beside them; see bench/workloads.py) and ``peak_rss_mb`` (the round's
high-water resident set).  Each round's values, with the timed phase in
seconds (``wall_s``), are printed too.  ``--trace 1`` runs one untraced and
one traced round and reports the per-layer metrics of the traced one, plus
``trace.overhead_s``, the traced wall time minus the untraced one.

Every item checks its outputs against expected verdicts and digests; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print each
metric with its unit, the failure ratio and the platform.  ``--smoke`` runs
one round at the smallest sizes.  See bench/README.md for the workloads.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hwv-symbolic", "level-m", "certify")
ROUND_TIMEOUT_S = 170

# Metric names and units come from BENCHMARK.json.  A per-layer name ending
# in _s is the summed self time of the span without the suffix, except
# trace.overhead_s; any other per-layer name is a counter kept by the tracer.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
# printed for each round beside the metrics
PER_ROUND = [("setup_s", "s"), ("wall_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB")]


class BenchError(Exception):
    pass


def run_round(work: Path, workload: str, seed: int, smoke: bool, traced: bool, deadline: float) -> dict:
    """One round in a fresh interpreter; returns its result dict."""
    rdir = Path(tempfile.mkdtemp(dir=work))
    (rdir / "cache").mkdir()
    out = rdir / "result.json"
    cmd = [sys.executable, "-B", str(HERE / "workloads.py"), workload,
           "--seed", str(seed), "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--spans", str(rdir / "spans.tsv")]
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        QSHAPO_CACHE=str(rdir / "cache"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    timeout = max(1.0, min(ROUND_TIMEOUT_S, deadline - time.monotonic()))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} round exited with status {proc.returncode}")
    result = json.loads(out.read_text())
    if traced:
        result["self_s"] = self_times(rdir / "spans.tsv")
    shutil.rmtree(rdir)
    return result


def measure(work: Path, workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    start = time.monotonic()
    deadline = start + ROUND_TIMEOUT_S
    rounds = [run_round(work, workload, seed, smoke, False, deadline)]
    if trace:
        traced = run_round(work, workload, seed, smoke, True, deadline)
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = traced["wall_s"] - rounds[0]["wall_s"]
            elif name.endswith("_s"):
                value = traced["self_s"].get(name[:-2], 0.0)
            else:
                value = traced["counts"].get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
        rounds.append(traced)
    else:
        while not smoke:
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(rounds) > seconds:
                break
            rounds.append(run_round(work, workload, seed, smoke, False, deadline))
        metrics = {
            name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
            for name, unit in END_TO_END
        }
    failures = [f for r in rounds for f in r["failures"]]
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": len(failures),
        "metrics": metrics,
        "per_round": rounds,
        "failures": failures,
    }


def report(workload: str, seed: int, res: dict):
    print(f"# {workload}  seed {seed}  rounds {len(res['per_round'])}  python {platform.python_version()}"
          f"  {platform.system().lower()}-{platform.machine()}  nproc {os.cpu_count()}")
    for name, m in res["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    for name, unit in PER_ROUND:
        print(f"{name} per round ({unit}): " + " ".join(f"{r[name]:.6g}" for r in res["per_round"]))
    print(f"{'fail_ratio':32s} {res['failed'] / res['attempted']:>16.6g} ratio"
          f"  ({res['failed']}/{res['attempted']})")
    for f in res["failures"]:
        print(f"FAIL {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qshapo benchmark")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one round at the smallest sizes")
    args = ap.parse_args(argv)

    # on SIGTERM, unwind so that the running round is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "qshapo" / "__init__.py").is_file():
        print(f"error: no qshapo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {}
        for name in names:
            results[name] = measure(work, name, args.seed, args.seconds, bool(args.trace), args.smoke)
            report(name, args.seed, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
