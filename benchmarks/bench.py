"""ecoinfer benchmark: one workload per run, or all of them with --all.

    python3 benchmarks/bench.py --workload experiment-c1 --seed 1 \
        --seconds 30 --trace 0
    python3 benchmarks/bench.py --all --seconds 30

A run sets up its inputs several times, runs one warm-up iteration, then
runs whole iterations of the workload in a closed loop until ``--seconds``
have passed, checking every iteration's outputs. Times are rescaled to a
reference machine speed measured while they run (see ``calibrate.py``).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, from untraced iterations only; with ``--trace 1``
untraced and traced iterations alternate, and the metrics are the
per-layer ones (see ``tracing.py``). A full record of each run, with
provenance, per-iteration samples and quartiles, goes to
``benchmarks/out/``.

The program is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the run exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5
OVERRUN = 0.1  # share of --seconds a run may overshoot its deadline

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(HERE))
from calibrate import Calibrator  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import DEFAULT_N, DEFAULT_SEED, WORKLOADS, digest  # noqa: E402

_IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                 "t = time.perf_counter(); import ecoinfer; "
                 "t = time.perf_counter() - t; import calibrate; "
                 "print(t, calibrate.scale_now())")


def import_program() -> None:
    if not (SRC / "ecoinfer" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ecoinfer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ecoinfer
    if not Path(ecoinfer.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: ecoinfer came from {ecoinfer.__file__}, "
                         f"not {SRC}")


def import_seconds() -> tuple[float, float]:
    """Wall time of ``import ecoinfer`` in a fresh interpreter, and the
    scale to the reference speed measured there right after it."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC),
                           str(HERE)], capture_output=True, text=True,
                          check=True, cwd=ROOT, timeout=60)
    seconds, scale = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(scale)


def summary(values: list[float], unit: str) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "samples": len(values), "unit": unit}


def provenance(workload: str, seed: int, n: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "n": n,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha()}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _numpy_key() -> str:
    # numpy promises no Generator stream stability across major versions.
    import numpy
    return f"numpy-{numpy.__version__.split('.')[0]}"


def reference_digest(name: str, seed: int, n: int) -> str | None:
    if n != DEFAULT_N or not REFERENCE.is_file():
        return None
    refs = json.loads(REFERENCE.read_text())
    return refs.get(_numpy_key(), {}).get(name, {}).get(str(seed))


def record_reference(name: str, seed: int) -> int:
    """Store one checked iteration's output digest as the reference."""
    record = run_workload(name, seed, 0, False)
    if not record["correct"]:
        print("\n".join(record["problems"]), file=sys.stderr)
        return 1
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    refs.setdefault(_numpy_key(), {}).setdefault(name, {})[str(seed)] = \
        record["digest"]
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"{_numpy_key()} {name} seed {seed}: {record['digest']}")
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n: int = DEFAULT_N, reference: str | None = None) -> dict:
    """Set up and run one workload; return the full record of the run.

    ``reference`` is the expected digest of every iteration's outputs;
    None means only the reference-free invariants are checked.
    """
    workload = WORKLOADS[name](seed, n)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    try:
        cal = Calibrator()
        raw_setups, setups = [], []
        for _ in range(SETUP_REPEATS):
            imported, scale_import = import_seconds()
            _, prep, scale_prep = cal.timed(workload.setup, work / "inputs")
            raw_setups.append(imported + prep)
            setups.append(imported * scale_import + prep * scale_prep)

        tracer = Tracer() if trace else None
        raw_walls: list[float] = []
        walls = {"untraced": [], "traced": []}
        layers: list[dict] = []
        problems: list[str] = []
        attempted = failed = 0
        first = None
        deadline = None
        while True:
            # Iteration 0 warms caches and lazy imports up, and is checked
            # but not timed; the deadline starts after it.
            warm_up = attempted == 0
            traced = trace and attempted % 2 == 0 and not warm_up
            out = work / f"iter-{attempted}"
            attempted += 1
            bad: list[str] = []
            if traced:
                tracer.install(attempted)
            t0 = time.perf_counter()
            try:
                result, wall, scale = cal.timed(workload.run, out)
            except Exception:
                bad.append(f"raised: {traceback.format_exc(limit=3)}")
            finally:
                if traced:
                    tracer.uninstall()
            if not bad:
                try:
                    got = digest(workload.outputs(out, result))
                    if first is None:
                        first = got
                        bad += workload.invariants(out, result)
                    elif got != first:
                        bad.append("outputs differ from the first iteration")
                    if reference is not None and got != reference:
                        bad.append(f"digest {got} != reference {reference}")
                except Exception:
                    bad.append(f"check raised: "
                               f"{traceback.format_exc(limit=3)}")
            if bad:
                failed += 1
                problems += [f"iteration {attempted}: {p}" for p in bad]
            elif not warm_up:
                walls["traced" if traced else "untraced"].append(wall * scale)
                if traced:
                    layers.append({
                        k: v * scale if PER_LAYER[k][0] == "s" else v
                        for k, v in tracer.layer_metrics(attempted).items()})
                else:
                    raw_walls.append(wall)
            shutil.rmtree(out, ignore_errors=True)
            now = time.perf_counter()
            if warm_up:
                deadline = now + seconds
                continue
            if trace and attempted < 3:
                continue
            # Stop at the deadline, or early when one more iteration as long
            # as the last would end more than OVERRUN past it.
            if now >= deadline or 2 * now - t0 > deadline + OVERRUN * seconds:
                break

        record = {
            "provenance": provenance(name, seed, n),
            "trace": trace,
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "problems": problems,
            "digest": first,
            "reference": reference,
            "samples": {"wall_s": walls["untraced"],
                        "traced_wall_s": walls["traced"],
                        "setup_s": setups,
                        "raw_wall_s": raw_walls, "raw_setup_s": raw_setups,
                        "tick_s": cal.ticks},
        }
        stats = {"setup_s": summary(setups, "s"),
                 "raw_setup_s": summary(raw_setups, "s")}
        if walls["untraced"]:
            stats["wall_s"] = summary(walls["untraced"], "s")
            stats["raw_wall_s"] = summary(raw_walls, "s")
        stats["peak_rss_mb"] = summary(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MB")
        if trace:
            record["spans"] = tracer.span_records()
            for key, (unit, _) in PER_LAYER.items():
                if key == "trace_overhead_s":
                    if walls["traced"] and walls["untraced"]:
                        stats[key] = summary(
                            [statistics.median(walls["traced"])
                             - statistics.median(walls["untraced"])], unit)
                elif layers:
                    stats[key] = summary([m[key] for m in layers], unit)
        record["stats"] = stats
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_line(record: dict) -> dict:
    """The result line: end-to-end or per-layer medians."""
    keys = PER_LAYER if record["trace"] else END_TO_END
    metrics = {k: {"value": record["stats"][k]["median"],
                   "unit": record["stats"][k]["unit"]}
               for k in keys if k in record["stats"]}
    return {"correct": record["correct"] and len(metrics) == len(keys),
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def print_human(record: dict) -> None:
    p = record["provenance"]
    print(f"# {p['workload']} seed={p['seed']} n={p['n']} "
          f"trace={int(record['trace'])} nproc={p['nproc']} cpu={p['cpu']!r} "
          f"python={p['python']} numpy={p['numpy']} scipy={p['scipy']} "
          f"git={p['git_sha']}")
    for key, s in record["stats"].items():
        print(f"{key} = {s['median']:.6g} {s['unit']} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['samples']})")
    print(f"error_rate = {record['error_rate']:.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    for problem in record["problems"]:
        print(f"! {problem}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--n", str(args.n)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            rows.append({"workload": name, "trace": trace,
                         **json.loads(done.stdout.strip().splitlines()[-1])})
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{args.seed}.json").write_text(
        json.dumps(rows, indent=2) + "\n")
    print(f"{'workload':<15} {'wall_s':>10} {'setup_s':>9} "
          f"{'peak_rss_mb':>12} {'error_rate':>11}")
    for row in rows:
        if row["trace"]:
            continue
        m = row["metrics"]
        print(f"{row['workload']:<15} {m['wall_s']['value']:>8.4g} s "
              f"{m['setup_s']['value']:>7.4g} s "
              f"{m['peak_rss_mb']['value']:>9.4g} MB "
              f"{row['failed'] / row['attempted']:>11.4g}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=DEFAULT_N,
                    help="rows per dataset; reference digests exist only "
                         "for the default")
    ap.add_argument("--record-reference", action="store_true",
                    help="run one iteration of --workload at the default N "
                         "and store its output digest as the reference")
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    import_program()
    if args.all:
        return run_all(args)
    if args.record_reference:
        return record_reference(args.workload, args.seed)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.n,
                          reference_digest(args.workload, args.seed, args.n))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print_human(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
