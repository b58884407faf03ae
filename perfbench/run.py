#!/usr/bin/env python3
"""bonls benchmark: load generator, correctness gate, result files, compare.

One workload (the form a harness calls):

    python3 perfbench/run.py --workload simulate-n512 --seed 1 --seconds 30 --trace 0

prints a table, then as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

Every workload, untraced and traced, into one result file:

    python3 perfbench/run.py --all --seed 1 --out .perfbench/BENCH_label.json

Two result files side by side, with a verdict per (metric, workload):

    python3 perfbench/run.py --compare BENCH_before.json BENCH_after.json

The load generator runs one child process at a time (a closed loop with
one client) and reads the child's wall time, CPU time and peak RSS from
wait4.  After every child it runs a fixed reference job (reference.py)
and reports the child's times in reference seconds: raw seconds times
REF_S over the reference runs' time beside it.  It imports neither numpy
nor bonls; the child does.  Before timing anything it runs `bonls verify`
once and refuses a build whose identity checks fail.  See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
VERIFY_CHECKS = 19
MIN_UNTRACED_OPS = 3
MIN_TRACED_OPS = 2
DEADLINE_S = 170.0  # a run ends within 180 s; no child outlives this
# The reference job's time on the machine that reported times are scaled
# to: a reported second is REF_S / (reference job's measured time) raw seconds.
REF_S = 0.3

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
              "cpu_s": "s", "peak_rss_mb": "MiB"}
RAW = ("wall_raw_s", "setup_raw_s", "cpu_raw_s", "ref_s")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# --------------------------------------------------------------------------
# machine record and preflight
# --------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine(seed: int, traced: bool) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": _commit(), "src_sha256": _src_digest(),
            "seed": seed, "traced": traced}


def preflight() -> None:
    """Run `bonls verify` once; refuse to time a build whose checks fail."""
    if not (ROOT / "src" / "bonls").is_dir():
        fail(f"no bonls source under {ROOT / 'src'}")
    done = subprocess.run([sys.executable, "-m", "bonls.cli", "verify"], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120, check=False)
    rows = [line.split() for line in done.stdout.splitlines()]
    passed = sum(1 for r in rows if r and r[-1] == "pass")
    failing = sum(1 for r in rows if r and r[-1] == "FAIL")
    if done.returncode != 0 or failing or passed < VERIFY_CHECKS:
        sys.stderr.write(done.stdout + done.stderr)
        fail(f"bonls verify: exit {done.returncode}, {passed} pass, "
             f"{failing} fail; refusing to time this build")
    print(f"verify: {passed} identity checks pass")


# --------------------------------------------------------------------------
# one operation: a fresh child process
# --------------------------------------------------------------------------

def _wait(argv: list[str], deadline: float, **popen) -> tuple[int, float, object]:
    """Run argv to its end; return (exit code, wall seconds, rusage)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), **popen)
    killer = threading.Timer(max(1.0, deadline - t0), os.kill, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t1 - t0, usage


def run_reference(deadline: float) -> float:
    """Wall seconds of one reference job."""
    code, wall, _ = _wait([sys.executable, str(HERE / "reference.py")], deadline)
    if code != 0:
        fail(f"reference job exited with {code}")
    return wall


def _tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()] if path.is_dir() else []
    return sum(p.stat().st_size for p in files), len(files)


def run_op(w: wl.Workload, inp: dict, op_dir: Path, traced: bool,
           deadline: float) -> dict:
    """Spawn one child, wait for it with wait4, gate its output."""
    op_dir.mkdir(parents=True)
    out = op_dir / "out"
    spec = {"command": w.command, "trace": traced,
            "api": wl.api_params(w, inp), "result": str(op_dir / "result.json")}
    if w.command != "api":
        conf = op_dir / "workload.conf"
        conf.write_text(wl.config_text(w, inp))
        spec["argv"] = ["--config", str(conf), "--out", str(out.relative_to(ROOT)), w.command]
    (op_dir / "spec.json").write_text(json.dumps(spec))

    with open(op_dir / "stdout.txt", "wb") as fo, open(op_dir / "stderr.txt", "wb") as fe:
        t0 = time.monotonic()
        code, wall, usage = _wait([sys.executable, str(HERE / "child.py"),
                                   str(op_dir / "spec.json")], deadline,
                                  stdout=fo, stderr=fe)

    op = {"traced": traced, "code": code, "wall_raw_s": wall,
          "cpu_raw_s": usage.ru_utime + usage.ru_stime,
          "peak_rss_mb": usage.ru_maxrss / 1024.0, "attempted": w.ops_per_child}
    result_path = op_dir / "result.json"
    child = json.loads(result_path.read_text()) if result_path.exists() else None
    drift = {}
    if code != 0 or child is None:
        reasons = [f"child exit {code}: "
                   + (op_dir / "stderr.txt").read_text()[-600:].strip()]
    elif w.command == "api":
        reasons, drift = wl.check_rows(w, child["rows"])
    else:
        reasons, drift = wl.check_simulate(w, out)
    op["failed"] = w.ops_per_child if reasons else 0
    op["reasons"] = reasons
    if child is not None and child.get("t_first") is not None:
        op["setup_raw_s"] = child["t_first"] - t0
        op["workload_raw_s"] = child["t_done"] - t0
        if traced and not reasons:
            child["drift"] = drift
            op["layers"] = spans.layer_metrics(w, child, _tree_size(out))
            op["missing"] = child["missing"]
    shutil.rmtree(op_dir)
    return op


# --------------------------------------------------------------------------
# one measured run of one workload
# --------------------------------------------------------------------------

def scale(op: dict, w: wl.Workload, ref_s: float) -> None:
    """Add the reference-scaled times of one operation (ref_s: reference wall beside it)."""
    op["ref_s"] = ref_s
    k = REF_S / ref_s
    op["wall_s"], op["cpu_s"] = k * op["wall_raw_s"], k * op["cpu_raw_s"]
    if "setup_raw_s" in op:
        op["setup_s"] = k * op["setup_raw_s"]
        op["workload_wall_s"] = k * op["workload_raw_s"]
        op["steps_per_s"] = w.steps / (op["wall_s"] - op["setup_s"])


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run children for about `seconds`; alternate untraced/traced when traced.

    A reference job runs before the first child and after every child;
    each child is scaled by the mean of the two reference runs around it.
    """
    w = wl.WORKLOADS[name]
    inp = wl.inputs(w, seed)
    # metadata.txt records the output path: give it one length in every run
    op_dir = WORK / f"{name}-{os.getpid():08d}"
    shutil.rmtree(op_dir, ignore_errors=True)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    cycle = [False, True] if traced else [False]
    ops: list[dict] = []
    cycle_times: list[float] = []
    try:
        ref_before = run_reference(deadline)
        while True:
            t = time.monotonic()
            for tr in cycle:
                op = run_op(w, inp, op_dir, tr, deadline)
                ref_after = run_reference(deadline)
                scale(op, w, 0.5 * (ref_before + ref_after))
                ref_before = ref_after
                ops.append(op)
            cycle_times.append(time.monotonic() - t)
            now = time.monotonic()
            enough = len(ops) >= (2 * MIN_TRACED_OPS if traced else MIN_UNTRACED_OPS)
            if (enough and now - started + statistics.median(cycle_times) > seconds) \
                    or now - started + max(cycle_times) > DEADLINE_S - 10.0 \
                    or any(op["reasons"] for op in ops):
                break
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)
    return summarize(w, seed, seconds, traced, ops, time.monotonic() - started)


def summarize(w: wl.Workload, seed: int, seconds: float, traced: bool,
              ops: list[dict], elapsed: float) -> dict:
    good = [op for op in ops if not op["reasons"] and "setup_s" in op]
    plain = [op for op in good if not op["traced"]]
    record = {"workload": w.name, "seed": seed, "seconds": seconds,
              "elapsed_s": elapsed, "traced": traced,
              "attempted": sum(op["attempted"] for op in ops),
              "failed": sum(op["failed"] for op in ops),
              "reasons": [r for op in ops for r in op["reasons"]],
              "samples": {k: [op[k] for op in plain] for k in END_TO_END},
              "raw_samples": {k: [op[k] for op in plain] for k in RAW}}
    record["ops_failed_frac"] = record["failed"] / record["attempted"]
    problems = list(record["reasons"])
    metrics: dict[str, dict] = {}
    if traced:
        layered = [op["layers"] for op in good if op["traced"]]
        record["missing"] = sorted({m for op in good if op["traced"] for m in op["missing"]})
        for key in spans.COUNTS:
            seen = {lay.get(key) for lay in layered}
            if len(seen) > 1:
                problems.append(f"count {key} varies across repeated runs: {sorted(seen, key=str)}")
        record["counts"] = {k: layered[0][k] for k in spans.COUNTS if layered and k in layered[0]}
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        for key, unit in units.items():
            values = [lay[key] for lay in layered if key in lay]
            if values:
                metrics[key] = {"value": statistics.median(values), "unit": unit}
        traced_wall = [op["workload_wall_s"] for op in good if op["traced"]]
        plain_wall = [op["workload_wall_s"] for op in plain]
        if traced_wall and plain_wall:
            metrics["trace.overhead_frac"] = {
                "value": statistics.median(traced_wall) / statistics.median(plain_wall) - 1.0, "unit": "1"}
        if not layered:
            problems.append("no traced operation passed the gate")
    else:
        for key, unit in END_TO_END.items():
            if plain:
                metrics[key] = {"value": statistics.median(record["samples"][key]), "unit": unit}
        if not plain:
            problems.append("no operation passed the gate")
    record["problems"] = problems
    record["correct"] = not problems
    record["metrics"] = metrics
    return record


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"traced {int(record['traced'])}  {record['elapsed_s']:.1f} s measured")
    if not record["traced"]:
        print(f"  {'metric':<14}{'median':>14}{'tail':>22}{'n':>5}  unit")
        for key, unit in END_TO_END.items():
            values = record["samples"][key]
            if not values:
                continue
            worst = spans.tail(values)
            tail_text = f"p{worst[0]:.1f} {worst[1]:.6g}" if worst else "n/a (n < 11)"
            print(f"  {key:<14}{statistics.median(values):>14.6g}{tail_text:>22}{len(values):>5}  {unit}")
        raw = {k: v for k, v in record["raw_samples"].items() if v}
        print("  unscaled medians: " + "  ".join(
            f"{k} {statistics.median(v):.6g}" for k, v in raw.items())
            + f"  (reported s = raw s * {REF_S:g} / ref_s)")
    else:
        for key, m in record["metrics"].items():
            print(f"  {key:<30}{m['value']:>16.6g}  {m['unit']}")
        if record["missing"]:
            print(f"  missing boundaries: {', '.join(record['missing'])}")
    print(f"  ops_failed_frac {record['ops_failed_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} operations failed)")
    for problem in record["problems"]:
        print(f"  FAIL {problem}")


def _save(path: Path, records: list[dict], info: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"records": []}
    data["records"].extend({**r, "machine": info} for r in records)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1))
    print(f"results appended to {path}")


# --------------------------------------------------------------------------
# compare two result files
# --------------------------------------------------------------------------

def _pooled(data: dict, workload: str, metric: str) -> list[float]:
    return [v for r in data["records"]
            if r["workload"] == workload and not r["traced"]
            for v in r["samples"].get(metric, [])]


def compare(path_a: str, path_b: str) -> None:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for label, path, data in (("A", path_a, a), ("B", path_b, b)):
        info = data["records"][0]["machine"]
        print(f"{label}: {path}  commit {info['commit']}  src {info['src_sha256'][:12]}  "
              f"{len(data['records'])} records")
    print(f"{'metric':<13}{'workload':<20}{'A median [q1, q3]':>34}"
          f"{'B median [q1, q3]':>34}{'B/A':>8}  verdict")
    for m in _spec()["end_to_end"]:
        for name in wl.WORKLOADS:
            va, vb = _pooled(a, name, m["name"]), _pooled(b, name, m["name"])
            if len(va) < 2 or len(vb) < 2:
                continue
            qa, qb = statistics.quantiles(va, n=4), statistics.quantiles(vb, n=4)
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (mb - ma) / ma
            # worse/better only past the bound and with the quartile ranges apart
            if worse_by > m["bound"] and sign * (qb[0] - qa[2]) > 0:
                verdict = "worse"
            elif worse_by < -m["bound"] and sign * (qa[0] - qb[2]) > 0:
                verdict = "better"
            else:
                verdict = "unresolved"
            cell = "{:>12.5g} [{:.4g}, {:.4g}]"
            print(f"{m['name']:<13}{name:<20}{cell.format(ma, qa[0], qa[2]):>34}"
                  f"{cell.format(mb, qb[0], qb[2]):>34}{mb / ma:>8.3f}  {verdict}")
    for name in wl.WORKLOADS:
        ca = next((r["counts"] for r in a["records"] if r["workload"] == name and r["traced"]), None)
        cb = next((r["counts"] for r in b["records"] if r["workload"] == name and r["traced"]), None)
        if ca and cb:
            for key in spans.COUNTS:
                if key in ca or key in cb:
                    same = "same" if ca.get(key) == cb.get(key) else "differs"
                    print(f"count {key:<28}{name:<20}{ca.get(key)!s:>14}{cb.get(key)!s:>14}  {same}")


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    mode.add_argument("--all", action="store_true",
                      help="every workload, untraced then traced")
    mode.add_argument("--compare", nargs=2, metavar="FILE")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the result records to this JSON file")
    args = parser.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    preflight()
    info = machine(args.seed, bool(args.trace) or args.all)
    print("machine: " + json.dumps(info))
    if args.all:
        records = [measure(name, args.seed, seconds, traced)
                   for name in wl.WORKLOADS for traced in (False, True)]
        for record in records:
            print_record(record)
        _save(args.out or WORK / f"BENCH_seed{args.seed}.json", records, info)
        return 0 if all(r["correct"] for r in records) else 1
    record = measure(args.workload, args.seed, seconds, bool(args.trace))
    print_record(record)
    if args.out:
        _save(args.out, [record], info)
    if not record["metrics"]:
        fail("no measurement to report")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
