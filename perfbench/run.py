#!/usr/bin/env python3
"""Repository benchmark: builds the workload program and runs one workload.

    python3 perfbench/run.py --workload fig7_wireline --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout. The workload program is built from source into
.bench_build/ (or $CARGO_TARGET_DIR when set) on the first run. Each run
happens in a child process with a deadline: a hang or crash is recorded as a
failed run with its exit status, never retried. With --trace 0 the result
carries every end-to-end metric of BENCHMARK.json, with --trace 1 every
per-layer metric. The last line of standard output is the JSON result;
the lines before it are the same numbers as a table plus the hardware
context. A full report (context, metrics, gates, notes) is also written to
<build>/reports/, and traced runs write their spans to <build>/traces/.

Correctness gates: the workload program's own checks (see workloads.cpp),
plus output fingerprints that must match every earlier run of the same seed
on the same sources, traced or not.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig7_wireline", "fig9_wireline", "serve_growth")
BUILD_TYPE = "RelWithDebInfo"
# The whole run must end within 180 s; leave room for start-up and output.
CHILD_DEADLINE_S = 165.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    """One build directory per checkout path, so a target directory shared
    between checkouts never builds one tree's sources for another."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = Path.cwd() / path
    root_key = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return path / "perfbench" / root_key


def build(out):
    """Configures and builds the workload program; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no sources at {ROOT / 'src'}")
        return None
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return None
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, nproc())))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", str(out), "-j", jobs,
           "--target", "perfbench_workloads"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    exe = out / "perfbench_workloads"
    return exe if exe.is_file() else None


def source_digest():
    """sha256 over the sources the benchmark builds: names the code under
    test even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if shutil.which("git") is None:
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, env=env)
    return r.stdout.strip() if r.returncode == 0 else "none"


def run_child(cmd):
    """Runs the workload program with a deadline. Returns (exit status,
    stdout, note). The child is killed, and waited for, however this
    function is left."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_DEADLINE_S)
        return proc.returncode, out, ""
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return proc.returncode, out, f"killed after {CHILD_DEADLINE_S:.0f} s"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def check_fingerprints(store_path, fingerprints):
    """Compares against every earlier run of the same sources; records new
    keys. Returns the list of mismatches."""
    store = {}
    if store_path.exists():
        store = json.loads(store_path.read_text())
    mismatches = []
    for key, value in fingerprints.items():
        if key in store and store[key] != value:
            mismatches.append(f"{key}: recorded {store[key]}, got {value}")
        store.setdefault(key, value)
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)
    return mismatches


def main():
    # A terminated benchmark still stops its child (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        log("perfbench: BENCHMARK.json not found at the checkout root")
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    exe = build(out)
    if exe is None:
        log("perfbench: build failed")
        return 3

    (out / "reports").mkdir(exist_ok=True)
    (out / "traces").mkdir(exist_ok=True)
    (out / "fingerprints").mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(out / "traces" / f"{tag}.jsonl")]

    digest = source_digest()
    t0 = time.monotonic()
    status, stdout, note = run_child(cmd)
    child_s = time.monotonic() - t0

    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc(), "build_type": BUILD_TYPE,
        "git_rev": git_rev(), "source_digest": digest,
        "child_status": status, "child_s": round(child_s, 3),
    }
    failures = []
    report = None
    if status != 0 or note:
        failures.append(
            f"workload program exited with status {status} {note}".strip())
    else:
        try:
            report = json.loads(stdout)["report"]
        except (ValueError, KeyError) as e:
            failures.append(f"unreadable workload output: {e}")

    metrics = {}
    attempted, failed = 1, 1
    if report is not None:
        notes = report["notes"]
        context["workers"] = int(notes["workers"])
        context["effective_cores"] = round(notes["effective_cores"], 3)
        context["burn_gops"] = round(notes["burn_gops"], 3)
        attempted = max(1, int(report["attempted"]))
        failed = int(report["failed"])
        failures += [f"{c['name']}: {c['detail']}"
                     for c in report["failed_checks"]]
        failures += check_fingerprints(
            out / "fingerprints" / f"{digest}.json", report["fingerprints"])
        got = report["metrics"]
        for m in wanted:
            if m["name"] not in got:
                failures.append(f"metric {m['name']} missing")
                continue
            value = got[m["name"]]["value"]
            if value is None:
                failures.append(f"metric {m['name']} is not finite")
                continue
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        failed = attempted

    correct = not failures
    full = {"context": context, "correct": correct, "failures": failures,
            "report": report}
    (out / "reports" / f"{tag}.json").write_text(json.dumps(full, indent=1))

    print(" ".join(f"{k}={v}" for k, v in context.items()))
    for m in wanted:
        if m["name"] in metrics:
            print(f"  {m['name']:<34} {metrics[m['name']]['value']:>16.6g}"
                  f" {m['unit']}")
    for f in failures:
        print(f"  FAILED {f}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
