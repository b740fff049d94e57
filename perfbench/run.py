"""The reproduction's benchmark: one command for every workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 25 --trace 0

Workloads: ``reproduce`` (build, five pipeline steps, analysis and
reports, exactly as ``repro reproduce`` runs them), ``scan`` (the bulk
probe engine under a per-authority rate cap) and ``serve`` (feed
archive replay to mixed subscribers).  ``METRICS.md`` documents every
metric and why each workload was chosen.

Each repetition of the job runs in a fresh interpreter (``job.py``);
repetitions continue until ``--seconds`` have passed, and every metric
is the median over them.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
untraced and traced repetitions alternate and the object carries the
per-layer metrics, with the tracing overhead taken as the difference of
their ``wall_s``.  A human-readable table, the machine record and the
correctness verdict go to standard error; the full run record (every
repetition, machine, calibration) is written to
``perfbench/.out/record-<workload>-s<seed>-t<trace>.json`` and traced
spans to ``perfbench/.out/spans-<workload>-s<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import job
import layers
import serveload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / ".out"
#: Compiled bytecode goes here, so running leaves ``src/`` untouched.
PYCACHE = OUT / "pycache"
#: The whole invocation must end within this many seconds.
HARD_LIMIT_S = 170.0


def source_digest() -> str:
    """Digest of every file under ``src/``: the revision measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_s() -> float:
    """Time of a fixed pure-Python loop, to show machine drift."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def run_rep(workload: str, seed: int, inputs: Path, traced: bool,
            spans: Path, run_id: str, timeout: float) -> dict:
    """One repetition in a fresh interpreter; a crash is a failed rep."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    cmd = [sys.executable, str(Path(__file__).with_name("job.py")),
           "--workload", workload, "--seed", str(seed),
           "--inputs", str(inputs), "--trace", str(int(traced)),
           "--spans", str(spans), "--run-id", run_id]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)],
                              capture_output=True, text=True, env=env,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f}s",
                "traced": traced}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}",
                "traced": traced}
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(job.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}"
    inputs = OUT / f"inputs-{tag}"
    inputs.mkdir(exist_ok=True)
    spans = OUT / f"spans-{tag}.jsonl"
    if args.trace and spans.exists():
        spans.unlink()
    sys.pycache_prefix = str(PYCACHE)
    compileall.compile_dir(str(SRC), quiet=1)
    if args.workload == "serve":
        # The inputs follow the program's calibration (see serveload).
        sys.path.insert(0, str(SRC))
        serveload.write_inputs(args.seed, job.SERVE_RECORDS,
                               job.SERVE_CLIENTS, job.archive_path(inputs),
                               job.clients_path(inputs))
    machine = {"source_digest": source_digest(), "cpu_model": cpu_model(),
               "nproc": os.cpu_count(),
               "python": platform.python_version(),
               "calibration_before_s": calibration_s()}

    reps = []
    longest = 0.0
    measure_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        before = time.perf_counter()
        reps.append(run_rep(
            args.workload, args.seed, inputs, traced, spans,
            f"{tag}-r{len(reps)}",
            timeout=max(5.0, HARD_LIMIT_S - 10 - (before - started))))
        now = time.perf_counter()
        longest = max(longest, now - before)
        enough = now - measure_start >= args.seconds and (
            not args.trace or len(reps) >= 2)
        if enough or now - started + longest + 10 > HARD_LIMIT_S:
            break
    machine["calibration_after_s"] = calibration_s()

    good = [r for r in reps if "error" not in r]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (args.trace and not traced):
        for rep in reps:
            print(rep.get("error", ""), file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1

    problems = [p for r in good for p in r.get("problems", [])]
    problems += [r["error"] for r in reps if "error" in r]
    for key in ("fingerprint", "fidelity_ok"):
        if len({r.get(key) for r in good}) > 1:
            problems.append(f"{key} differs between repetitions "
                            "of one seed")
    attempted = sum(r.get("attempted", 1) for r in reps)
    failed = sum(r.get("failed", 1) for r in reps)
    if problems and failed == 0:
        failed = 1
    spec = layers.spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    end_to_end = {name: median([r[name] for r in untraced])
                  for name in units}
    deliver = [r["deliver"] for r in untraced if "deliver" in r]
    latency = {key: median([d[key] for d in deliver])
               for key in ("p50_ms", "p99_ms", "samples")}
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: median([r["layers"][name] for r in traced])
                   for name in units if name not in layers.FROM_UNTRACED}
        metrics["trace.overhead_s"] = (
            median([r["wall_s"] for r in traced]) - end_to_end["wall_s"])
        metrics.update({f"serve.deliver_{key}": value
                        for key, value in latency.items()})
    else:
        metrics = end_to_end

    shown = dict(metrics)
    shown["failed_ratio"] = failed / attempted
    units["failed_ratio"] = "ratio"
    if deliver and not args.trace:
        for key, value in latency.items():
            shown[f"deliver_{key}"] = value
            units[f"deliver_{key}"] = "count" if key == "samples" else "ms"
        shown["deliver_tail_percentile"] = deliver[0]["tail_percentile"]
        units["deliver_tail_percentile"] = "%"
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions, "
          f"{len(reps) - len(good)} crashed", file=sys.stderr)
    print(f"# machine: {json.dumps(machine, sort_keys=True)}",
          file=sys.stderr)
    for name, value in shown.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "repetitions": reps, "metrics": shown,
              "problems": problems}
    with open(OUT / f"record-{tag}-t{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
