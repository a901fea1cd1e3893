#!/usr/bin/env python3
"""The repository benchmark: drives the `isel` release binary end to end.

    python3 perfbench/run.py --workload advise-erp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. The script builds `isel` and the stage helper
(`perfbench/stages`) in release mode, generates every input from `--seed`
with `isel generate` and `isel record`, then measures the workload for
`--seconds`. With `--trace 0` the last stdout line is one JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
a traced pass. Lines before it are a human-readable summary. The exit code
is non-zero when a correctness gate fails. See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from benchlib import stats, workloads  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Build `isel` and `isel-stages` (release) and return their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        fail(f"no isel sources under {ROOT}: run from a checkout of the repository")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "isel-cli", "--bin", "isel"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/stages/Cargo.toml"],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return target / "release" / "isel", target / "release" / "isel-stages"


def metric_units(key):
    """`{name: unit}` of BENCHMARK.json's `end_to_end` or `per_layer`."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"] for m in spec[key]}


def check_release(binary):
    """Refuse to time anything but an optimized build."""
    if "release" not in pathlib.Path(binary).resolve().parts:
        fail(f"refusing to time {binary}: not a release build")


def metadata(isel):
    def out(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return done.stdout.strip() if done.returncode == 0 else None
        except OSError:
            return None

    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")) + [ROOT / "Cargo.lock"]:
        if path.is_file():
            digest.update(path.read_bytes())
    return {
        "commit": out(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "rustc": out(["rustc", "--version"]),
        "isel": str(isel),
    }


def run_one(name, isel, stages, seed, seconds, trace, heldout, per_layer):
    wl = workloads.WORKLOADS[name]()
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    res = workloads.RunResult(name)
    try:
        ctx = workloads.Context(isel, stages, work, seed, seconds)
        wl.prepare(ctx, res)
        if trace:
            workloads.trace_layers(wl, ctx, res, per_layer)
        else:
            workloads.measure(wl, ctx, res)
        if heldout is not None:
            check_heldout(name, isel, stages, heldout, work, res)
    except RuntimeError as e:
        res.command(False, "set-up", [str(e)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return wl, res


def check_heldout(name, isel, stages, seed, work, res):
    """One untimed job on inputs from a second seed, through every gate."""
    wl = workloads.WORKLOADS[name]()
    sub = work / f"heldout-{seed}"
    sub.mkdir()
    ctx = workloads.Context(isel, stages, sub, seed, 0)
    held = workloads.RunResult(name)
    wl.prepare(ctx, held)
    if isinstance(wl, workloads.ServeErp):
        wl.session(ctx, held)
    else:
        wl.job(ctx, held)
    wl.final_checks(ctx, held)
    res.attempted += held.attempted
    res.failed += held.failed
    res.problems += [f"held-out seed {seed}: {p}" for p in held.problems]
    res.notes.append(f"held-out seed {seed}: {'pass' if not held.problems else 'FAIL'}")


def summary(wl, res, trace, units):
    print(f"== {res.workload}: {wl.why}")
    print("inputs: " + json.dumps(res.inputs, sort_keys=True))
    for note in res.notes:
        print(f"  {note}")
    if trace:
        for name, unit in units.items():
            if name in res.layer_values:
                print(f"{name:<30} {unit:<6} {res.layer_values[name]:<14.6g} [{res.layer_sources[name]}]")
    else:
        for name, unit in {**units, **workloads.SUMMARY_ONLY}.items():
            xs = res.samples[name]
            if xs:
                print(stats.render(name, unit, xs))
            else:
                print(f"{name:<22} {unit:<6} not measured on this workload")
        for name, key, p in workloads.PERCENTILES:
            xs = res.samples[key]
            if xs:
                print(f"{name:<22} {stats.nearest_rank(xs, p):.6g} (n={len(xs)})")
    print(f"attempted {res.attempted}, failed {res.failed}")
    for p in res.problems:
        print(f"GATE FAILED: {p}")


def result_line(res, trace, units):
    if trace:
        metrics = {
            name: {"value": res.layer_values[name], "unit": unit}
            for name, unit in units.items()
            if name in res.layer_values
        }
    else:
        metrics = {}
        for name, unit in units.items():
            value = res.value(name)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
    complete = len(metrics) == len(units)
    return {
        "correct": not res.problems and complete,
        "attempted": max(1, res.attempted),
        "failed": res.failed,
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout-seed", type=int, help="also run one untimed job on this seed's inputs")
    args = ap.parse_args()

    units = metric_units("per_layer" if args.trace else "end_to_end")
    isel, stages = build()
    check_release(isel)
    check_release(stages)
    print("meta " + json.dumps(metadata(isel), sort_keys=True))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        wl, res = run_one(name, isel, stages, args.seed, args.seconds, args.trace, args.heldout_seed, units)
        summary(wl, res, args.trace, units)
        results[name] = result_line(res, args.trace, units)
    ok = all(r["correct"] for r in results.values())
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
