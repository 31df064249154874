#!/usr/bin/env python3
"""Reading benchmark results: schema check, A/A noise report, comparison.

Called through run.sh (`--check`, `--noise`, `--compare`). Results are the
JSON objects the benchmark prints as its last line; run.sh keeps them under
benchmark/out/.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check(args):
    """BENCHMARK.json against the driver's contract and the binary's list."""
    b = spec()
    errors = []
    want_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(b) != want_keys:
        errors.append(f"keys {sorted(b)} != {sorted(want_keys)}")
    if not (2 <= len(b["workloads"]) <= 8):
        errors.append("2 to 8 workloads")
    if not (isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60):
        errors.append("run_seconds is a whole number from 1 to 60")
    names = [w["name"] for w in b["workloads"]]
    for w in b["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w.get('name')}: exactly name and a one-line why")
    for m in b["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end {m.get('name')}: keys or bound")
    for m in b["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer {m.get('name')}: keys")
    metrics = b["end_to_end"] + b["per_layer"]
    names += [m["name"] for m in metrics]
    for n in names:
        if not NAME.match(n):
            errors.append(f"name {n!r} breaks the name rule")
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    for m in metrics:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            errors.append(f"{m['name']}: unit or better")
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (s, lower) must be an end-to-end metric")
    elif setup[0]["bound"] < max(m["bound"] for m in b["end_to_end"]):
        errors.append("setup_s takes the largest bound")
    runs = 4 + 22 * len(b["workloads"])
    print(f"{runs} driver runs: {3420 / runs:.1f} s each at most, builds included")
    # The binary is the source of the metric lists.
    listed = subprocess.run([args.bin, "--list-metrics"], capture_output=True, text=True, check=True)
    have = {"end_to_end": [], "per_layer": []}
    for line in listed.stdout.splitlines():
        kind, name, unit, better = line.split()
        have[kind].append((name, unit, better))
    for kind in have:
        declared = [(m["name"], m["unit"], m["better"]) for m in b[kind]]
        if declared != have[kind]:
            diff = set(declared) ^ set(have[kind])
            errors.append(f"{kind} differs from the binary's list: {sorted(diff) or 'order'}")
    for e in errors:
        print("BENCHMARK.json:", e)
    print("BENCHMARK.json ok" if not errors else f"{len(errors)} problem(s)")
    return 1 if errors else 0


def run_once(binary, workload, seed, seconds, out_dir):
    """One end-to-end run; returns the result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    fingerprint = [l.split()[1] for l in proc.stdout.splitlines() if l.startswith("rankings_fingerprint ")]
    result["rankings_fingerprint"] = fingerprint[0] if fingerprint else None
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}.seed{seed}.e2e.json").write_text(json.dumps(result) + "\n")
    return result


def spread(values):
    """Interquartile range over median, as the driver computes it."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def noise(args):
    """A/A: repeat every workload at one commit and report each metric's spread."""
    b = spec()
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    out_dir = Path(args.out)
    worst = {}
    for w in [w["name"] for w in b["workloads"]]:
        runs = [run_once(args.bin, w, seed, b["run_seconds"], out_dir) for seed in range(1, args.runs + 1)]
        print(f"\n{w}: {args.runs} runs, seeds 1..{args.runs}, failed {[r['failed'] for r in runs]}")
        print(f"  {'metric':28} {'median':>12} {'IQR/median':>11} {'bound':>6}  values")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            worst[name] = max(worst.get(name, 0.0), s)
            shown = " ".join(f"{v:.4g}" for v in values)
            print(f"  {name:28} {statistics.median(values):12.5g} {s:11.2%} {bounds[name]:6.0%}  {shown}")
    print("\nworst spread per metric across workloads; a bound should be at least 3x it:")
    status = 0
    for name, s in worst.items():
        verdict = "ok" if name == "setup_s" or 3 * s <= bounds[name] else "TOO NOISY for its bound"
        status |= verdict != "ok"
        print(f"  {name:28} spread {s:7.2%}  bound {bounds[name]:4.0%}  3x spread {3 * s:7.2%}  {verdict}")
    return status


def load_results(path):
    """{workload: {metric: value}} from a results directory or one file."""
    path = Path(path)
    files = sorted(path.glob("*.e2e.json")) if path.is_dir() else [path]
    if not files:
        sys.exit(f"no *.e2e.json results under {path}")
    out = {}
    for f in files:
        result = json.loads(f.read_text().strip().splitlines()[-1])
        workload = f.name.split(".")[0]
        for name, m in result["metrics"].items():
            out.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    return {w: {n: statistics.median(v) for n, v in ms.items()} for w, ms in out.items()}


def compare(args):
    """Per-metric change from A to B; exits 1 when B is worse than a bound allows."""
    b = spec()
    a_results, b_results = load_results(args.a), load_results(args.b)
    regressions = 0
    for w in sorted(set(a_results) & set(b_results)):
        print(f"\n{w}")
        print(f"  {'metric':28} {'A':>12} {'B':>12} {'change':>9} {'bound':>6}")
        for m in b["end_to_end"]:
            va, vb = a_results[w].get(m["name"]), b_results[w].get(m["name"])
            if va is None or vb is None or va == 0:
                continue
            change = vb / va - 1
            worse = change if m["better"] == "lower" else -change
            flag = "  REGRESSION" if worse > m["bound"] else ""
            regressions += bool(flag)
            print(f"  {m['name']:28} {va:12.5g} {vb:12.5g} {change:+9.2%} {m['bound']:6.0%}{flag}")
    print(f"\n{regressions} regression(s) beyond the bounds")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("check")
    p.add_argument("--bin", required=True)
    p = sub.add_parser("noise")
    p.add_argument("--bin", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=3)
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args()
    sys.exit({"check": check, "noise": noise, "compare": compare}[args.command](args))


if __name__ == "__main__":
    main()
