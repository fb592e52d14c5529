"""Write a BENCH_<n>.json snapshot from the shipped benchmark.

Run from the root of a source checkout:

    python3 tools/bench_snapshot.py 6

For every workload in ``BENCHMARK.json`` this runs
``perfbench/run.py`` unchanged, at its default run length, once per
seed in ``SEEDS`` untraced (end-to-end metrics) and once traced on the
first seed (per-layer metrics), each in its own process and one after
another.  It writes ``BENCH_<n>.json`` with each workload's metric
units, each run's metrics and operation counts, the per-workload
medians over seeds, the environment run.py records (CPU count, Python,
numpy, scipy, BLAS and thread settings) and the measured commit.  A
failed or incorrect run is recorded, its workload's median is null, and
the script exits 1 after writing.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SEEDS = (1, 2, 3)


def _git(*args):
    proc = subprocess.run(["git", *args], cwd=str(ROOT), capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run(workload, seed, trace):
    """One run.py process: (run record, metric units, environment)."""
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "error": proc.stderr.strip()[-2000:]}, {}, None
    env = next((json.loads(line[len("env "):]) for line in lines
                if line.startswith("env ")), None)
    result = json.loads(lines[-1])
    run = {"seed": seed, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"],
           "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
    return run, {k: m["unit"] for k, m in result["metrics"].items()}, env


def _ok(run):
    return "error" not in run and run["correct"] and run["failed"] == 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("number", type=int, help="n in BENCH_<n>.json")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    envs, out = [], {}
    for name in (w["name"] for w in bench["workloads"]):
        runs, units = [], {}
        for seed in SEEDS:
            run, unit, env = _run(name, seed, 0)
            runs.append(run)
            units.update(unit)
            envs.append(env)
            print("%s seed %d: %s" % (name, seed, run.get("metrics",
                                                          run.get("error"))))
        traced, unit, env = _run(name, SEEDS[0], 1)
        units.update(unit)
        envs.append(env)
        median = None
        if all(_ok(r) for r in runs):
            median = {k: statistics.median(r["metrics"][k] for r in runs)
                      for k in runs[0]["metrics"]}
        out[name] = {"units": units, "median": median, "runs": runs,
                     "traced": traced}

    envs = [e for e in envs if e is not None]
    snapshot = {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git("status", "--porcelain")),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--trace 0|1",
        "seeds": list(SEEDS),
        "env": envs[0] if envs else None,
        "env_varied": any(e != envs[0] for e in envs),
        "workloads": out,
    }
    path = ROOT / ("BENCH_%d.json" % args.number)
    path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % path)
    every = [r for w in out.values() for r in w["runs"] + [w["traced"]]]
    return 0 if all(_ok(r) for r in every) else 1


if __name__ == "__main__":
    sys.exit(main())
