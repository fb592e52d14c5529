"""Benchmark harness for the orlicz library.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bogovskii_solve --seed 1 \
        --seconds 20 --trace 0

It imports the library from ``src/`` of the same checkout, builds the
workload's inputs from the seed, and runs whole rounds of the workload
until ``--seconds`` have passed, checking every result.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics
of the traced ones.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record (environment, rounds, failures and, when
traced, the spans of the last traced round) goes to ``.perfbench_out/``.
"""

import os

# One BLAS thread, fixed before numpy is imported anywhere: the FEM
# results depend on the thread count, and two workers on two cores
# would contend with the harness itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4          # extra set-ups in fresh interpreters per run
PROBE_TIMEOUT_S = 120


def _fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _import_and_setup(workload_name, seed):
    """Import numpy, scipy and the library, then build the inputs.

    Returns (workload, inputs, seconds taken).
    """
    if not (SRC / "orlicz" / "__init__.py").is_file():
        _fail("no library source at %s; run from a checkout of the "
              "repository" % SRC)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import orlicz
    if Path(orlicz.__file__).resolve().parent != (SRC / "orlicz").resolve():
        _fail("imported orlicz from %s, not from %s" % (orlicz.__file__, SRC))
    import workloads  # numpy, scipy and the layer modules
    if workload_name not in workloads.WORKLOADS:
        _fail("unknown workload %r (choose from %s)"
              % (workload_name, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[workload_name]
    inputs = workload.setup(seed)
    return workload, inputs, time.perf_counter() - t0


def _probe_setup(workload_name, seed):
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        _fail("set-up probe failed: %s" % proc.stderr.strip()[-2000:])
    return float(proc.stdout.strip().splitlines()[-1])


def _environment():
    import numpy
    import scipy

    def blas(cfg):
        try:
            dep = cfg["Build Dependencies"]["blas"]
            return "%s %s" % (dep.get("name"), dep.get("version"))
        except (KeyError, TypeError):
            return "unknown"

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _measure(workload, inputs, seconds, trace):
    """Whole rounds until ``seconds`` have passed.

    Traced runs alternate untraced and traced rounds, starting
    untraced, and always end on a traced round.
    """
    import workloads
    if trace:
        import spans
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        tracer = spans.Tracer() if traced else None
        if trace and not traced and spans.Tracer.installed():
            raise RuntimeError("wrappers left installed after a traced round")
        if tracer is not None:
            tracer.install()
        ledger = workloads.Ledger()
        t0 = time.perf_counter()
        try:
            workload.run_round(inputs, ledger)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        rounds.append({"traced": traced, "wall_s": wall, "ledger": ledger,
                       "tracer": tracer})
        if time.perf_counter() - start >= seconds and (not trace or traced):
            return rounds


def _median_metrics(per_round):
    names = per_round[0].keys()
    return {n: {"value": statistics.median(m[n][0] for m in per_round),
                "unit": per_round[0][n][1]} for n in names}


def main():
    args = _parse_args(sys.argv[1:])
    workload, inputs, setup_s = _import_and_setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    env = _environment()
    print("env " + json.dumps(env, sort_keys=True))
    setups = [setup_s]
    if not args.trace:
        setups += [_probe_setup(args.workload, args.seed)
                   for _ in range(SETUP_PROBES)]

    rounds = _measure(workload, inputs, args.seconds, bool(args.trace))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r["ledger"].attempted for r in rounds)
    failed = sum(r["ledger"].failed for r in rounds)
    correct = all(not r["ledger"].incorrect for r in rounds)
    failures = {}
    for i, r in enumerate(rounds):
        for name, why in r["ledger"].failures().items():
            failures.setdefault(name, "round %d: %s" % (i, why))
    for name, why in failures.items():
        print("FAILED %s: %s" % (name, why), file=sys.stderr)

    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if args.trace:
        per_round = [r["tracer"].metrics() for r in traced]
        metrics = _median_metrics(per_round)
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced)
            - statistics.median(plain), "unit": "s"}
        missing = traced[-1]["tracer"].missing
        if missing:
            print("perfbench: hooks not installed: %s" % ", ".join(missing),
                  file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }

    for name, m in metrics.items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("rounds %d  attempted %d  failed %d  correct %s"
          % (len(rounds), attempted, failed, correct))

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "setup_s": setups,
        "rounds": [{"traced": r["traced"], "wall_s": r["wall_s"],
                    "attempted": r["ledger"].attempted,
                    "failed": r["ledger"].failed} for r in rounds],
        "failures": failures, "metrics": metrics,
    }
    if traced:
        record["spans"] = traced[-1]["tracer"].span_table()
    path = OUT / ("%s-seed%d-trace%d.json"
                  % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
