"""Acceptance gate: the shipped configs all run green within budget.

Every config under configs/ is driven once through the CLI entry point
by a shared fixture.  Each test owns one config: it asserts the exit
code, re-checks that the recorded assertions carry the advertised
tolerances (so a config edit cannot silently weaken the gate), and
prints a single PASS/FAIL line with the wall time.  Run with -s to see
the lines as they happen.
"""

import json
import time
from pathlib import Path

import pytest

from orlicz import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

NAMES = ["young_calculus", "balance_matrix", "norm_machinery",
         "bogovskii_disk", "domain_split", "negative_norm",
         "fem_suite", "determinism"]

INFSUP_EIGEN = [1.0776608413287938, 1.0153046023291719,
                0.9751530782950694, 0.9480106723881696,
                0.9288681197937817]


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    results = {}
    for name in NAMES:
        t0 = time.monotonic()
        rc = cli.main(["run", str(CONFIGS / (name + ".json")),
                       "--out", str(out)])
        dt = time.monotonic() - t0
        path = out / (name + ".json")
        report = json.loads(path.read_text()) if path.exists() else None
        results[name] = (rc, dt, report)
    return results


def _bounds(report, prefix):
    return [a["bound"] for a in report["assertions"]
            if a["name"].startswith(prefix)]


def _verdict(label, rc, dt, report, budget, extra_ok):
    ok = (rc == 0 and report is not None and report["passed"]
          and dt < budget and extra_ok)
    detail = "no report" if report is None else \
        "; ".join(a["name"] for a in report["assertions"]
                  if not a["passed"]) or "ok"
    print("%s %s [%.1fs / budget %ds] %s"
          % ("PASS" if ok else "FAIL", label, dt, budget, detail))
    return ok


def test_young_function_calculus(suite):
    rc, dt, rep = suite["young_calculus"]
    extra = (rep is not None
             and len(rep["assertions"]) == 10
             and all(b == 1e-6 for b in _bounds(rep, "involution"))
             and all(b == [1.0, 2.0]
                     for b in _bounds(rep, "inverse sandwich"))
             and len(rep["params"]["families"]) == 5
             and rep["params"]["n_points"] == 100)
    assert _verdict("Young calculus: double conjugate and inverse "
                    "sandwich", rc, dt, rep, 5, extra)


def test_balance_classification(suite):
    rc, dt, rep = suite["balance_matrix"]
    want = {"power:1.5:power:1.5": True, "power:2:power:2": True,
            "power:4:power:4": True, "zygmund:1:1:zygmund:1:0": True,
            "zygmund:1:2:zygmund:1:1": True,
            "exp:0.5:exp:0.3333333333333333": True,
            "exp:1:exp:0.5": True, "power:1:power:1": False,
            "cap:1:cap:1": False}
    extra = False
    if rep is not None:
        got = {row["pair"]: row["admissible"]
               for row in rep["data"]["matrix"]}
        extra = got == want and len(rep["assertions"]) == len(want)
    assert _verdict("pair balance classification over the shipped "
                    "matrix", rc, dt, rep, 30, extra)


def test_norm_and_rearrangement_machinery(suite):
    rc, dt, rep = suite["norm_machinery"]
    extra = (rep is not None
             and _bounds(rep, "rearrangement invariance") == [1e-10]
             and _bounds(rep, "indicator norm") == [1e-8]
             and _bounds(rep, "Hardy") == [2.01]
             and rep["params"]["n_fields"] == 100
             and rep["params"]["n_hardy"] == 200)
    assert _verdict("Luxemburg norm machinery: invariance, indicators, "
                    "Hardy bound", rc, dt, rep, 30, extra)


def test_divergence_solver_on_the_disk(suite):
    rc, dt, rep = suite["bogovskii_disk"]
    extra = (rep is not None
             and _bounds(rep, "divergence residual") == [0.05, 0.025]
             and _bounds(rep, "gradient constant") == [0.25, 0.25]
             and _bounds(rep, "rearrangement estimate")
             == [2.5, 2.5, 2.5]
             and rep["params"]["grids"] == [64, 128])
    assert _verdict("divergence solver on the disk: residuals, "
                    "stability, rearrangement", rc, dt, rep, 600, extra)


def test_split_across_overlapping_rectangles(suite):
    rc, dt, rep = suite["domain_split"]
    extra = (rep is not None
             and _bounds(rep, "partition identity") == [1e-12]
             and _bounds(rep, "pieces are mean-zero") == [1e-12]
             and _bounds(rep, "norms below") == [1.0])
    assert _verdict("mean-zero splitting over the overlapping "
                    "decomposition", rc, dt, rep, 10, extra)


def test_negative_norm_two_sided_bounds(suite):
    rc, dt, rep = suite["negative_norm"]
    extra = (rep is not None
             and _bounds(rep, "ratio band") == [4.0, 4.0, 4.0]
             and _bounds(rep, "approximants") == [0.02, 0.02]
             and len(_bounds(rep, "constants score zero")) == 1
             and rep["params"]["depth"] == 3)
    assert _verdict("negative-norm bounds: corpus bands and sup "
                    "approximants", rc, dt, rep, 300, extra)


def test_pressure_and_infsup_suite(suite):
    rc, dt, rep = suite["fem_suite"]
    extra = False
    if rep is not None:
        vals = rep["data"]["infsup"]
        frozen = (len(vals) == len(INFSUP_EIGEN)
                  and all(abs(v - w) <= 1e-8 * w
                          for v, w in zip(vals, INFSUP_EIGEN)))
        extra = (frozen
                 and _bounds(rep, "exact piecewise") == [1e-10]
                 and _bounds(rep, "eigen value matches") == [1e-8]
                 and _bounds(rep, "interpolation preserves") == [1e-12]
                 and _bounds(rep, "gradient-norm stability") == [1.5]
                 and len(rep["assertions"]) == 7)
    assert _verdict("pressure reconstruction and inf-sup suite",
                    rc, dt, rep, 300, extra)


def test_cli_determinism_and_full_suite(suite):
    rc, dt, rep = suite["determinism"]
    all_green = all(r == 0 for r, _, _ in suite.values())
    extra = (rep is not None
             and len(_bounds(rep, "outputs byte-identical")) == 1
             and all_green)
    assert _verdict("CLI determinism and full config suite exit 0",
                    rc, dt, rep, 60, extra)
