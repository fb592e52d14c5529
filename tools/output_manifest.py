"""Run the shipped configs and the README's commands; list their outputs.

Run from the root of a source checkout, with DIR new or empty:

    python3 tools/output_manifest.py DIR > manifest.txt

This runs ``orlicz run --suite configs`` into ``DIR/suite`` and each
``orlicz ...`` line of the README's "Command line" block into its own
``DIR/NN_<subcommand>``, one after another, each in its own process
with one BLAS thread.  A README line that runs ``--suite`` is left
out: the suite run above writes the same files.  It then prints one
``sha256  exit-code  file`` line per output file, sorted by path
relative to DIR, where the exit code is that of the command which wrote
the file.  Two checkouts produce the same outputs exactly when the
manifests of their runs are equal, so ``diff`` of two manifests names
every file that changed.
"""

import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def readme_commands():
    """The orlicz argument lists of the README's "Command line" block."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("orlicz ")]


def run(argv, out):
    """Exit code of ``orlicz argv --out out``, run from ROOT."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, "-m", "orlicz", *argv,
                           "--out", str(out)],
                          cwd=str(ROOT), env=env, capture_output=True)
    return proc.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir", type=Path, help="directory for the outputs")
    args = ap.parse_args(argv)
    top = args.dir.resolve()
    if top.exists() and any(top.iterdir()):
        ap.error("%s is not empty" % top)

    jobs = [("suite", ["run", "--suite", "configs"])]
    jobs += [("%02d_%s" % (i, cmd[0]), cmd)
             for i, cmd in enumerate(readme_commands(), 1)
             if "--suite" not in cmd]
    codes = {}
    for name, cmd in jobs:
        out = top / name
        out.mkdir(parents=True, exist_ok=True)
        codes[name] = run(cmd, out)
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        rel = path.relative_to(top)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print("%s  %d  %s" % (digest, codes[rel.parts[0]], rel))
    return 0


if __name__ == "__main__":
    sys.exit(main())
