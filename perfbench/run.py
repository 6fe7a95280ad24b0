#!/usr/bin/env python3
"""Build and run the fsicp end-to-end benchmark.

    python3 perfbench/run.py --workload suite-compile --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The benchmark is built from source with
dune (build output under _build/, the dune cache disabled), then run once;
its last line of standard output is the JSON result.  A traced run also
writes its spans to perfbench/out/.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-compile", "corpus-compile", "serve-session")
RUN_TIMEOUT_S = 170


def dune(args):
    """Run dune in the checkout, its output kept off our stdout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    return subprocess.run(
        ["dune"] + args + ["--root", ROOT],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    ).returncode


def files_under(path):
    """Files under [path] in a fixed order, skipping run output."""
    if os.path.isfile(path):
        return [path]
    found = []
    for d, subdirs, fs in os.walk(path):
        subdirs[:] = sorted(s for s in subdirs if s != "out")
        found += [os.path.join(d, f) for f in sorted(fs)]
    return found


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        for f in files_under(os.path.join(ROOT, top)):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, help="worker domains (default: nproc)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own tests and exit")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(dune(["build", "@perfbench/runtest"]))
    if args.workload is None:
        ap.error("--workload is required")

    if dune(["build", "./perfbench/bench.exe"]) != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)

    cmd = [
        os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--commit", source_id(),
    ]
    if args.jobs is not None:
        cmd += ["--jobs", str(args.jobs)]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        sys.exit(subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
