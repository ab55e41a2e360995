#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 24 --trace 0

It builds perfbench/ (a Go module that uses the program's packages from
the repository) into .bench_build/, with the Go build cache kept there
too, prepares the serve-live boot snapshot on first use, runs one
benchmark process and forwards its output. The last line of standard
output is the result object.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT = 170  # seconds; a run must end within 180


def source_hash():
    """A hash of the Go sources and the benchmark's recorded values."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum", "golden.json"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def source_revision(src):
    """The commit when in a git checkout, else the source hash."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return src


def go_env():
    env = dict(os.environ)
    # Everything the toolchain would write under $HOME (build cache,
    # module cache, telemetry counters) stays in the checkout.
    env.update({
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    return env


def run(cmd, timeout, env, **kw):
    """Run a child and wait for it, killing it on timeout."""
    proc = subprocess.Popen(cmd, env=env, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: %s timed out after %ds" % (cmd[0], timeout), file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", type=int, default=0,
                    help="held-out input: another world scale divisor")
    ap.add_argument("--rate", type=float, default=0, help="serve-live request rate override")
    args = ap.parse_args()

    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    pkg = os.path.join(ROOT, "perfbench")
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; run from the repository root" % ROOT, file=sys.stderr)
        return 1
    if run(["go", "build", "-o", BIN, "."], 900, env, cwd=pkg) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    src = source_hash()
    cmd = [BIN, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-dir", os.path.join(BUILD, "work"), "-commit", source_revision(src), "-src", src,
           "-spec", os.path.join(ROOT, "BENCHMARK.json")]
    if args.scale:
        cmd += ["-scale", str(args.scale)]
    if args.rate:
        cmd += ["-rate", str(args.rate)]
    if args.workload == "serve-live":
        # The boot snapshot is an input, built once per scale and sources.
        if run(cmd + ["-prepare"], 600, env, cwd=ROOT) != 0:
            return 1
    return run(cmd, RUN_TIMEOUT, env, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
