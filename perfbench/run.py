#!/usr/bin/env python3
"""Builds the benchmark and the `figures` binary from source, then runs one
workload in a fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-traced --seed 1 --seconds 20 --trace 0

Every argument is passed to the `perfbench` binary (see perfbench/README.md).
Build output goes to stderr; the last line of stdout is the result object.
Exits non-zero, without a result, when the build or the run fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()


def build(target_dir):
    """Builds both binaries; returns their paths, or None on failure."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "mashup-bench", "--bin", "figures"],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    release = target_dir / "release"
    return release / "perfbench", release / "figures"


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and p.suffix in (".rs", ".toml", ".json"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "source-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    target_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    binaries = build(target_dir)
    if binaries is None:
        return 1
    perfbench, figures = binaries
    cmd = [str(perfbench), *sys.argv[1:], "--figures-bin", str(figures),
           "--commit", source_id(), "--rustc", rustc_version()]
    child = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
