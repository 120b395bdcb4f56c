#!/usr/bin/env python3
"""Builds the benchmark from the repository's sources and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload meta_churn --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py test      # the benchmark's own tests

The benchmark is a Cargo package of its own (perfbench/Cargo.toml). Its
dependencies resolve offline through the stand-ins the root manifest's
[patch.crates-io] table names; this script passes that table to Cargo at
build time, so the benchmark builds whatever stand-ins the repository
currently carries. Cargo's exit code is passed through.
"""

import os
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def patch_flags():
    with open(os.path.join(REPO, "Cargo.toml"), "rb") as f:
        patches = tomllib.load(f).get("patch", {}).get("crates-io", {})
    flags = []
    for name, spec in sorted(patches.items()):
        path = os.path.join(REPO, spec["path"])
        flags += ["--config", f'patch.crates-io.{name}.path="{path}"']
    return flags


def main(argv):
    if not os.path.isfile(os.path.join(REPO, "Cargo.toml")):
        sys.exit("perfbench: run from a repository checkout (no Cargo.toml above perfbench/)")
    manifest = ["--manifest-path", os.path.join(HERE, "Cargo.toml")]
    common = ["--release", "--offline", "--quiet"] + manifest + patch_flags()
    if argv[:1] == ["test"]:
        cmd = ["cargo", "test"] + common + ["--"] + argv[1:]
    else:
        cmd = ["cargo", "run"] + common + ["--"] + argv
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
