#!/usr/bin/env python3
"""seerctl reads a binary trace as it reads the same trace in text.

Two checks, both end to end through the seerctl binary:

1. A binary trace cut inside its 8-byte magic header is a truncated binary
   trace, not an empty text trace: for every non-empty proper prefix of the
   magic, `seerctl stats FILE` must report the binary decoders'
   "DATA_LOSS: binary trace: truncated magic header" on stderr.
2. `seerctl gen-trace` writes one seeded trace twice, as text and with
   --binary; `seerctl replay --save` on each must save byte-identical
   databases.

Usage: seerctl_binary_trace_test.py PATH_TO_SEERCTL
"""
import os
import subprocess
import sys
import tempfile

MAGIC = b"SEERBT1\n"
TRUNCATED = "DATA_LOSS: binary trace: truncated magic header"


def run(seerctl, args, cwd):
    return subprocess.run([seerctl, *args], capture_output=True, text=True, cwd=cwd,
                          timeout=300)


def check_truncated_magic(seerctl, cwd, failures):
    for cut in range(1, len(MAGIC)):
        path = os.path.join(cwd, f"cut{cut}.bt")
        with open(path, "wb") as f:
            f.write(MAGIC[:cut])
        result = run(seerctl, ["stats", path], cwd)
        if TRUNCATED not in result.stderr:
            failures.append(f"seerctl stats on the first {cut} magic bytes: exit "
                            f"{result.returncode}, stderr {result.stderr.strip()!r}, stdout "
                            f"{result.stdout.splitlines()[:1]!r}; want {TRUNCATED!r} on stderr")


def check_binary_replay_matches_text(seerctl, cwd, failures):
    gen = ["gen-trace", "--machine", "F", "--hours", "8", "--seed", "5"]
    saved = {}
    for kind, extra in (("text", []), ("binary", ["--binary"])):
        trace = os.path.join(cwd, f"trace.{kind}")
        db = os.path.join(cwd, f"{kind}.seersnap")
        for args in (gen + extra + ["-o", trace], ["replay", trace, "--save", db]):
            result = run(seerctl, args, cwd)
            if result.returncode != 0:
                failures.append(f"seerctl {' '.join(args)}: exit {result.returncode}, "
                                f"stderr {result.stderr.strip()!r}")
                return
        with open(db, "rb") as f:
            saved[kind] = f.read()
    with open(os.path.join(cwd, "trace.binary"), "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            failures.append("gen-trace --binary did not write a binary trace")
    if not saved["text"]:
        failures.append("replay --save wrote an empty database")
    if saved["text"] != saved["binary"]:
        failures.append(f"databases differ: text replay saved {len(saved['text'])} B, "
                        f"binary replay {len(saved['binary'])} B")


def main():
    seerctl = os.path.abspath(sys.argv[1])
    failures = []
    with tempfile.TemporaryDirectory() as cwd:
        check_truncated_magic(seerctl, cwd, failures)
        check_binary_replay_matches_text(seerctl, cwd, failures)
    for failure in failures:
        print("FAIL", failure)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
