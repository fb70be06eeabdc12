#!/usr/bin/env python3
"""Every flag a seerctl command's help names is one the command accepts.

seerctl refuses a flag that is not in the command's flag list
(Subcommand::flags) with "unknown flag", so a flag documented in the help
but missing from that list would be refused. For each command, nested ones
included, this reads `seerctl ... CMD --help`, collects every flag the help
text names outside `backquoted` spans (which quote other commands), and
runs `seerctl ... CMD FLAG` with nothing else: the command must not refuse
the flag as unknown (it fails for its missing arguments, or for the missing
value of a value flag given last).

It also checks that a value flag given as the last word is refused, exit 2,
instead of running the command without it.

Usage: seerctl_flags_test.py PATH_TO_SEERCTL
"""
import os
import re
import subprocess
import sys
import tempfile

FLAG = re.compile(r"(?<![\w-])(--?[a-z][a-z0-9-]*)")


def run(seerctl, args, cwd):
    return subprocess.run([seerctl, *args], capture_output=True, text=True, cwd=cwd,
                          timeout=60)


def commands(seerctl, prefix, cwd):
    """Command paths listed by the usage of `seerctl PREFIX...`."""
    usage = run(seerctl, prefix, cwd).stderr
    names = []
    for line in usage.splitlines():
        words = line.split()
        if words[:1 + len(prefix)] == ["seerctl", *prefix] and len(words) > 1 + len(prefix):
            names.append(words[1 + len(prefix)])
    return names


def main():
    seerctl = os.path.abspath(sys.argv[1])
    failures = []
    checked = 0
    with tempfile.TemporaryDirectory() as cwd:
        for name in commands(seerctl, [], cwd):
            nested = commands(seerctl, [name], cwd)
            for path in ([[name, sub] for sub in nested] if nested else [[name]]):
                help_text = run(seerctl, path + ["--help"], cwd).stdout
                if not help_text:
                    failures.append(f"seerctl {' '.join(path)} --help printed nothing")
                    continue
                own_text = re.sub(r"`[^`]*`", "", help_text)
                for flag in sorted(set(FLAG.findall(own_text)) - {"--help", "-h"}):
                    checked += 1
                    result = run(seerctl, path + [flag], cwd)
                    if "unknown flag" in result.stderr:
                        failures.append(f"seerctl {' '.join(path)}: its help names {flag}, "
                                        f"which it refuses: {result.stderr.strip()}")
        # A value flag given last is refused, not read as absent (which would
        # replay TRACE, save nothing and exit 0).
        result = run(seerctl, ["replay", "trace.txt", "--save"], cwd)
        want = "seerctl replay: flag '--save' needs a value"
        if result.returncode != 2 or result.stderr.strip() != want:
            failures.append(f"seerctl replay trace.txt --save: exit {result.returncode}, "
                            f"stderr {result.stderr.strip()!r}; want exit 2, {want!r}")
    for failure in failures:
        print("FAIL", failure)
    print(f"{checked} documented flags checked, {len(failures)} refused")
    return 1 if failures or checked == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
