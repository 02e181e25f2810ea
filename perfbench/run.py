#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary prints its report; this launcher passes it through,
adds the process's peak resident memory (`peak_rss_mb`) to the end-to-end
metrics, and prints the result object as the last line. It exits with the
benchmark's exit code, or non-zero without a result when the build or the
run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds the release binary and returns its path (None on failure)."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    exe = None
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg["target"]["name"] == "perfbench":
            exe = msg.get("executable") or exe
    return exe


def main():
    args = sys.argv[1:]
    traced = "--trace" in args and args[args.index("--trace") + 1:][:1] != ["0"]
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return proc.returncode or 2
    for line in lines[:-1]:
        print(line)
    if not traced:
        # ru_maxrss is in KiB on Linux.
        mb = usage.ru_maxrss / 1024.0
        print(f"metric {'peak_rss_mb':<34} {mb:>16.6f} MB     [peak resident memory of the run]")
        result["metrics"]["peak_rss_mb"] = {"value": mb, "unit": "MB"}
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
