#!/usr/bin/env python3
"""Build the benchmark and the pathfinderd daemon from source, then run one
workload and relay its output.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload aes-keyrec --seed 1 --seconds 20 --trace 0

Every build product, cache and scratch file lives under the build directory
(``$CARGO_TARGET_DIR`` when set, else ``.bench_build``) inside the checkout.
The last line of standard output is the benchmark's JSON result; the exit
code is non-zero when the build, an output check or the model-validation
check fails.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def source_digest(root):
    """Content hash of the Go sources, standing in for a commit id when the
    checkout carries no version-control metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def commit_id(root):
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                suffix = "-dirty+" + source_digest(root) if dirty.stdout.strip() else ""
                return out.stdout.strip() + suffix
        except (OSError, subprocess.SubprocessError):
            pass
    return source_digest(root)


def main():
    root = os.path.dirname(HERE)
    build = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        print("perfbench: no pathfinder module beside the benchmark; run from a full source checkout",
              file=sys.stderr)
        return 2
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        # The go command keeps telemetry and its env file under the user
        # config directory; point it into the build directory as well.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    bindir = os.path.join(build, "bin")
    bench_bin = os.path.join(bindir, "perfbench")
    daemon_bin = os.path.join(bindir, "pathfinderd")
    builds = [
        (["go", "build", "-o", bench_bin, "."], HERE),
        (["go", "build", "-o", daemon_bin, "./cmd/pathfinderd"], root),
    ]
    for cmd, cwd in builds:
        res = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    env["PERFBENCH_COMMIT"] = commit_id(root)
    workdir = os.path.join(build, "run-%d" % os.getpid())
    args = [bench_bin, "-pathfinderd", daemon_bin, "-workdir", workdir] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=root, env=env)
    # Forward a stop request to the benchmark, which drains its daemons,
    # and wait for it to exit.
    signal.signal(signal.SIGTERM, lambda *_: proc.send_signal(signal.SIGTERM))
    try:
        code = proc.wait()
    except KeyboardInterrupt:
        proc.send_signal(signal.SIGTERM)
        code = proc.wait()
    shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
