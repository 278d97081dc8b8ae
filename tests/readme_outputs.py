"""Run the README's command-line examples on two trees and compare what they write.

Run from anywhere::

    python tests/readme_outputs.py [--ref REV]

It reads the ``bash`` block under the README's ``## Command line`` heading
and runs each command in it, ``dcinv`` as ``python -m dcinv.cli``, twice:
once on this working tree's ``src/`` and once on the ``src/`` of a ``git
archive REV`` export (default ``HEAD``), each tree in its own temporary
directory.  It compares each command's exit code, stdout and stderr, and
every file the commands leave, byte for byte; for a text file of numbers
that differs it also prints the largest relative difference of its values.
It prints one line per command and per difference, and exits 1 if anything
differs, else 0.  Pytest does not collect this file (its name is not
``test_*.py``).
"""

from __future__ import annotations

import argparse
import io
import math
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_commands() -> list[list[str]]:
    """The argv of each command in the README's command-line block, comments
    dropped and continued lines joined."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    block = block.replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def run_tree(src: Path, commands, work: Path) -> tuple[list[tuple], dict[str, bytes]]:
    """Runs ``commands`` in a new directory ``work`` against the package in
    ``src``; returns (exit code, stdout, stderr) per command and the bytes of
    every file left."""
    work.mkdir()
    env = {**os.environ, "PYTHONPATH": str(src)}
    results = []
    for argv in commands:
        if argv[0] != "dcinv":
            raise ValueError(f"a README command that is not dcinv: {shlex.join(argv)}")
        done = subprocess.run([sys.executable, "-m", "dcinv.cli", *argv[1:]], cwd=work, env=env,
                              capture_output=True)
        results.append((done.returncode, done.stdout, done.stderr))
    files = {str(p.relative_to(work)): p.read_bytes()
             for p in sorted(work.rglob("*")) if p.is_file()}
    return results, files


def largest_relative_difference(a: bytes, b: bytes) -> str:
    """The largest relative difference of two text files' numbers (NaN against
    anything else counts as inf), when both are text with the same count of
    numeric tokens; else why not."""
    def numbers(data):
        values = []
        for token in data.decode().split():
            try:
                values.append(float(token))
            except ValueError:
                pass
        return values

    def move(u, v):
        if u == v or math.isnan(u) and math.isnan(v):
            return 0.0
        return math.inf if math.isnan(u) or math.isnan(v) else abs(u - v) / max(abs(u), abs(v))

    try:
        x, y = numbers(a), numbers(b)
    except UnicodeDecodeError:
        return "not text"
    if len(x) != len(y):
        return f"{len(x)} numbers against {len(y)}"
    return f"largest relative difference {max(map(move, x, y), default=0.0):.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", default="HEAD", help="the revision to compare against")
    args = parser.parse_args(argv)
    commands = readme_commands()
    with tempfile.TemporaryDirectory() as tmp:
        ref_root = Path(tmp, "ref")
        archive = subprocess.run(["git", "archive", args.ref, "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(ref_root, filter="data")
        ours, our_files = run_tree(ROOT / "src", commands, Path(tmp, "tree-run"))
        theirs, their_files = run_tree(ref_root / "src", commands, Path(tmp, "ref-run"))

    differences = 0
    for argv, mine, ref in zip(commands, ours, theirs):
        diffs = [part for part, u, v in zip(("exit code", "stdout", "stderr"), mine, ref) if u != v]
        differences += len(diffs)
        print(f"{'differs in ' + ', '.join(diffs) if diffs else 'same'}: {shlex.join(argv)}")
    for path in sorted(our_files.keys() | their_files.keys()):
        if path not in our_files or path not in their_files:
            differences += 1
            print(f"only in {'the tree' if path in our_files else args.ref}: {path}")
        elif our_files[path] != their_files[path]:
            differences += 1
            print(f"differs: {path} "
                  f"({largest_relative_difference(our_files[path], their_files[path])})")
    print(f"{len(commands)} commands and {len(our_files | their_files)} files: "
          f"{differences} differences against {args.ref}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
