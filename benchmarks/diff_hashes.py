"""Diff ``output_hashes.py`` between this checkout and a git revision, to
show that a change leaves the discovered patterns and the trained models
bit-identical.

    python benchmarks/diff_hashes.py [REV]

``REV`` defaults to ``HEAD``.  The script extracts ``REV`` into a
temporary directory with ``git archive`` and ``tar``, runs that tree's own
``benchmarks/output_hashes.py`` against that tree's ``src`` and then this
checkout's against this checkout's ``src`` (its working files, edits
included), prints a unified diff of the two outputs and exits 1 on any
difference.  It writes nothing under ``.git``, and the temporary directory
goes at the end.  It needs no network; each ``output_hashes.py`` run takes
a few seconds.
"""

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def hashes(tree: Path) -> list[str]:
    """The lines ``tree``'s ``output_hashes.py`` prints on ``tree``'s ``src``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    script = tree / "benchmarks" / "output_hashes.py"
    run = subprocess.run([sys.executable, str(script)], cwd=tree, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return run.stdout.splitlines(keepends=True)


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
        old = hashes(tree)
    new = hashes(ROOT)
    diff = list(difflib.unified_diff(old, new, rev, "checkout"))
    sys.stdout.writelines(diff)
    if not diff:
        print(f"no difference in {len(new)} lines")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "HEAD"))
