"""The README's library examples run against the source tree.

The "Library quick start" block and the SGD drop-in snippet that continues
it run as one script, so an API change cannot leave them stale. The
binary_labels snippet reads a LibSVM file the README does not ship, so it
stays illustrative and is not run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_quick_start_and_sgd_snippet_run(tmp_path):
    blocks = python_blocks()
    quick_start = next(b for b in blocks if "train_batch(train_emb" in b)
    sgd = next(b for b in blocks if "train_sgd(train_emb" in b)
    script = quick_start + sgd + "print(auc(test_emb.X @ model.w, test_emb.y).auc)\n"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    batch_auc, sgd_auc = (float(line) for line in result.stdout.split())
    assert batch_auc > 0.9 and sgd_auc > 0.9
