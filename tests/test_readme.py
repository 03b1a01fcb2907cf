"""The README's library examples run against the source tree.

The "Library quick start" block and the SGD drop-in snippet that continues
it run as one script, so an API change cannot leave them stale. The
binary_labels snippet reads a LibSVM file the README does not ship, so it
stays illustrative and is not run. Every line of the command-line block
must parse, and every subcommand's --help must print.
"""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from aucmax.cli import build_parser

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


def cli_lines() -> list[list[str]]:
    """The README's `aucmax ...` command lines, continuation lines joined."""
    block = re.search(r"^```\n(aucmax .*?)^```", (ROOT / "README.md").read_text(), re.S | re.M).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def sub_parsers(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_examples_parse():
    lines = cli_lines()
    commands = sub_parsers(build_parser())
    assert {argv[1] for argv in lines} == set(commands)
    for argv in lines:
        assert argv[0] == "aucmax"
        build_parser().parse_args(argv[1:])


@pytest.mark.parametrize("command", sorted(sub_parsers(build_parser())))
def test_help_formats(capsys, command):
    # argparse formats help text only when asked, so a bad help string fails here first
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: aucmax {command}")
