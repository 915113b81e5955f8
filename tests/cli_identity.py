"""A fixed list of desk-dims `qmop` commands, and one sha256 per command over
its exit code, stdout, stderr and every file in its working directory.

    python tests/cli_identity.py SRC OUT

runs each command as `python -m qmop.cli` with `PYTHONPATH=SRC`, in a fresh
temporary directory of its own with relative paths, and writes OUT: one line
`<sha256>  <name>` per command. Two source trees whose OUT files are equal
answer every listed command byte for byte alike. A step whose exit code is
not the one listed is named on stderr, and the script then exits 1.
`tests/test_cli.py` runs the same list in-process and checks each exit code.
No listed command prints the host's free memory, so OUT does not depend on
the host.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

# the default desk config, and one with the other activation, a shared pool
# phi and a set router width
CONFIGS = {"desk.json": {},
           "other.json": {"activation": "relu", "shared_pool_phi": True,
                          "router_hidden": 5}}
MODES = ("topk:1", "topk:2", "topk:3", "threshold:0.3", "train", "stage1")
SYNTH = ["synth", "--seed", "1", "--out", "b.qmop"]   # the desk dims


def _cut() -> None:
    """Truncate `SYNTH`'s bundle inside its header."""
    Path("b.qmop").write_bytes(Path("b.qmop").read_bytes()[:40])


def _bad_magic() -> None:
    Path("b.qmop").write_bytes(b"XXXX" + Path("b.qmop").read_bytes()[4:])


class Command(NamedTuple):
    """`steps` run in order: a `qmop` argv, which exits 0, or a function
    that edits a file in place; the last step is an argv that exits
    `exit`."""
    name: str
    steps: list
    exit: int = 0


def _compress(cfg: str, mode: str) -> list[str]:
    return ["compress", "--features", "b.qmop", "--config", cfg,
            "--mode", mode, "--no-timing", "--dump-tokens"]


COMMANDS = [
    Command("synth-4x4-seed3", [["synth", "--seed", "3", "--out", "s.qmop"]]),
    Command("synth-4x4-seedmax", [["synth", "--seed", str(2 ** 64 - 1),
                                   "--out", "s.qmop"]]),
    Command("synth-6x6", [["synth", "--grid", "6x6", "--cvis", "5",
                           "--ctxt", "3", "--out", "s.qmop"]]),
    *(Command(f"compress-{cfg[:-5]}-{mode}", [SYNTH, _compress(cfg, mode)])
      for cfg in CONFIGS for mode in MODES),
    Command("compress-dims-mismatch",
            [["synth", "--grid", "6x6", "--out", "b.qmop"],
             _compress("desk.json", "topk:2")], exit=3),
    Command("compress-truncated",
            [SYNTH, _cut, _compress("desk.json", "topk:2")], exit=2),
    Command("compress-bad-magic",
            [SYNTH, _bad_magic, _compress("desk.json", "topk:2")], exit=2),
    *(Command(f"train-toy-stage{stage}",
              [["train-toy", "--config", "desk.json", "--stage", str(stage),
                "--steps", "5"]]) for stage in (1, 2)),
    Command("gradcheck", [["gradcheck", "--config", "desk.json",
                           "--trials", "2"]]),
    Command("cost", [["cost", "--tokens", "144"]]),
]


def play(command: Command,
         run: Callable[[list[str]], tuple[int, bytes, bytes]]
         ) -> tuple[str, list[str]]:
    """Run `command` in the working directory: write `CONFIGS`, then each
    step, an argv through `run`, which returns its exit code, stdout and
    stderr. Returns the sha256 over every argv's results and then every file
    in the directory, and a line for each argv that did not exit as
    listed."""
    for name, cfg in CONFIGS.items():
        Path(name).write_text(json.dumps(cfg))
    digest, wrong = hashlib.sha256(), []
    for i, step in enumerate(command.steps, 1):
        if callable(step):
            step()
            continue
        code, out, err = run(step)
        if code != (command.exit if i == len(command.steps) else 0):
            wrong.append(f"{command.name}: {' '.join(step)} exited {code}")
        for part in (str(code).encode(), out, err):
            digest.update(len(part).to_bytes(8, "little") + part)
    for path in sorted(Path(".").iterdir()):
        for part in (path.name.encode(), path.read_bytes()):
            digest.update(len(part).to_bytes(8, "little") + part)
    return digest.hexdigest(), wrong


def main(src: str, out: str) -> int:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}

    def run(argv: list[str]) -> tuple[int, bytes, bytes]:
        res = subprocess.run([sys.executable, "-m", "qmop.cli", *argv],
                             env=env, capture_output=True)
        return res.returncode, res.stdout, res.stderr

    lines, failed = [], []
    home = os.getcwd()
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                digest, wrong = play(command, run)
            finally:
                os.chdir(home)
        lines.append(f"{digest}  {command.name}\n")
        failed += wrong
    Path(out).write_text("".join(lines))
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} SRC OUT")
    sys.exit(main(*sys.argv[1:]))
