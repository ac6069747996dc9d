"""The README's CLI commands, run in README order into one output directory,
reproduce the recorded SHA-256 of every artifact they write.

``readme_cli_digests.json`` maps "<command index>/<artifact>" to the digest
of that artifact right after the command ran; re-record it when an artifact
changes on purpose.
"""

import hashlib
import json
import os
import shlex

from horoshift.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))


def readme_commands():
    """argv of each ``horoshift`` command of the README's CLI section."""
    with open(os.path.join(HERE, os.pardir, "README.md"), encoding="utf-8") as f:
        text = f.read()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("horoshift ")]


def test_readme_cli_artifacts(tmp_path, monkeypatch):
    with open(os.path.join(HERE, "readme_cli_digests.json"),
              encoding="utf-8") as f:
        digests = json.load(f)
    commands = readme_commands()
    assert {int(key.split("/")[0]) for key in digests} == \
        set(range(len(commands)))
    monkeypatch.chdir(tmp_path)  # the commands write to out/
    for i, argv in enumerate(commands):
        assert main(argv) == 0, argv
        for key, want in sorted(digests.items()):
            index, name = key.split("/")
            if int(index) == i:
                got = hashlib.sha256((tmp_path / "out" / name).read_bytes())
                assert got.hexdigest() == want, (argv, name)
