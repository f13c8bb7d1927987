"""The README's library example and command lines run as written."""

import json
import shlex

from hopfcore.cli import main
from conftest import ROOT


def test_readme_library_example(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "(1, 4, 10, 20, 35)"


def test_readme_command_lines_run(monkeypatch, capsys):
    """Each ``hopfcore`` line of the "Command line" block, continuations
    joined, runs through ``cli.main`` from the repository root and ends in
    a report with its documented exit code."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["hopfcore", command] for command in ("build", "verify", "conv", "hcore")
    ]
    monkeypatch.chdir(ROOT)
    codes = []
    for argv in commands:
        codes.append(main(argv[1:]))
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == argv[1]
        assert report["status"] in ("ok", "inconclusive")
    assert codes == [0, 0, 0, 3]
