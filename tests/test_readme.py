"""The README's library example runs as written."""

from conftest import ROOT


def test_readme_library_example(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "(1, 4, 10, 20, 35)"
