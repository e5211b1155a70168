"""The README's code runs as written: the "Library tour" block, every
`frame-sync` line of its shell blocks, and every JSON spec example."""
import contextlib
import io
import json
import pathlib
import re
import shlex

import pytest

from framesync.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", TEXT, flags=re.S)


def test_library_tour_runs():
    section = TEXT.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().strip()


COMMAND_LINES = [line for block in _blocks("sh") for line in block.splitlines()
                 if line.startswith("frame-sync ")]


def test_readme_lists_the_examples_and_experiments():
    assert len(COMMAND_LINES) == 10   # six examples, four experiments


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_readme_command_line_runs(capsys, tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)   # for --out
    assert main(shlex.split(line, comments=True)[1:]) == 0, capsys.readouterr().err


def _spec_examples():
    [block] = _blocks("json")
    decoder, docs, at = json.JSONDecoder(), [], 0
    while block[at:].strip():
        at += len(block[at:]) - len(block[at:].lstrip())
        doc, at = decoder.raw_decode(block, at)
        docs.append(doc)
    return docs


def test_readme_has_three_spec_examples():
    assert len(_spec_examples()) == 3


@pytest.mark.parametrize("spec", _spec_examples(), ids=lambda spec: next(iter(spec)))
def test_readme_spec_example_runs(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    flag = "--cost" if "type" in spec else "--state"
    assert main(["cost", flag, str(path)]) == 0, capsys.readouterr().err
