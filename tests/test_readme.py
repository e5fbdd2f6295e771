"""The examples in README.md, run as written: every `$ leibniz-quiver`
command of the CLI section against the output printed under it, and the
values that the Quick start comments give."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from leibniz_quiver import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str, text: str = README) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def _examples() -> list:
    """(argv, expected stdout) for each `$ leibniz-quiver` line; its
    output runs to the next `$` line or the end of the block."""
    out = []
    for block in _blocks("sh"):
        current = None
        for line in block.splitlines(keepends=True):
            if line.startswith("$ leibniz-quiver "):
                current = [shlex.split(line[len("$ leibniz-quiver "):]), ""]
                out.append(current)
            elif current is not None:
                current[1] += line
    return [tuple(e) for e in out]


EXAMPLES = _examples()


def test_readme_has_the_twelve_cli_examples():
    assert len(EXAMPLES) == 12


@pytest.fixture
def input_files(tmp_path, monkeypatch):
    # The algebra and the bimodule of the "Input files" section, in the
    # names the examples read them under.
    section = README[README.index("### Input files"):]
    algebra, bimodule = _blocks("json", section)[:2]
    (tmp_path / "trivial.json").write_text(algebra, encoding="utf-8")
    (tmp_path / "anti2.json").write_text(bimodule, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_cli_example(input_files, capsys, argv, expected):
    assert expected
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.splitlines() == expected.splitlines()


def test_readme_quick_start_values(capsys):
    # Each expression statement whose comment is a Python literal must
    # evaluate to it; every other statement runs as written.
    [block] = _blocks("python")
    lines = block.splitlines()
    env, checked = {}, 0
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        try:
            want = ast.literal_eval(comment)
        except (SyntaxError, ValueError):
            exec(source, env)
            continue
        assert isinstance(node, ast.Expr)
        assert eval(source, env) == want, source
        checked += 1
    assert checked == 3
    assert capsys.readouterr().out.startswith("digraph G {")
