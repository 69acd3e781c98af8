"""Run the README's Library and CLI examples and check each against what it shows."""

import ast
import io
import itertools
import pathlib
import shlex
import tokenize

from triavg.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    """The first ```python block after the "## Library" heading."""
    text = README.read_text()
    section = text[text.index("\n## Library\n") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```\n", start)]


def test_readme_library_example_runs_as_commented():
    source = library_block()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = comments[stmt.end_lineno]
        try:
            expected = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            assert repr(value) == comment, ast.get_source_segment(source, stmt)
        else:
            assert value == expected, ast.get_source_segment(source, stmt)
        checked += 1
    assert checked == 7


def cli_examples():
    """(command, shown output) for each `$ triavg ...` line of the "## CLI" section.

    The output is the lines after the command, up to the next blank line or
    closing fence, as CI's console-script step reads them.
    """
    text = README.read_text()
    start = text.index("\n## CLI\n")
    lines = text[start : text.index("\n## ", start + 1)].splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ triavg "):
            shown = itertools.takewhile(lambda row: row and row != "```", lines[i + 1 :])
            examples.append((line[2:], "".join(f"{row}\n" for row in shown)))
    return examples


def test_readme_cli_examples_print_what_they_show(capsys):
    examples = cli_examples()
    for command, shown in examples:
        code = main(shlex.split(command)[1:])
        assert (code, capsys.readouterr().out) == (0, shown), command
    assert len(examples) == 8
