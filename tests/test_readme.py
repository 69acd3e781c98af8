"""Run the README's Library example and check each result against its comment."""

import ast
import io
import pathlib
import tokenize

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
