import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_library_example_prints_its_comments():
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    # Every comment in the example, trailing or on its own line, is one
    # line of its output, in order.
    expected = [line.split("# ", 1)[1].rstrip()
                for line in block.splitlines() if "# " in line]
    assert expected[:2] == ["48 (4, 4) 0 False", "False"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
