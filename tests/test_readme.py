"""The README's library example, run as written."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_the_readme_python_block_runs_and_prints_the_k3_summary():
    with open(README, encoding="utf-8") as fh:
        (block,) = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    assert out.getvalue().startswith("tw=3 pw=3 bw=2 ")
    assert out.getvalue().count("\n") == 1
