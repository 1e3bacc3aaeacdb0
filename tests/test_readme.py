import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_use_snippet_runs(capsys):
    # The README's "Library use" block runs as written and its audit passes.
    with open(README) as fh:
        text = fh.read()
    block = re.search(r"Library use:\s*```python\n(.*?)```", text, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
    total, passed, min_slack = capsys.readouterr().out.split()
    assert float(total) >= 0 and passed == "True" and float(min_slack) >= 0
