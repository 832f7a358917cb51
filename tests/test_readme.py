"""The README's library quick start runs against this checkout's program.

Deleting or renaming a public name the quick start uses fails here rather
than leaving the README broken.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    # the last line is the measured error over the leading term, advertised ~1
    assert abs(float(printed[-1]) - 1.0) <= 0.05
