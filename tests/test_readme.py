"""The README's library quick start runs against this checkout's program,
its config sample lists the CLI's defaults, and its scheme sample parses.

Deleting or renaming a public name the quick start uses, changing a default
the config sample shows, or changing the scheme-file grammar under its sample
fails here rather than leaving the README broken.
"""

import configparser
import re
from pathlib import Path

from trisplit import cli
from trisplit.splitting import make_strang, parse_scheme

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    # the last line is the measured error over the leading term, advertised ~1
    assert abs(float(printed[-1]) - 1.0) <= 0.05


def test_readme_config_sample_is_the_defaults():
    # "defaults above": every section, key and value of the sample is cli.DEFAULTS
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(blocks[0])
    assert parser.get("config", "version") == cli.CONFIG_VERSION
    sample = {name: dict(parser.items(name)) for name in parser.sections() if name != "config"}
    assert sample == cli.DEFAULTS


def test_readme_scheme_sample_is_strang():
    blocks = re.findall(r"```text\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    assert parse_scheme(blocks[0]) == make_strang()
