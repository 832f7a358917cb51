"""The README's library quick start runs against this checkout's program,
its config sample lists the CLI's defaults, and its scheme sample parses.

Deleting or renaming a public name the quick start uses, changing a default
the config sample shows, changing the scheme-file grammar under its sample, or
changing a rule the "Config files" section says is fixed in code fails here
rather than leaving the README broken.
"""

import configparser
import re
from pathlib import Path

from trisplit import cli, duhamel, harness
from trisplit.splitting import make_lie_trotter, make_strang, parse_scheme

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


def test_readme_states_the_rules_fixed_in_code():
    # each `module.NAME = value` in the "Config files" section is the constant's value
    section = README.read_text().split("## Config files", 1)[1].split("\n## ", 1)[0]
    stated = re.findall(r"`(duhamel|harness)\.([A-Z0-9_]+) = ([^`]+)`", section)
    assert {(module, name): float(value) for module, name, value in stated} == {
        ("duhamel", "GAUSS_ORDER"): duhamel.GAUSS_ORDER,
        ("duhamel", "MAX_PANELS"): duhamel.MAX_PANELS,
        ("duhamel", "QUADRATURE_RTOL"): duhamel.QUADRATURE_RTOL,
        ("harness", "DISCREPANCY_TOL"): harness.DISCREPANCY_TOL,
        ("harness", "BOUND_SLACK"): harness.BOUND_SLACK,
        ("harness", "ERROR_FLOOR"): harness.ERROR_FLOOR,
        ("harness", "R2_GATE"): harness.R2_GATE,
        ("harness", "ORDER_WINDOW"): harness.ORDER_WINDOW,
        ("harness", "REFERENCE_GATE"): harness.REFERENCE_GATE,
        ("harness", "COMMUTE_FACTOR"): harness.COMMUTE_FACTOR,
    }
    assert f"needs more than {duhamel.MAX_PANELS} panels exits `2`" in section
    assert "every row the artifact prints; no row is dropped" in section
    orders = {make_lie_trotter().operands: 1.0, make_strang().operands: 2.0}
    assert harness.NOMINAL_ORDERS == orders
    assert "(1 for Lie–Trotter's operands, 2 for Strang's, none otherwise)" in section
