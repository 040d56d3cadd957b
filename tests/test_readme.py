"""The README's Library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_gives_the_constant_radius():
    # constant data c = 3 with k = 1, p = 1.5, q = 2 on S^2: the solution is
    # h = (c / binom(2, 1))^(1/(q-p)) = 2.25, which the example prints
    # next to the closed form
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), scope)
    printed = [float(word) for word in out.getvalue().split()]
    assert printed[1] == 2.25
    assert abs(printed[0] - 2.25) <= 1e-12
    assert abs(max(scope["h"].values) - 2.25) <= 1e-12


def test_readme_config_table_names_exactly_the_parsed_keys():
    # every backticked key in the first column of the "Config keys" table,
    # once, against the keys config.py declares
    from cmkit.config import _KEYS

    table = README.read_text().split("### Config keys\n", 1)[1].split("\n#", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(_KEYS)
