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
