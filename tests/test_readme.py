"""The README library tour runs as printed and gives its commented results."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    np.testing.assert_allclose(scope["vals"], [2, 2, 2, 6], atol=1e-12)
    assert scope["leak"] < 1e-12
    assert scope["verdict"].conclusion == "vanishing"
