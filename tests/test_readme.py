"""The README's library quick start runs as written and prints what its
comments say."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = []
    exec(compile(code, f"{README.name} quick start", "exec"),
         {"print": lambda *args: printed.append(args)})
    (holds, delta_hat), (strong,) = printed
    assert holds is True and delta_hat == pytest.approx(0.27, abs=0.005)
    assert strong is True
