"""The README's library tour runs as written against this package."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    # the first python block of the README, so a renamed or removed name fails here
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(compile(tour, str(README), "exec"), namespace)
    assert 1.0 < namespace["b99"] / namespace["p"].b < 1.1
