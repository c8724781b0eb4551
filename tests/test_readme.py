import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # every ```python block of the README runs as written, in order
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
