import re
from pathlib import Path

import jacobibands

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch():
    """The python block under the README heading "Library sketch"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library sketch'"
    return match.group(1)


def test_readme_library_sketch_runs():
    # The sketch runs as written and imports only public names, so it
    # cannot drift from the API it describes.
    code = library_sketch()
    imported = re.search(r"from jacobibands import \((.*?)\)", code, re.DOTALL).group(1)
    names = [n.strip() for n in imported.split(",") if n.strip()]
    assert names and set(names) <= set(jacobibands.__all__)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["bs"].p == 2
    assert len(scope["plus"]) == len(scope["minus"]) == 2
    assert len(scope["rep"].records) == 13


def test_readme_public_api_is_all():
    # The names under "Public API" are exactly jacobibands.__all__, so the
    # API cannot grow or shrink without a change to the README.
    text = README.read_text(encoding="utf-8")
    section = text.split("## Public API", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`([A-Za-z_]\w*)`", section)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(jacobibands.__all__)
