"""The package root exports the README's Library names, and that example runs."""

import os
import re

import dpmi

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_root_names_and_readme_library_example(capsys):
    assert sorted(dpmi.__all__) == ["PrivacyConfig", "Record", "rank_records", "synth_generate"]
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"^## Library\n+```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [str(i) for i in range(1, 11)]
