import re
import types
from pathlib import Path

import aoiflow


def test_all_names_resolve_to_non_modules():
    assert len(aoiflow.__all__) == len(set(aoiflow.__all__))
    for name in aoiflow.__all__:
        assert not isinstance(getattr(aoiflow, name), types.ModuleType), name


def test_readme_library_example_prints_what_it_promises(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library\n+```python\n(.*?)```", readme, re.S).group(1)
    promised = block.rsplit("# ", 1)[1].strip()
    assert promised == "17 [Fraction(10, 7)]"
    exec(block, {})
    assert capsys.readouterr().out == promised + "\n"
