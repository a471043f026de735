import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_readme_python_blocks_run_and_give_their_commented_results():
    blocks = python_blocks()
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    ot, c, mu, nu = (namespace[name] for name in ("ot", "c", "mu", "nu"))
    assert ot.check_chain(c, mu, nu).as_tuple() == (0, 0, 1, 1)
    assert ot.wasserstein1(namespace["space"].metric, (1, 0), (0, 1)).primal_value == 1
