import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def section_code_blocks(heading):
    """The ```python blocks under one ``## heading`` of the README, in order."""
    text = README.read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_entry_points_run(capsys):
    blocks = section_code_blocks("Library entry points")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    iterations, l2 = capsys.readouterr().out.split()
    assert int(iterations) > 0 and float(l2) < 1e-6
    assert namespace["x1"].shape == namespace["ctx"].initial_guess().shape
