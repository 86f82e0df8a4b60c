"""scripts/code_lines.py prints one line per src/fdridge module and their
total."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_code_lines_prints_each_module_and_their_sum():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py")],
        capture_output=True, text=True, check=True).stdout
    lines = [line.split() for line in out.splitlines()]
    counts = {name: int(count) for count, name in lines}
    total = counts.pop("total")
    modules = sorted(path.name for path in (ROOT / "src" / "fdridge").glob("*.py"))
    assert len(lines) == len(modules) + 1
    assert sorted(counts) == modules
    assert total == sum(counts.values())
