"""The README's Python examples run as written and print what they say.

Every ```python block of README.md runs in order in one namespace, as a
reader pasting them into one session would.  The ``# ...`` lines that end
a block document its output: the printed text must match them word for
word, and each printed number must lie within a factor of 10 of the
documented one (the refined errors sit near roundoff, whose last digits
depend on the BLAS).
"""
import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def documented_output(block):
    lines = block.rstrip("\n").splitlines()
    tail = []
    while lines and lines[-1].startswith("# "):
        tail.insert(0, lines.pop()[2:])
    return tail


def same_up_to_numbers(printed, documented):
    if NUMBER.sub("#", printed) != NUMBER.sub("#", documented):
        return False
    for got, want in zip(NUMBER.findall(printed), NUMBER.findall(documented)):
        got, want = float(got), float(want)
        if got == want:
            continue
        if got * want <= 0 or abs(math.log10(got / want)) >= 1.0:
            return False
    return True


def test_readme_python_blocks_run_and_print_what_they_document():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks
    namespace = {}
    for number, block in enumerate(blocks, start=1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, f"README.md python block {number}", "exec"),
                 namespace)
        printed = out.getvalue().splitlines()
        documented = documented_output(block)
        assert len(printed) == len(documented), (number, printed, documented)
        for got, want in zip(printed, documented):
            assert same_up_to_numbers(got, want), (number, got, want)
