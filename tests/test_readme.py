import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_as_written(capsys):
    # the README's example, read from the file, so that it cannot go stale
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    f_p, bitstring, cycles, overflow = capsys.readouterr().out.split()
    # the triangle at p = 1: two operations of N + 19 = 27 clocks each
    assert 0.0 < float(f_p) <= 2.0 and len(bitstring) == 3
    assert (cycles, overflow) == ("54", "False")
