"""The line counter ``tools/sloc.py`` that every change reports src with."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
spec = importlib.util.spec_from_file_location("sloc", TOOL)
sloc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sloc)

SAMPLE = '''"""Module docstring,
on two lines."""

# a comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
that spans lines"""  # not a docstring
        return text
'''


def test_counts_lines_code_and_code_without_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    # 14 lines; blank and comment-only lines hold no code; the three
    # docstrings hold 4 lines and the assigned string 2, which stay
    assert sloc.count(path) == (14, 9, 5)


def test_takes_a_file_as_well_as_a_directory(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    sloc.main(["sloc.py", str(path)])
    sloc.main(["sloc.py", str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        f"{where}: 1 files, 14 lines, 9 code, 5 code without docstrings"
        for where in (path, tmp_path)]
