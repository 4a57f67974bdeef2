import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out  # the example prints the final norms
