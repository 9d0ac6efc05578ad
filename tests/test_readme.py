import re
import shlex
from pathlib import Path

from feec import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_executes():
    text = README.read_text()
    match = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert match, "README lost its quick start block"
    exec(compile(match.group(1), "README-quickstart", "exec"), {})


def test_dim_command_lines_print_their_comments(capsys):
    lines = re.findall(r"^feec (dim [^#\n]*?)\s+# (\d+)", README.read_text(), re.M)
    assert [want for _, want in lines] == ["12", "4"]
    for args, want in lines:
        assert cli.main(shlex.split(args)) == 0
        assert re.search(r" = (\d+) ", capsys.readouterr().out).group(1) == want
