"""README's `## Library` example and `## Command line` block run as
written, so they cannot go stale."""

import re
import shlex
from pathlib import Path

from rileycert import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(heading: str, language: str) -> list[str]:
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, re.S)


def test_library_example_runs():
    blocks = readme_blocks("Library", "python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_command_line_block_runs(capsys):
    # each line exits with the code of its `# exit N` comment, else 0; a
    # comment that is a sign sequence is the line's whole output
    blocks = readme_blocks("Command line", "sh")
    assert len(blocks) == 1
    lines = [line for line in blocks[0].splitlines() if line.strip()]
    outputs_checked = 0
    for line in lines:
        argv = shlex.split(line, comments=True)
        comment = line.partition("#")[2].strip()
        assert argv[0] == "rileycert", line
        expected = re.match(r"exit (\d+)", comment)
        assert cli.main(argv[1:]) == (int(expected[1]) if expected else 0), line
        out = capsys.readouterr().out
        if comment.startswith("<"):
            assert out == comment + "\n", line
            outputs_checked += 1
    assert outputs_checked == 1
