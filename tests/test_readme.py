import re
from pathlib import Path

from qicd.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_imports_exist():
    """The README's library tour imports only names that qicd exports."""
    blocks = re.findall(r"^from qicd import \([^)]*\)", README.read_text(encoding="utf-8"), re.MULTILINE)
    assert len(blocks) == 1
    exec(blocks[0], {})


def test_cli_block_commands_parse():
    """Every `qicd ...` command of the README's CLI block parses; none is run."""
    block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    lines = block.group(1).replace("\\\n", " ").splitlines()
    commands = [line.split()[1:] for line in lines if line.startswith("qicd ")]
    assert {argv[0] for argv in commands} == {"generate", "detect", "qicd", "benchmark", "mrg"}
    parser = build_parser(0)
    for argv in commands:
        parser.parse_args(argv)
