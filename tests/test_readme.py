import re
from pathlib import Path

from qicd.cli import _RETIRED, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_imports_exist():
    """The README's library tour imports only names that qicd exports."""
    blocks = re.findall(r"^from qicd import \([^)]*\)", README.read_text(encoding="utf-8"), re.MULTILINE)
    assert len(blocks) == 1
    exec(blocks[0], {})


def test_library_tour_runs():
    """The README's library tour runs as written."""
    (block,) = re.findall(r"^## Library tour$.*?^```python$(.*?)^```$", README.read_text(encoding="utf-8"),
                          re.MULTILINE | re.DOTALL)
    exec(block, {})


def test_cli_block_commands_parse():
    """Every `qicd ...` command of the README's CLI block parses; none is run."""
    block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    lines = block.group(1).replace("\\\n", " ").splitlines()
    commands = [line.split()[1:] for line in lines if line.startswith("qicd ")]
    assert {argv[0] for argv in commands} == {"generate", "detect", "qicd", "benchmark", "mrg"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_names_only_live_flags():
    """Every --flag the README names is a flag of some qicd command, so a
    retired flag cannot linger in the docs. pytest's flag is the exception."""
    parser = build_parser()
    flags = {flag for p in (parser, *parser.commands.values()) for a in p._actions for flag in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text(encoding="utf-8")))
    assert named - flags - {"--continue-on-collection-errors"} == set()


def test_replay_paragraph_names_every_retired_key():
    """The README's replay paragraph names, in backticks, every config key
    that `cli._RETIRED` maps to the one value the code now runs."""
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    (replay,) = [p for p in paragraphs if "`qicd --from-manifest FILE`" in p]
    assert [key for key in _RETIRED if f"`{key}`" not in replay] == []
