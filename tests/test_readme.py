import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_imports_exist():
    """The README's library tour imports only names that qicd exports."""
    blocks = re.findall(r"^from qicd import \([^)]*\)", README.read_text(encoding="utf-8"), re.MULTILINE)
    assert len(blocks) == 1
    exec(blocks[0], {})
