from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_paper_copies_readme_below_its_header():
    # PAPER.md is a four-line header followed by the README, verbatim
    paper = (ROOT / "PAPER.md").read_text().splitlines()
    readme = (ROOT / "README.md").read_text().splitlines()
    assert paper[4:] == readme
