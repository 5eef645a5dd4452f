"""The public surface the README promises."""

import pathlib
import re

import tscnc

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _piecemeal_names():
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    (para,) = [p for p in paragraphs if "for piecemeal use" in p]
    return [n for n in re.findall(r"`(\w+)`", para) if n != "tscnc"]


def test_readme_piecemeal_names_import_from_package():
    names = _piecemeal_names()
    assert "backward" in names
    for name in names:
        assert name in tscnc.__all__, name
        assert callable(getattr(tscnc, name)), name

