"""Public outcomes, failures included, equal the committed golden file bit for bit.

``make_golden.py`` (in this directory) writes the file and says what it
holds.  A change meant to move these bits regenerates it with that script.
"""

from __future__ import annotations

from make_golden import GOLDEN, golden_lines


def test_outcomes_match_the_golden_file():
    expected = GOLDEN.read_text().splitlines()
    got = golden_lines()
    assert len(got) == len(expected)
    mismatched = [(want, have) for want, have in zip(expected, got) if want != have]
    assert mismatched[:3] == []


def test_golden_file_covers_every_kind_of_outcome():
    text = GOLDEN.read_text()
    for fragment in (
        "OrientationEstimate(",
        "TrialReport(",
        "NonConvergent: ",
        "DegenerateLine: ",
        "NoHorizonIntersection: ",
        "TooFewVisible: ",
    ):
        assert fragment in text, fragment
