"""``src/`` holds what a run calls; reference implementations live in
``tests/oracles`` and the package never reaches for them."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: the references moved to tests/oracles, and the studies deleted outright
MOVED_OR_DELETED = (
    "jacobi", "householder", "apply_wy", "qr_nopivot", "stable_sum_inverse",
    "displaced_greens", "displaced_series_fast", "DynamicMeasurement",
    "sign_corrected_ratio", "split_rhat",
)


def test_src_carries_no_reference_implementation():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        hits += [f"{path.relative_to(SRC)}: {name}"
                 for name in MOVED_OR_DELETED if name in text]
        if re.search(r"^\s*(from|import)\s+tests\b", text, re.MULTILINE):
            hits.append(f"{path.relative_to(SRC)}: imports tests")
    assert hits == []
