"""The field comparison compare_cli.py prints for outputs that differ."""

import json
import math

from compare_cli import field_diff

CSV = b"""# experiment = sweep
# init_x = 01
left,steps,window,entropy_bits,offdiag_max
8,4,01,4.0579013457516203,0
"""


def test_a_last_digit_change_is_a_numeric_difference():
    moved = CSV.replace(b"4.0579013457516203", b"4.0579013457516212").replace(b",0\n", b",1e-17\n")
    texts, largest = field_diff(CSV, moved)
    assert texts
    assert 8e-16 < largest < 1e-15
    assert field_diff(CSV, CSV) == (True, 0.0)


def test_bit_words_and_layout_are_text():
    # windows and counts are digit strings: a changed one is a text difference
    assert field_diff(CSV, CSV.replace(b"8,4,01", b"8,4,10"))[0] is False
    assert field_diff(CSV, CSV.replace(b"init_x = 01", b"init_x = 11"))[0] is False
    texts, largest = field_diff(CSV, CSV + b"# points = 1\n")
    assert not texts and math.isnan(largest)


def test_json_leaves_compare_like_csv_cells():
    doc = {"config": {"init_x": "01"}, "rows": [{"entropy_bits": 4.0579013457516203, "left": 8}]}
    moved = json.loads(json.dumps(doc))
    moved["rows"][0]["entropy_bits"] = 4.0579013457516212
    texts, largest = field_diff(json.dumps(doc).encode(), json.dumps(moved).encode())
    assert texts and 8e-16 < largest < 1e-15
    moved["config"]["init_x"] = "10"
    assert field_diff(json.dumps(doc).encode(), json.dumps(moved).encode())[0] is False


REPORT = b"""basis orthonormality: max deviation 8.882e-16 (tol 1e-10) ok
full-to-coarse sum rule: max deviation 8.327e-17 (tol 1e-10) ok
all checks passed
"""


def test_check_report_numbers_compare_as_numbers():
    moved = REPORT.replace(b"8.327e-17", b"4.163e-17")
    texts, largest = field_diff(REPORT, moved)
    assert texts and largest == 8.327e-17 - 4.163e-17
    # a suite's name and verdict are text
    assert field_diff(REPORT, REPORT.replace(b"ok\nfull", b"FAIL\nfull"))[0] is False
    assert field_diff(REPORT, REPORT.replace(b"sum rule", b"sum rules"))[0] is False
    assert field_diff(REPORT, REPORT.replace(b"all checks", b"no checks"))[0] is False
