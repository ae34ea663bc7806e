from fractions import Fraction

import pytest

from geoent import hierarchy, reports

EXACT, PRINTED = 1e-7, 5e-4

# Per table, every row as (state, K, shape, exact, closed_value is None, tolerance).
TABLE_ROWS = {
    "I": [
        ("ghz4", 4, "1|1|1|1", Fraction(1, 2), False, EXACT),
        ("ghz4", 3, "1|1|2", Fraction(1, 2), False, EXACT),
        ("ghz4", 2, "2|2", Fraction(1, 2), False, EXACT),
        ("ghz4", 2, "1|3", Fraction(1, 2), False, EXACT),
        ("w4", 4, "1|1|1|1", Fraction(37, 64), False, EXACT),
        ("w4", 3, "1|1|2", Fraction(1, 2), False, EXACT),
        ("w4", 2, "2|2", Fraction(1, 2), False, EXACT),
        ("w4", 2, "1|3", Fraction(1, 4), False, EXACT),
    ],
    "II": [
        ("w5", 5, "1|1|1|1|1", Fraction(369, 625), False, PRINTED),
        ("w5", 4, "1|1|1|2", None, False, PRINTED),
        ("w5", 3, "1|2|2", Fraction(19, 35), False, EXACT),
        ("w5", 3, "1|1|3", Fraction(2, 5), False, EXACT),
        ("w5", 2, "2|3", Fraction(2, 5), False, EXACT),
        ("w5", 2, "1|4", Fraction(1, 5), False, EXACT),
    ],
    "III": [
        ("w6", 6, "1|1|1|1|1|1", Fraction(4651, 7776), False, PRINTED),
        ("w6", 5, "1|1|1|1|2", None, False, PRINTED),
        ("w6", 4, "1|1|2|2", None, False, PRINTED),
        ("w6", 3, "2|2|2", Fraction(5, 9), False, EXACT),
        ("w6", 4, "1|1|1|3", None, False, EXACT),
        ("w6", 3, "1|2|3", Fraction(1, 2), False, EXACT),
        ("w6", 2, "3|3", Fraction(1, 2), False, EXACT),
        ("w6", 3, "1|1|4", Fraction(1, 3), False, EXACT),
        ("w6", 2, "2|4", Fraction(1, 3), False, EXACT),
        ("w6", 2, "1|5", Fraction(1, 6), False, EXACT),
    ],
    "IV": [
        ("cluster4", 4, "1|1|1|1", None, True, EXACT),
        ("cluster4", 3, "1|1|2", None, True, EXACT),
        ("cluster4", 2, "2|2", None, True, EXACT),
        ("cluster4", 2, "1|3", None, True, EXACT),
    ],
    "V": [
        ("magnon4_2", 4, "1|1|1|1", Fraction(5, 8), False, EXACT),
        ("magnon4_2", 3, "1|1|2", None, True, PRINTED),
        ("magnon4_2", 2, "2|2", Fraction(1, 3), False, EXACT),
        ("magnon4_2", 2, "1|3", Fraction(1, 2), False, EXACT),
    ],
}


@pytest.mark.parametrize("table", TABLE_ROWS)
def test_table_rows_pinned(table, fast_config):
    # Each row's closed-form route and tolerance, which no value test shows.
    result = reports.compute_table(table, fast_config)
    rows = [(r.state, r.k, r.shape.text, r.exact, r.closed_value is None, r.tolerance)
            for r in result.rows]
    assert rows == TABLE_ROWS[table]


@pytest.mark.parametrize("table, states", [("I", 2), ("II", 1), ("III", 1), ("IV", 1), ("V", 1)])
def test_one_scan_per_table_state(table, states, fast_config, monkeypatch):
    calls = []
    real = hierarchy._relative_values

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "_relative_values", counted)
    reports.compute_table(table, fast_config)
    assert len(calls) == states
