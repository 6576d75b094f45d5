"""TrajectoryRecord.csv_row against the cell-by-cell reference row."""

import dataclasses
import itertools

from dycent.records import CSV_COLUMNS, TrajectoryRecord
from oracles import csv_row_by_cell

FLOATS = (0.0, -0.0, 1.0, 0.1, 5e-324, 1e308, float("nan"), float("inf"), float("-inf"))
OPTIONAL_FLOATS = ("theta_deg", "d_raw", "d_used", "acc_train")


def test_csv_columns_are_the_record_fields_in_order():
    # csv_row hard-codes this order: the row's index, then the fields
    assert CSV_COLUMNS == ("iter", *(f.name for f in dataclasses.fields(TrajectoryRecord)))


def test_csv_row_matches_the_cell_by_cell_row():
    """Every float in FLOATS in every field, each optional field None or set, doubled None, True or False."""
    n = len(FLOATS)
    for it, doubled, i, present in itertools.product(
        (0, 2**63), (None, True, False), range(n), itertools.product((False, True), repeat=len(OPTIONAL_FLOATS))
    ):
        optional = {
            name: FLOATS[(i + 2 + k) % n] if on else None
            for k, (name, on) in enumerate(zip(OPTIONAL_FLOATS, present))
        }
        record = TrajectoryRecord(f=FLOATS[i], grad_norm=FLOATS[(i + 1) % n], doubled=doubled, **optional)
        assert record.csv_row(it) == csv_row_by_cell(record, it), record
