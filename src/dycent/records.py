"""Per-iteration log row shared by every optimizer run, and its CSV schema."""

from dataclasses import dataclass

CSV_COLUMNS = ("iter", "f", "grad_norm", "theta_deg", "d_raw", "d_used", "doubled", "acc_train")


@dataclass
class TrajectoryRecord:
    """One logged iteration. Angle/step fields are only set for the
    angle-probed optimizer; acc_train only for dataset-backed runs."""

    iter: int
    f: float
    grad_norm: float
    theta_deg: float | None = None
    d_raw: float | None = None
    d_used: float | None = None
    doubled: bool | None = None
    acc_train: float | None = None

    def csv_row(self) -> list[str]:
        return [csv_cell(getattr(self, c)) for c in CSV_COLUMNS]


def csv_cell(v) -> str:
    """One CSV cell: empty for None, true/false for a bool, repr for a float."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)
