"""Per-iteration log row shared by every optimizer run, and its CSV schema."""

from dataclasses import dataclass

CSV_COLUMNS = ("iter", "f", "grad_norm", "theta_deg", "d_raw", "d_used", "doubled", "acc_train")


@dataclass
class TrajectoryRecord:
    """One recorded iteration; its number, the CSV's iter, is its index in the run's records.
    Angle/step fields are only set for the angle-probed optimizer; acc_train only for dataset-backed runs."""

    f: float
    grad_norm: float
    theta_deg: float | None = None
    d_raw: float | None = None
    d_used: float | None = None
    doubled: bool | None = None
    acc_train: float | None = None

    def csv_row(self, i: int) -> str:
        """The record as row i of a trajectory CSV, in CSV_COLUMNS order, each cell as csv_cell writes it."""
        return (
            f"{i},{self.f!r},{self.grad_norm!r},"
            f"{'' if self.theta_deg is None else repr(self.theta_deg)},"
            f"{'' if self.d_raw is None else repr(self.d_raw)},"
            f"{'' if self.d_used is None else repr(self.d_used)},"
            f"{'' if self.doubled is None else 'true' if self.doubled else 'false'},"
            f"{'' if self.acc_train is None else repr(self.acc_train)}"
        )


def csv_cell(v) -> str:
    """One CSV cell: empty for None, true/false for a bool, repr for a float."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)
