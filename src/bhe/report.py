"""Named residual reports, the common currency of checks and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    """Ordered map of identity name -> nonnegative residual (sup norm)."""

    name: str
    residuals: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)

    def record(self, key: str, value: float, note: str | None = None) -> None:
        v = float(abs(value))
        self.residuals[key] = v
        if note is not None:
            self.notes[key] = note

    def merge(self, other: "Report") -> None:
        self.residuals.update(other.residuals)
        self.notes.update(other.notes)

    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    def passes(self, tol: float) -> bool:
        return all(v <= tol for v in self.residuals.values())

    def to_dict(self, tol: float) -> dict:
        checks = []
        for k, v in self.residuals.items():
            entry: dict = {"name": k, "residual": v, "pass": bool(v <= tol)}
            if k in self.notes:
                entry["note"] = self.notes[k]
            checks.append(entry)
        return {"name": self.name, "checks": checks, "tolerance": tol, "pass": self.passes(tol)}
