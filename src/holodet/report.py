"""Machine-readable run reports: named checks that pass when residual <= tolerance."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)  # a nan fails; numpy bools are not JSON

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name} residual={self.residual:.6e} tol={self.tolerance:.1e}"
        if self.detail:
            out += f" ({self.detail})"
        return out


@dataclass(frozen=True)
class RunReport:
    """A command's checks; no wall time, so the JSON is byte-identical across runs."""

    command: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        checks = [{**asdict(c), "pass": c.passed} for c in self.checks]
        out = {"command": self.command, "checks": checks, "pass": self.passed}
        return json.dumps(out, indent=2, sort_keys=True, default=str)

    def summary_lines(self) -> list[str]:
        lines = [c.line() for c in self.checks]
        lines.append(("PASS" if self.passed else "FAIL") + f" overall ({len(self.checks)} checks)")
        return lines
