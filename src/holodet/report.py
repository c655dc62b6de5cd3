"""Machine-readable run reports: named checks with residual/tolerance/pass."""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))  # numpy bools are not JSON booleans

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
        out = {
            "command": self.command,
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "pass": self.passed,
        }
        return json.dumps(out, indent=2, sort_keys=True, default=str)

    def summary_lines(self) -> list[str]:
        lines = [c.line() for c in self.checks]
        lines.append(("PASS" if self.passed else "FAIL") + f" overall ({len(self.checks)} checks)")
        return lines
