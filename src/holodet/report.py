"""Machine-readable run reports: named checks with residual/tolerance/pass."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


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


@dataclass
class RunReport:
    command: str
    inputs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall_time_s: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def input_hash(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "command": self.command,
            "inputs": self.inputs,
            "input_hash": self.input_hash(),
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
        # wall time is intentionally excluded from the deterministic report
        # (byte-identical across runs); callers may opt in.
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True, default=str)

    def summary_lines(self) -> list[str]:
        lines = [c.line() for c in self.checks]
        lines.append(("PASS" if self.passed else "FAIL") + f" overall ({len(self.checks)} checks)")
        return lines
