"""Check results and the two report formats emitted by the CLI."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .linalg import Formula, Matrix


class ConstructionFailed(RuntimeError):
    """A construction that does not exist for well-formed input; the CLI reports
    it as one failing check (exit 1), where a ValueError is bad input (exit 2)."""


@dataclass
class CheckResult:
    """One named verdict of a report."""

    name: str
    status: str                    # "pass" | "fail" | "skipped"
    witness: str | None = None     # present whenever status == "fail"
    value: str | None = None       # optional informational payload
    informational: bool = False    # not counted towards the overall status

    def failed(self) -> bool:
        return self.status == "fail" and not self.informational


def eq_check(name: str, lhs: Matrix | Formula, rhs: Matrix | Formula, *,
             informational: bool = False) -> CheckResult:
    """lhs == rhs, decided one column at a time.

    Either side is a Matrix or a Formula.  The scan holds at most one column
    of each side and stops at the first column that differs, so a Formula is
    never held whole.  A failure's witness is ``(i,j):lhs=a:rhs=b``, the first
    differing entry in column-major order.
    """
    return difference_check(name, Matrix.first_difference(lhs, rhs),
                            informational=informational)


def difference_check(name: str, diff: tuple | None, *,
                     informational: bool = False) -> CheckResult:
    """The result of a comparison whose first difference, as
    ``Matrix.first_difference`` returns it, is diff (None: no difference)."""
    witness = difference_witness(diff)
    return CheckResult(name, "pass" if witness is None else "fail", witness=witness,
                       informational=informational)


def difference_witness(diff: tuple | None) -> str | None:
    """The witness ``(i,j):lhs=a:rhs=b`` of a first difference (i, j, a, b),
    None for no difference."""
    if diff is None:
        return None
    i, j, a, b = diff
    return f"({i},{j}):lhs={a}:rhs={b}"


def chain_eq_check(name: str, mats: list[Matrix]) -> CheckResult:
    """All matrices in the chain must agree: the first adjacent pair that breaks fails."""
    diffs = (Matrix.first_difference(lhs, rhs) for lhs, rhs in zip(mats, mats[1:]))
    return difference_check(name, next((d for d in diffs if d is not None), None))


def bool_check(name: str, ok: bool, witness: str = "condition_violated", value: str | None = None) -> CheckResult:
    if ok:
        return CheckResult(name, "pass", value=value)
    return CheckResult(name, "fail", witness=witness, value=value)


def prefixed(prefix: str, checks: list[CheckResult]) -> list[CheckResult]:
    """A sub-report under one name prefix, every other field kept."""
    return [replace(c, name=prefix + c.name) for c in checks]


def merge_checks(name: str, checks: list[CheckResult]) -> CheckResult:
    """Collapse a sub-report into a single named entry (first failure wins)."""
    for c in checks:
        if c.status == "fail":
            return CheckResult(name, "fail", witness=f"{c.name}:{c.witness}")
    return CheckResult(name, "pass")


@dataclass(eq=False, repr=False)
class Report:
    """A command's checks, in order, and their two renderings."""

    command: str
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> str:
        return "fail" if any(c.failed() for c in self.checks) else "pass"

    def render(self, style: str) -> str:
        if style == "machine":
            lines = [f"command={self.command}"]
            for c in self.checks:
                parts = [f"check={c.name}", f"status={c.status}"]
                if c.informational:
                    parts.append("informational=true")
                if c.value is not None:
                    parts.append(f"value={c.value}")
                if c.witness is not None:
                    parts.append(f"witness={c.witness}")
                lines.append(" ".join(parts))
            lines.append(f"overall={self.overall}")
            return "\n".join(lines)
        width = max((len(c.name) for c in self.checks), default=0)
        lines = [f"# {self.command}"]
        for c in self.checks:
            line = f"{c.name.ljust(width)}  {c.status.upper()}"
            if c.value is not None:
                line += f"  [{c.value}]"
            if c.witness is not None:
                line += f"  witness {c.witness}"
            lines.append(line)
        lines.append(f"overall: {self.overall.upper()}")
        return "\n".join(lines)


def make_report(command: str, checks: list[CheckResult]) -> Report:
    return Report(command, tuple(checks))
