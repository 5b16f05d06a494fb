"""The oracle localizer: a perfect white-box argument selector.

Reads the guard condition of each target block directly off the kernel's
static CFG — the limit a *perfectly trained* PMM would converge to.
Campaigns use it as the mechanism's upper bound: the gap between
Syzkaller and oracle-Snowplow is what white-box argument localization is
worth on a given kernel, and the gap between oracle- and PMM-Snowplow is
what remains to be captured by better training (the paper closes that
gap with 44M samples and GPU-scale training; see EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProgramError
from repro.kernel.build import Kernel
from repro.kernel.conditions import ArgCondition
from repro.kernel.coverage import Coverage
from repro.syzlang.program import ArgPath, Program

__all__ = ["OracleLocalizer"]


class OracleLocalizer:
    """Perfect argument localization via the kernel's own CFG."""

    def __init__(self, kernel: Kernel, max_paths: int = 6):
        self.kernel = kernel
        self.max_paths = max_paths

    def localize(
        self,
        program: Program,
        coverage: Coverage | None,
        targets: set[int] | None,
        rng: np.random.Generator,
    ) -> list[ArgPath]:
        paths: list[ArgPath] = []
        seen: set[ArgPath] = set()
        for target in sorted(targets or ()):
            condition = self.kernel.guarding_condition(target)
            if not isinstance(condition, ArgCondition):
                continue
            for call_index, call in enumerate(program.calls):
                if call.spec.full_name != condition.syscall:
                    continue
                path = ArgPath(call_index, condition.path_elements)
                try:
                    program.get(path)
                except ProgramError:
                    continue
                if path not in seen:
                    seen.add(path)
                    paths.append(path)
        return paths[: self.max_paths]
