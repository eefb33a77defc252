"""SLIMpro management-processor facade.

The X-Gene 2 carries a Scalable Lightweight Intelligent Management
processor that talks to system sensors over I2C, programs supply
voltages and the DRAM refresh rate, and gathers health reports --
including the cache soft-error events the study relies on (Section
3.1).  This facade is how the test harness reads those health
reports, mirroring how the real experiments drove the board through
SLIMpro drivers; voltages and clocks are pinned through the chip's
DVFS controller.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigurationError
from .edac import EdacLog, EdacRecord


class SlimPro:
    """Management access to the chip's health data."""

    def __init__(self, edac_log: EdacLog) -> None:
        self._edac = edac_log
        self._health_cursor = 0

    # -- health reports ----------------------------------------------------------

    def poll_health(self) -> List[EdacRecord]:
        """Return EDAC records logged since the previous poll."""
        fresh = self._edac[self._health_cursor:]
        self._health_cursor = len(self._edac)
        return fresh

    def reset_health_cursor(self) -> None:
        """Forget the poll position (e.g. after a reboot clears the log)."""
        if self._health_cursor < 0:
            raise ConfigurationError("corrupt health cursor")
        self._health_cursor = 0
