"""Tracer-only stub: nothing in the program writes a session logbook.

``perfbench/tracer.py`` still wraps ``Logbook.record`` by name, and its
contract test requires every target to resolve.  The stub goes once
perfbench reads in-program timers (ROADMAP item 3).
"""


class Logbook:
    """Tracer-only stub; nothing in the program creates one."""

    def record(self, *args: object, **kwargs: object) -> None:
        """Never called; kept as the tracer's target."""
