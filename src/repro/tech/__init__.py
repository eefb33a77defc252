"""Technology-node scaling axis: escape the 28 nm X-Gene 2.

``repro.tech`` turns the paper's single silicon point into one member
of a parameterized family.  A :class:`TechNode` carries the node's
electrical anchors (nominal supplies, threshold voltage, nominal clock)
plus multiplicative scale factors for capacitance, leakage and SEU
cross-section; the registry (mirroring :mod:`repro.codecs`) names
the built-in calibrated family -- ``45nm``, ``xgene2-28`` (default,
alias ``28nm``), ``16nm``, ``7nm`` -- and accepts user plugins via
:func:`register_node`.

The default node is inert: every model's ``for_node`` constructor
returns its paper-calibrated self for ``xgene2-28``, so default-node
campaign output is byte-identical to the pre-scaling code path (pinned
by the ``tech_anchor`` differential pairing).
"""

from .node import DEFAULT_NODE, TechNode
from .registry import (
    default_node,
    get_node,
    list_nodes,
    register_node,
    unregister_node,
)

__all__ = [
    "DEFAULT_NODE",
    "TechNode",
    "default_node",
    "get_node",
    "list_nodes",
    "register_node",
    "unregister_node",
]
