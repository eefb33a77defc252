"""String-keyed technology-node registry: the plugin API of ``repro.tech``.

Mirrors the :mod:`repro.codecs` registry idiom: the registry is the one
place the rest of the system (campaigns, explorer sweeps, differential
pairings, benchmarks, CLI) learns which nodes exist.  Entries are plain
frozen :class:`~repro.tech.node.TechNode` records -- nothing is built
lazily because a node *is* its parameters.

Built-ins cover the family the roadmap asks for:

* ``xgene2-28`` -- the paper's own silicon (alias ``28nm``); every
  scale factor exactly 1.0, making it the byte-identity anchor.
* ``45nm`` -- a planar predecessor node, ITRS-style up-scaling.
* ``16nm`` / ``7nm`` -- FinFET successors, ITRS/lumos-style
  down-scaling with calibrated-expectation susceptibility factors.

Non-default electrical parameters follow the published ITRS scaling
ratios used by lumos (supply/threshold/frequency/area per step) rather
than measurements of real parts; their provenance is recorded as
*calibrated expectation* in the golden oracle files, in contrast to the
paper-measured 28 nm anchors.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import TechError
from .node import DEFAULT_NODE, TechNode

_REGISTRY: Dict[str, TechNode] = {}

#: Alternate lookup names (e.g. "28nm") -> canonical registry names.
_ALIASES: Dict[str, str] = {}


def register_node(
    node: TechNode,
    *,
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> TechNode:
    """Register a node under its own name (plus optional aliases).

    Raises :class:`~repro.errors.TechError` on a duplicate name unless
    ``replace=True`` (tests and downstream experiments swap entries in
    with that).
    """
    if not isinstance(node, TechNode):
        raise TechError(f"expected a TechNode, got {type(node).__name__}")
    taken = set(_REGISTRY) | set(_ALIASES)
    if node.name in taken and not replace:
        raise TechError(
            f"node {node.name!r} is already registered; pass replace=True "
            "to override"
        )
    for alias in aliases:
        if (
            not alias
            or "/" in alias
            or any(ch.isspace() for ch in alias)
        ):
            raise TechError(f"invalid node alias {alias!r}")
        if alias in taken - {node.name} and not replace:
            raise TechError(f"node alias {alias!r} is already registered")
    _REGISTRY[node.name] = node
    _ALIASES.pop(node.name, None)
    for alias in aliases:
        _ALIASES[alias] = node.name
    return node


def unregister_node(name: str) -> None:
    """Remove a registered node and its aliases (for test isolation)."""
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise TechError(f"unknown node {name!r}")
    del _REGISTRY[canonical]
    for alias in [a for a, c in _ALIASES.items() if c == canonical]:
        del _ALIASES[alias]


def get_node(name: str) -> TechNode:
    """Look a node up by canonical name or alias."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        known = ", ".join(sorted(set(_REGISTRY) | set(_ALIASES))) or "<none>"
        raise TechError(
            f"unknown node {name!r}; registered: {known}"
        ) from None


def list_nodes() -> List[str]:
    """Sorted canonical names of all registered nodes."""
    return sorted(_REGISTRY)


def default_node() -> TechNode:
    """The 28 nm X-Gene 2 anchor node."""
    return get_node(DEFAULT_NODE)


def _register_builtins() -> None:
    register_node(
        TechNode(
            name=DEFAULT_NODE,
            process_nm=28,
            pmd_nominal_mv=980,
            soc_nominal_mv=950,
            vth_mv=285.0,
            nominal_freq_mhz=2400,
            freq_step_mhz=300,
            floor_mv=500,
            description="28 nm X-Gene 2, the paper's measured part "
            "(Table 3 anchors; all scale factors 1.0)",
        ),
        aliases=("28nm",),
    )
    register_node(
        TechNode(
            name="45nm",
            process_nm=45,
            pmd_nominal_mv=1090,
            soc_nominal_mv=1055,
            vth_mv=320.0,
            nominal_freq_mhz=1500,
            freq_step_mhz=25,
            floor_mv=550,
            cap_scale=1.9,
            leakage_scale=0.8,
            sigma0_scale=1.35,
            slope_scale=0.85,
            description="45 nm planar predecessor: ITRS-style "
            "up-scaled supplies, larger cells, shallower sigma(V)",
        )
    )
    register_node(
        TechNode(
            name="16nm",
            process_nm=16,
            pmd_nominal_mv=815,
            soc_nominal_mv=790,
            vth_mv=240.0,
            nominal_freq_mhz=3000,
            freq_step_mhz=25,
            floor_mv=480,
            cap_scale=0.55,
            leakage_scale=1.25,
            sigma0_scale=0.55,
            slope_scale=1.15,
            description="16 nm FinFET successor: ITRS/lumos-style "
            "down-scaling, calibrated-expectation susceptibility",
        )
    )
    register_node(
        TechNode(
            name="7nm",
            process_nm=7,
            pmd_nominal_mv=675,
            soc_nominal_mv=655,
            vth_mv=210.0,
            nominal_freq_mhz=3600,
            freq_step_mhz=25,
            floor_mv=430,
            cap_scale=0.30,
            leakage_scale=1.6,
            sigma0_scale=0.35,
            slope_scale=1.30,
            description="7 nm FinFET: deep-scaled supplies near the "
            "near-threshold band, steepest sigma(V) slopes",
        )
    )


_register_builtins()
