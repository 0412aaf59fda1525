"""Design preparation and CPF instrumentation for the delay-test flow.

The pieces that turn a netlist into the views Table 1 experiments run on:

* :func:`prepare_design` builds (or accepts) the device under test, inserts
  scan, computes the flattened circuit model and the clock-domain map — the
  *ATPG view* shared by every experiment.  It is a thin shim over the staged
  design pipeline of :mod:`repro.api.design` (``build -> scan -> clocking ->
  model``), which is also where named design specs ("table1-soc",
  "wide-edt", ...) are registered and built;
* :func:`instrument_soc` produces the physical top level of Figure 1: the
  same netlist with one CPF per functional clock domain stitched between the
  PLL outputs and the domain clock trees (used for structural reporting and
  for the gate-level clocking demonstrations, not for fault counting).

Experiments run through :class:`repro.api.TestSession` and
:class:`repro.api.Campaign` over the registered ``table1-*`` scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.circuits.soc import SocDesign
from repro.clocking.cpf import InsertedCpf, insert_cpf
from repro.clocking.domains import ClockDomainMap
from repro.clocking.occ import OccController
from repro.dft.edt import EdtArchitecture
from repro.dft.scan import ScanArchitecture
from repro.netlist.netlist import Netlist
from repro.simulation.model import CircuitModel

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.api.design import DesignSpec


@dataclass
class PreparedDesign:
    """The ATPG view of the device under test."""

    soc: SocDesign
    netlist: Netlist
    scan: ScanArchitecture
    model: CircuitModel
    domain_map: ClockDomainMap
    occ: OccController
    scan_enable_net: str = "scan_en"
    scan_clock_net: str = "scan_clk"
    test_mode_net: str = "test_mode"
    #: The design's default EDT architecture (from ``DesignSpec.edt``); used
    #: by the compression stage for scenarios without an explicit channel
    #: count.  None for designs without a declared compression contract.
    edt: EdtArchitecture | None = None
    #: The declarative spec this design was built from (None for ad-hoc or
    #: externally constructed designs) — campaigns key their cache on it.
    spec: "DesignSpec | None" = None
    #: Per-stage wall time of the design pipeline that built this view.
    build_seconds: dict = field(default_factory=dict, repr=False, compare=False)
    # instrument_soc memoisation, keyed by the ``enhanced`` flag.
    _instrument_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def functional_domain_names(self) -> list[str]:
        return [d.name for d in self.soc.functional_domains]

    @property
    def all_domain_names(self) -> list[str]:
        return [d.name for d in self.soc.domains]

    def clock_net_of(self, domain: str) -> str:
        return self.domain_map.clock_net_of(domain)

    def __getstate__(self) -> dict:
        """Pickle without the instrument memo.

        The cache holds whole instrumented netlist copies; shipping it to
        process-backend campaign/scenario workers would multiply the payload
        for state any worker can (and should) rebuild lazily.
        """
        state = dict(self.__dict__)
        state["_instrument_cache"] = {}
        return state


def prepare_design(
    size: int = 2,
    seed: int = 2005,
    num_chains: int = 6,
    soc: SocDesign | None = None,
) -> PreparedDesign:
    """Build the synthetic SOC (or take a given one) and insert scan.

    Args:
        size: SOC size factor (ignored when ``soc`` is given).
        seed: SOC generator seed (ignored when ``soc`` is given).
        num_chains: Number of balanced scan chains to stitch.
        soc: Optionally, an externally constructed SOC design.

    Returns:
        The prepared design: scan-inserted netlist, circuit model, domain map
        and OCC controller model.
    """
    # Thin shim over the staged design pipeline (build -> scan -> clocking ->
    # model); the spec is the ad-hoc equivalent of the given knobs, ignored
    # for the geometry when a caller-built SOC is passed in.
    from repro.api.design import DesignSpec, prepare_from_spec

    spec = DesignSpec(name="adhoc", size=size, seed=seed, num_chains=num_chains)
    return prepare_from_spec(spec, soc=soc)


def instrument_soc(
    prepared: PreparedDesign,
    enhanced: bool = False,
    refresh: bool = False,
) -> tuple[Netlist, list[InsertedCpf]]:
    """Produce the Figure 1 top level: the SOC with one CPF per domain.

    The returned netlist is a copy of the prepared (scan-inserted) netlist
    with the functional clock domains re-clocked from CPF outputs; the raw
    PLL clocks, the external scan clock, scan enable and test mode become the
    block's clock-control interface.

    The result is memoised on the prepared design (per ``enhanced`` flavour),
    so repeated structural reports are free; callers that intend to mutate
    the returned netlist should ``copy()`` it first.

    Args:
        prepared: The prepared design.
        enhanced: Insert enhanced (programmable) CPFs instead of the simple
            two-pulse blocks.
        refresh: Rebuild (and recache) even when a memoised result exists —
            for callers that need a private netlist to mutate, or that are
            timing the real insertion work.

    Returns:
        ``(instrumented netlist, inserted CPF records)``.
    """
    cached = None if refresh else prepared._instrument_cache.get(bool(enhanced))
    if cached is not None:
        return cached
    top = prepared.netlist.copy(name=f"{prepared.netlist.name}_with_cpf")
    if prepared.scan_clock_net not in top.inputs:
        top.add_input(prepared.scan_clock_net)
    top.declare_clock(prepared.scan_clock_net)
    if prepared.test_mode_net not in top.inputs:
        top.add_input(prepared.test_mode_net)
    inserted: list[InsertedCpf] = []
    for domain in prepared.soc.functional_domains:
        record = insert_cpf(
            top,
            domain_name=domain.name,
            pll_clk_net=domain.clock_net,
            scan_clk_net=prepared.scan_clock_net,
            scan_en_net=prepared.scan_enable_net,
            test_mode_net=prepared.test_mode_net,
            enhanced=enhanced,
        )
        inserted.append(record)
    result = (top, inserted)
    prepared._instrument_cache[bool(enhanced)] = result
    return result
