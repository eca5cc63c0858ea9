"""DiCE — online testing of federated and heterogeneous distributed systems.

A full Python reproduction of Canini et al., "Toward Online Testing of
Federated and Heterogeneous Distributed Systems" (USENIX ATC 2011),
including every substrate the paper's prototype relies on:

* :mod:`repro.concolic` — a concolic execution engine (the Oasis role),
* :mod:`repro.checkpoint` — fork-style checkpoints, delta shipping, and
  COW page accounting,
* :mod:`repro.net` — a deterministic discrete-event network simulator,
* :mod:`repro.bgp` — a BGP-4 stack with a BIRD-like policy language,
* :mod:`repro.trace` — synthetic RouteViews traces and replay,
* :mod:`repro.core` — DiCE itself: checkpoint/clone exploration,
  fault checkers, online scheduling, federation, and privacy.

Quickstart::

    from repro.core import get_scenario
    scenario = get_scenario("fig2").build(filter_mode="erroneous")
    scenario.converge()
    report = scenario.dice.run_round()
    print(report.leaked_prefixes())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
