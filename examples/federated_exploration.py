#!/usr/bin/env python3
"""Federated exploration across administrative domains (paper section 2.4).

Single-node exploration cannot observe the far-reaching consequences of a
node action.  The paper sketches the extension: intercept exploratory
messages, route them over isolated channels to *clones* of remote nodes,
and check system-wide state through a privacy-preserving interface.

This example runs a hijack wave across the Provider and Customer domains:
the provider clone accepts a rogue announcement, its re-export reaches the
customer clone (never the live customer), the customer clone reacts per
protocol, and the two domains then compare salted origin digests — each
learns *that* they disagree on a prefix's origin without revealing tables
or policies.

Run:  python examples/federated_exploration.py
"""

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.nlri import NlriEntry
from repro.concolic import ExplorationBudget
from repro.core import get_scenario
from repro.core.federation import FederatedExploration, IsolatedFabric
from repro.core.privacy import OriginDigest, PrivacyGuard, digest_conflicts, resolve_digest
from repro.util.errors import PrivacyViolation
from repro.util.ip import Prefix, ip_to_int


def main() -> None:
    print("Building the testbed (provider with missing customer filter)...")
    scenario = get_scenario("fig2").build(
        filter_mode="missing", prefix_count=1_500, update_count=100
    )
    scenario.converge()
    provider, customer = scenario.provider, scenario.customer
    print(f"  provider table: {provider.table_size()}  "
          f"customer table: {customer.table_size()}")

    # Pick a victim: an internet prefix both domains have installed.
    victim = next(
        prefix for prefix, route in provider.loc_rib.items()
        if route.origin_as() is not None and int(route.origin_as()) not in (65010, 65020)
    )
    rightful = provider.loc_rib.origin_of(victim)
    print(f"\nVictim prefix: {victim} (rightful origin AS{rightful})")

    print("\n1. Checkpointing both domains and wiring isolated channels...")
    fabric = IsolatedFabric({"provider": provider, "customer": customer})

    print("2. Injecting the hijack at the provider clone (from the customer)...")
    rogue = UpdateMessage(
        attributes=PathAttributes(
            as_path=AsPath.sequence([65020]), next_hop=ip_to_int("10.0.0.2")
        ),
        nlri=[NlriEntry.from_prefix(victim)],
    )
    fabric.inject("provider", "customer", rogue)

    provider_clone = fabric.clone_of("provider")
    customer_clone = fabric.clone_of("customer")
    print(f"   provider clone origin for {victim}: "
          f"AS{provider_clone.loc_rib.origin_of(victim)} (was AS{rightful})")

    print("\n3. Cross-domain check through the narrow interface:")
    print("   the provider clone now disagrees with the customer clone "
          "about the victim's origin —")
    guard_p = PrivacyGuard(provider_clone, "provider-domain")
    guard_c = PrivacyGuard(customer_clone, "customer-domain")
    try:
        guard_p.export("loc_rib")
    except PrivacyViolation as exc:
        print(f"   raw export refused: {exc}")
    salt = b"dice-round-0001"
    digest_p = guard_p.publish_digest(salt)
    digest_c = guard_c.publish_digest(salt)
    conflicts = list(digest_conflicts(digest_p, digest_c))
    print(f"   digests: provider={len(digest_p)} entries, "
          f"customer={len(digest_c)} entries, conflicts={len(conflicts)}")

    print("\n4. Each domain resolves findings over its own table only:")
    for conflict in conflicts[:3]:
        mine = resolve_digest(provider_clone, salt, conflict)
        print(f"   provider-domain decodes digest {conflict.hex()[:12]}... "
              f"-> {mine}")

    print("\n5. Propagating exploratory messages to observe consequences...")
    stats = fabric.propagate()
    print(f"   delivered={stats.delivered} hops={stats.rounds} "
          f"sim_time={stats.sim_seconds * 1e3:.1f}ms "
          f"converged={stats.converged} "
          f"dropped(no clone)={stats.dropped_no_target}")
    print(f"   customer clone still has {victim}: "
          f"{victim in customer_clone.loc_rib} "
          f"(loop-rejected re-export withdrew it — a system-wide")
    print("   consequence invisible to single-node exploration)")
    print(f"   live provider origin unchanged: "
          f"AS{provider.loc_rib.origin_of(victim)}")

    print("\nFull wrapper (FederatedExploration) does all five steps:")
    federated = FederatedExploration({"provider": provider, "customer": customer})
    report = federated.run("provider", "customer", rogue)
    print(f"   global findings: {len(report.global_findings)}, "
          f"table deltas: {report.per_node_table_delta}, "
          f"converged: {report.converged}")

    print("\nAnd at scenario scale (generated 8-AS federation, one call):")
    built = get_scenario("tiered-8").build(seed=7)
    built.converge()
    fed_report = built.federation().explore(
        built.seed_corpus(),
        budget=ExplorationBudget(max_executions=8),
        workers=2,
        stream=True,
    )
    print(f"   {fed_report.summary()}")


if __name__ == "__main__":
    main()
