#!/usr/bin/env python3
"""Registration churn: what happens when devices stop refreshing.

SIP phones keep their location-service bindings alive with periodic
REGISTERs.  This scenario runs a proxy serving both calls and
registrations, then simulates a device-side outage: the registrar
client stops refreshing mid-run, the binding expires, calls start
failing 404, and when refreshes resume service recovers.

Run:
    python examples/device_churn.py
"""

from repro.core.costmodel import CostModel
from repro.core.static_policy import stateful_policy
from repro.harness.report import format_table
from repro.servers.location import LocationService
from repro.servers.proxy import DELIVER_ACTION, ProxyServer, RouteTable
from repro.servers.registrar_client import RegistrarClient
from repro.servers.uac import CallGenerator, CallGeneratorConfig
from repro.servers.uas import AnsweringServer
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream

AOR = "sip:desk-4711@office.example.net"


def main() -> None:
    loop = EventLoop()
    rng = RngStream(23, "device-churn")
    network = Network(loop, rng.spawn("net"))
    location = LocationService()

    proxy = ProxyServer(
        "edge", loop, network,
        route_table=RouteTable().add("office.example.net", DELIVER_ACTION),
        location=location,
        policy=stateful_policy(),
        cost_model=CostModel(scale=25.0),
        rng=rng,
    )
    AnsweringServer("uas1", loop, network, rng=rng)

    # The "phone": its registration agent refreshes the binding, and
    # the Contact points at the answering side so calls land there.
    phone = RegistrarClient(
        "phone", loop, network, registrar="edge", aors=[AOR],
        refresh_interval=5.0, expires=8.0, contact_node="uas1", rng=rng,
    )

    caller = CallGenerator(
        "uac", loop, network,
        CallGeneratorConfig(rate=8.0, first_hop="edge", destinations=[AOR]),
        rng=rng,
    )

    timeline = []

    def sample(label):
        timeline.append([
            f"{loop.now:5.1f}",
            label,
            caller.calls_completed,
            caller.calls_failed,
            phone.registers_confirmed,
        ])

    # Phase 1: healthy operation.
    phone.start()
    loop.run_until(0.5)
    caller.start()
    loop.run_until(10.0)
    sample("healthy")

    # Phase 2: the phone stops refreshing (crash / network outage).
    phone.stop()
    loop.run_until(25.0)
    sample("outage (binding expired)")

    # Phase 3: the phone comes back.
    phone.start()
    loop.run_until(36.0)
    sample("recovered")
    caller.stop()
    loop.run_until(40.0)
    sample("drained")

    print(format_table(
        ["t (s)", "phase", "calls ok", "calls failed", "registers ok"],
        timeline,
        title="Device churn timeline",
    ))
    failures_404 = caller.metrics.counter("failure_invite_404").value
    print()
    print(f"404-failures during the outage: {failures_404}")
    print("While the binding was expired the proxy answered every INVITE "
          "with 404 Not Found; registration refreshes restored service "
          "without touching the proxy.")


if __name__ == "__main__":
    main()
