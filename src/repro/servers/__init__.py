"""Simulated SIP network elements.

- :mod:`repro.servers.node` -- base class wiring a CPU model, metrics
  and the network fabric together,
- :mod:`repro.servers.location` -- the location service (registrar DB),
- :mod:`repro.servers.proxy` -- the OpenSER-like proxy with the paper's
  five functionality modes and pluggable state policies,
- :mod:`repro.servers.uac` -- the SIPp-like call generator,
- :mod:`repro.servers.uas` -- the SIPp-like answering server,
- :mod:`repro.servers.b2bua` -- a back-to-back user agent bridging
  dialogs between two legs (full call state on both).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.servers.node import Node
    from repro.servers.location import Binding, LocationService
    from repro.servers.proxy import ProxyServer, ProxyConfig, RouteTable, DELIVER_ACTION
    from repro.servers.uac import CallGenerator, CallGeneratorConfig, CallRecord
    from repro.servers.uas import AnsweringServer
    from repro.servers.registrar_client import RegistrarClient
    from repro.servers.b2bua import B2buaServer

#: Re-exported name -> defining module (resolved on first access).
_EXPORTS = {
    "RegistrarClient": "repro.servers.registrar_client",
    "B2buaServer": "repro.servers.b2bua",
    "Node": "repro.servers.node",
    "Binding": "repro.servers.location",
    "LocationService": "repro.servers.location",
    "ProxyServer": "repro.servers.proxy",
    "ProxyConfig": "repro.servers.proxy",
    "RouteTable": "repro.servers.proxy",
    "DELIVER_ACTION": "repro.servers.proxy",
    "CallGenerator": "repro.servers.uac",
    "CallGeneratorConfig": "repro.servers.uac",
    "CallRecord": "repro.servers.uac",
    "AnsweringServer": "repro.servers.uas",
}
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
