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
