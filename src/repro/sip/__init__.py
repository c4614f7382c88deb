"""A from-scratch SIP (RFC 3261 subset) implementation.

This package provides the protocol substrate the paper's system sits on:

- :mod:`repro.sip.uri` -- SIP URIs,
- :mod:`repro.sip.headers` -- structured headers (Via, From/To, CSeq, ...),
- :mod:`repro.sip.message` -- requests/responses with lazy header parsing,
- :mod:`repro.sip.parser` -- wire-format parsing,
- :mod:`repro.sip.timers` -- RFC 3261 timer constants,
- :mod:`repro.sip.transaction` -- client and proxy transactions, the
  client side of a request-sending node, the 2xx-until-ACK wait,
- :mod:`repro.sip.dialog` -- dialog ids, a UA's dialog and its request
  builder, the proxy's dialog table,
- :mod:`repro.sip.digest` -- RFC 2617 digest authentication.

The subset covers everything the paper's evaluation exercises: INVITE
dialogs with provisional responses, ACK, BYE, retransmission timers,
hop-by-hop Via processing, Record-Route/Route, and digest challenges.
"""
