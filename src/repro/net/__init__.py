"""The network serving tier: serve one engine to many socket clients.

:class:`EngineServer` multiplexes concurrent TCP / unix-socket clients
onto one :class:`repro.Engine`.  :class:`RemoteEngine` is the client, and
it is an ``Engine``: the one facade, whose transport is a socket
(:class:`~repro.net.client.SocketTransport`) instead of an in-process store
or a fleet of shard workers — same ``Query`` / ``Document`` /
``ResultPage`` objects, same argument checks and typed errors,
byte-identical answers.  The wire speaks length-prefixed frames of the
canonical codec — never pickle — with a versioned HELLO, credit-window
push streaming made adaptive, and per-connection limits.  See
``docs/protocol.md`` for the frame format.
"""

from repro.net.client import RemoteEngine
from repro.net.framing import (
    MAX_FRAME_BYTES,
    MAX_WIRE_DEPTH,
    PROTOCOL_VERSION,
    decode_frame_body,
    decode_wire,
    encode_frame,
    encode_wire,
    recv_frame,
    recv_frame_async,
    send_frame,
)
from repro.net.server import EngineServer

__all__ = [
    "EngineServer",
    "RemoteEngine",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_WIRE_DEPTH",
    "encode_wire",
    "decode_wire",
    "encode_frame",
    "decode_frame_body",
    "send_frame",
    "recv_frame",
    "recv_frame_async",
]
