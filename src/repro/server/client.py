"""Blocking WebSocket client for the visualization server.

:func:`connect` opens a socket, performs the RFC 6455 handshake against
``/ws``, reads the server's :class:`~repro.protocol.Welcome`, and returns a
:class:`Client` whose methods send the same :class:`~repro.protocol.Command`
dataclasses an in-process :class:`~repro.ui.session.Session` builds.  It is
stdlib-only and synchronous on purpose: tests, the ``repro client`` CLI, and
the load benchmark all drive it from plain threads.
"""

from __future__ import annotations

import base64
import os
import socket
from typing import Any
from urllib.parse import urlsplit

from repro.protocol import (
    Command,
    ErrorReply,
    ProtocolError,
    Response,
    Welcome,
    decode_response,
    encode_command,
)
from repro.server import ws

__all__ = ["Client", "connect"]


class Client:
    """One WebSocket connection to a :class:`~repro.server.TiogaServer`."""

    def __init__(self, host: str, port: int, *, session: str | None = None,
                 timeout: float = 30.0):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._parser = ws.FrameParser(require_mask=False)
        self._inbox: list[Response] = []
        self._seq = 0
        self._closed = False
        try:
            self.welcome = self._handshake(session)
        except BaseException:
            # A refused handshake never hands the socket to a caller who
            # could close it.
            self._sock.close()
            raise
        #: The server-side session id this connection drives.
        self.session = self.welcome.session

    # -- lifecycle -----------------------------------------------------

    def _handshake(self, session: str | None) -> Welcome:
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        path = "/ws" if not session else f"/ws?session={session}"
        request = (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            "\r\n"
        )
        self._sock.sendall(request.encode("latin-1"))
        head = b""
        while b"\r\n\r\n" not in head:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ProtocolError(
                    "server closed during WebSocket handshake",
                    code="T2-E510",
                )
            head += chunk
        head, rest = head.split(b"\r\n\r\n", 1)
        status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        if " 101 " not in f"{status_line} ":
            raise ProtocolError(
                f"WebSocket handshake refused: {status_line}",
                code="T2-E510",
            )
        expected = ws.accept_key(key)
        for line in head.decode("latin-1").split("\r\n")[1:]:
            if line.lower().startswith("sec-websocket-accept:"):
                got = line.split(":", 1)[1].strip()
                if got != expected:
                    raise ProtocolError(
                        "WebSocket handshake accept-key mismatch",
                        code="T2-E510",
                    )
        if rest:
            self._pump(rest)
        welcome = self.recv()
        if isinstance(welcome, ErrorReply):
            raise ProtocolError(
                f"server refused connection: {welcome.message}",
                code=welcome.code,
            )
        if not isinstance(welcome, Welcome):
            raise ProtocolError(
                f"expected a welcome, got {welcome.kind!r}", code="T2-E510")
        return welcome

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.sendall(
                ws.encode_frame(b"\x03\xe8", opcode=ws.OP_CLOSE, mask=True))
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- messaging -----------------------------------------------------

    def send(self, command: Command) -> int:
        """Send a command (stamping ``seq`` if unset); returns the seq."""
        seq = command.seq
        if seq is None:
            self._seq += 1
            seq = self._seq
            import dataclasses

            command = dataclasses.replace(command, seq=seq)
        else:
            self._seq = max(self._seq, seq)
        self._sock.sendall(ws.encode_frame(
            encode_command(command).encode("utf-8"), mask=True))
        return seq

    def recv(self) -> Response:
        """The next response from the server (blocking)."""
        while not self._inbox:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ProtocolError(
                    "server closed the connection", code="T2-E510")
            self._pump(chunk)
        return self._inbox.pop(0)

    def _pump(self, data: bytes) -> None:
        for opcode, payload in self._parser.feed(data):
            if opcode == ws.OP_TEXT:
                self._inbox.append(decode_response(payload))
            elif opcode == ws.OP_PING:
                self._sock.sendall(ws.encode_frame(
                    payload, opcode=ws.OP_PONG, mask=True))
            # OP_CLOSE / OP_PONG need no action here; recv() surfaces the
            # closed socket as a ProtocolError.

    def request(self, command: Command) -> Response:
        """Send one command and wait for *its* response (matched by seq).

        Out-of-band responses that arrive first (frames for other windows,
        say) stay queued for later :meth:`recv` calls.  A response the
        server coalesced away under backpressure would wait forever, so use
        this for request/reply interaction, not frame streams.
        """
        seq = self.send(command)
        held: list[Response] = []
        while True:
            response = self.recv()
            if getattr(response, "reply_to", None) == seq:
                self._inbox = held + self._inbox
                return response
            held.append(response)

    def drain(self) -> list[Response]:
        """All responses already buffered locally (non-blocking)."""
        timeout = self._sock.gettimeout()
        self._sock.setblocking(False)
        try:
            while True:
                try:
                    chunk = self._sock.recv(65536)
                except (BlockingIOError, socket.timeout):
                    break
                except OSError:
                    break
                if not chunk:
                    break
                self._pump(chunk)
        finally:
            # Restore the constructor's timeout, not bare blocking mode —
            # otherwise every recv() after a drain() could block forever.
            self._sock.settimeout(timeout)
        drained = self._inbox
        self._inbox = []
        return drained


def connect(url: str = "ws://127.0.0.1:8765/ws", *,
            session: str | None = None, timeout: float = 30.0) -> Client:
    """Open a client connection to a running server.

    Accepts ``ws://host:port/ws`` (or bare ``host:port``); returns a
    connected :class:`Client` whose ``welcome`` lists the hosted programs.
    """
    parsed = urlsplit(url if "//" in url else f"ws://{url}")
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 8765
    return Client(host, port, session=session, timeout=timeout)
