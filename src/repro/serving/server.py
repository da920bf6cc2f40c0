"""The asyncio TCP server fronting a :class:`ReactorDatabase`.

One :class:`ReactorServer` serves one database.  The discrete-event
scheduler has no thread of its own, so the server runs a *pump* task:
whenever requests have been submitted, it drives ``scheduler.run()``
to quiescence on the event-loop thread.  Requests that arrive
coalesced (one TCP segment, several frames) are all submitted before
the pump runs, so they genuinely overlap in virtual time — a burst
behaves like a burst, not like a sequence of solo transactions.

Admission control happens *at the wire*: the server bounds its
in-flight request count (``max_inflight``) and answers excess load
with a typed ``overloaded`` error carrying a ``retry_after_us`` hint
instead of parking requests without bound.

Sessions are purely logical: a request carries a ``session`` id, the
response echoes it, and responses are written in *completion* order —
many sessions multiplex one connection and match answers by
``(session, id)``.

Telemetry: accepted/shed/in-flight counts and a wire-latency histogram
register on the database's catalog-checked metrics registry
(``serving_*``), and — under system tracing — every served request
emits a ``wait:wire`` span on the ``serving`` track covering its
submit-to-completion window.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.core.database import ReactorDatabase
from repro.serving import protocol
from repro.telemetry.spans import TRACK_SERVING

#: Default bound on requests admitted but not yet answered.
DEFAULT_MAX_INFLIGHT = 256

#: Default retry-after hint (microseconds) attached to sheds; the
#: actual hint scales with how far past the bound the server is.
DEFAULT_RETRY_AFTER_US = 1_000.0


class _Connection:
    """Per-connection state: negotiated codec, decoder, sessions."""

    __slots__ = ("reader", "writer", "codec", "decoder", "sessions",
                 "closed")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.codec = "json"
        self.decoder: protocol.FrameDecoder | None = None
        self.sessions: set[int] = set()
        self.closed = False

    def send(self, message: dict[str, Any]) -> None:
        if self.closed or self.writer.is_closing():
            return
        self.writer.write(protocol.encode_frame(message, self.codec))


class ReactorServer:
    """Serve one database over asyncio TCP (see module docstring)."""

    def __init__(self, database: ReactorDatabase,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 retry_after_us: float = DEFAULT_RETRY_AFTER_US
                 ) -> None:
        self.database = database
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.retry_after_us = retry_after_us
        self.inflight = 0
        #: (host, port) actually bound, known after :meth:`start`.
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pump_task: asyncio.Task | None = None
        self._work = asyncio.Event()
        self._stopping = False
        telemetry = database.telemetry
        registry = telemetry.registry if telemetry.enabled else None
        if registry is not None:
            self._accepted = registry.counter("serving_accepted_total")
            self._shed = registry.counter("serving_shed_total")
            self._connections = registry.counter(
                "serving_connections_total")
            self._sessions = registry.counter("serving_sessions_total")
            registry.gauge_fn("serving_inflight",
                              lambda: self.inflight)
        else:
            self._accepted = self._shed = None
            self._connections = self._sessions = None
        self._wire_hist = telemetry.histogram("serving_wire_latency_us")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._pump_task = asyncio.ensure_future(self._pump())
        return self.address

    async def stop(self) -> None:
        """Stop accepting, close connections, cancel the pump."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._pump_task is not None:
            self._work.set()  # wake it so it observes _stopping
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass

    # ------------------------------------------------------------------
    # The pump
    # ------------------------------------------------------------------

    async def _pump(self) -> None:
        """Drive the virtual-time scheduler whenever work is pending.

        The extra ``sleep(0)`` lets already-readable connections decode
        and submit their whole burst first, so coalesced requests run
        concurrently in virtual time instead of one pump each.
        """
        scheduler = self.database.scheduler
        while not self._stopping:
            await self._work.wait()
            self._work.clear()
            await asyncio.sleep(0)
            scheduler.run()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        conn = _Connection(reader, writer)
        if self._connections is not None:
            self._connections.inc()
        try:
            if not await self._handshake(conn):
                return
            await self._read_loop(conn)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            conn.closed = True
            writer.close()

    async def _handshake(self, conn: _Connection) -> bool:
        """Run the JSON hello exchange; pick version and codec."""
        decoder = protocol.FrameDecoder("json")
        opener: Any = None
        while opener is None:
            data = await conn.reader.read(65536)
            if not data:
                return False
            messages = decoder.feed(data)
            if messages:
                opener = messages[0]
        if not isinstance(opener, dict) or \
                opener.get("type") != "hello":
            conn.send(protocol.hello_error(
                "expected a hello message first"))
            await conn.writer.drain()
            return False
        try:
            version, codec = protocol.negotiate(
                opener.get("versions"), opener.get("codecs"))
        except protocol.WireProtocolError as err:
            conn.send(protocol.hello_error(str(err)))
            await conn.writer.drain()
            return False
        conn.send(protocol.hello_ok(version, codec))
        await conn.writer.drain()
        conn.codec = codec
        conn.decoder = protocol.FrameDecoder(codec)
        # Bytes the client pipelined behind its hello frame belong to
        # the negotiated stream.
        leftover = bytes(decoder._buffer)
        if leftover:
            for message in conn.decoder.feed(leftover):
                self._handle_message(conn, message)
        return True

    async def _read_loop(self, conn: _Connection) -> None:
        while not self._stopping:
            data = await conn.reader.read(65536)
            if not data:
                try:
                    conn.decoder.check_eof()
                except protocol.TornFrameError:
                    pass  # peer died mid-frame; nothing to answer
                return
            try:
                messages = conn.decoder.feed(data)
            except protocol.WireProtocolError as err:
                conn.send(protocol.error(
                    None, None, protocol.ERR_BAD_REQUEST, str(err)))
                await conn.writer.drain()
                return
            for message in messages:
                if isinstance(message, dict) and \
                        message.get("type") == "goodbye":
                    await conn.writer.drain()
                    return
                self._handle_message(conn, message)
            await conn.writer.drain()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def _handle_message(self, conn: _Connection,
                        message: Any) -> None:
        problem = protocol.validate_request(message)
        if problem is not None:
            rid = message.get("id") if isinstance(message, dict) \
                else None
            session = message.get("session") \
                if isinstance(message, dict) else None
            conn.send(protocol.error(rid, session,
                                     protocol.ERR_BAD_REQUEST, problem))
            return
        rid = message["id"]
        session = message["session"]
        if session not in conn.sessions:
            conn.sessions.add(session)
            if self._sessions is not None:
                self._sessions.inc()
        if self.inflight >= self.max_inflight:
            self._shed_request(conn, rid, session,
                               "admission bound reached: "
                               f"{self.inflight} requests in flight")
            return
        database = self.database
        if message["reactor"] not in database:
            conn.send(protocol.error(
                rid, session, protocol.ERR_UNKNOWN_REACTOR,
                f"no reactor named {message['reactor']!r}"))
            return
        t_wire = self._loop.time()
        self.inflight += 1
        if self._accepted is not None:
            self._accepted.inc()
        t_submit = database.scheduler.now
        state = (conn, rid, session, t_wire, t_submit)

        def on_done(root, committed, reason, result, _state=state):
            self._complete(_state, root, committed, reason, result)

        try:
            database.submit(
                message["reactor"], message["proc"], *message["args"],
                read_only=message.get("read_only"), on_done=on_done)
        except Exception as err:  # noqa: BLE001 - fault barrier: one
            # bad request must not tear down the connection.
            self.inflight -= 1
            conn.send(protocol.error(rid, session,
                                     protocol.ERR_INTERNAL, str(err)))
            return
        self._work.set()

    def _shed_request(self, conn: _Connection, rid: int,
                      session: int, detail: str) -> None:
        if self._shed is not None:
            self._shed.inc()
        hint = self.retry_after_us * max(
            1.0, (self.inflight + 1) / max(1, self.max_inflight))
        conn.send(protocol.error(rid, session, protocol.ERR_OVERLOADED,
                                 detail, retry_after_us=hint))

    def _complete(self, state: tuple, root: Any, committed: bool,
                  reason: str | None, result: Any) -> None:
        conn, rid, session, t_wire, t_submit = state
        self.inflight -= 1
        database = self.database
        if self._wire_hist is not None:
            self._wire_hist.observe(
                (self._loop.time() - t_wire) * 1e6)
        tracer = database.telemetry.tracer
        if tracer is not None and tracer.system:
            tracer.system_span(
                "wait:wire", TRACK_SERVING, root.txn_id, t_submit,
                database.scheduler.now,
                args={"session": session, "request": rid})
        try:
            conn.send(protocol.response(rid, session, committed,
                                        result=result, reason=reason))
        except protocol.WireProtocolError:
            # The procedure returned something the codec cannot carry;
            # the transaction still committed server-side.
            conn.send(protocol.response(
                rid, session, committed,
                result=None,
                reason=None if committed else reason))


# ----------------------------------------------------------------------
# Thread-hosted convenience (tests, benches, CI smoke)
# ----------------------------------------------------------------------

class ServerThread:
    """Run a :class:`ReactorServer` on a dedicated event-loop thread.

    The synchronous world (pytest, benchmark scripts, the CI smoke
    job) starts the server, reads ``host``/``port``, points a
    :class:`~repro.client.TcpClient` at it, and calls :meth:`stop`
    when done.  The hosted event loop owns the database while serving
    — don't drive the scheduler from another thread concurrently.
    """

    def __init__(self, database: ReactorDatabase, **kwargs: Any) -> None:
        self.server = ReactorServer(database, **kwargs)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serving", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serving thread failed to start")
        if self._startup_error is not None:
            raise self._startup_error
        return self.server.address

    @property
    def host(self) -> str:
        return self.server.address[0]

    @property
    def port(self) -> int:
        return self.server.address[1]

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed() and \
                self._stop_event is not None:
            loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:  # noqa: BLE001
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()


def serve_in_thread(database: ReactorDatabase,
                    **kwargs: Any) -> ServerThread:
    """Start serving ``database`` on a background event-loop thread;
    returns the started :class:`ServerThread` (read ``host``/``port``,
    call ``stop()``)."""
    thread = ServerThread(database, **kwargs)
    thread.start()
    return thread


__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_RETRY_AFTER_US",
    "ReactorServer",
    "ServerThread",
    "serve_in_thread",
]
