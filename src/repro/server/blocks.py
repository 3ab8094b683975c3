"""Stdlib HTTP block server: the remote side of the ``remote`` store tier.

Serves the narrow block protocol that
:class:`~repro.store.blocks.HTTPBlockClient` speaks, from either an
in-memory mapping of arrays or a format-5 snapshot directory (the same two
sources :class:`~repro.store.blocks.LocalBlockClient` accepts — the server
simply fronts a ``LocalBlockClient`` over HTTP).

Endpoints
---------
``GET /v1/blocks/meta``
    JSON ``{"arrays": {name: {"dtype", "shape"}}}`` — dtype strings and
    shapes of every served array.
``GET /v1/blocks/fetch?name=<array>&blocks=<csv ids>&block_size=<rows>``
    ``application/octet-stream``: the requested blocks' raw bytes
    concatenated in request order (a block is ``block_size`` consecutive
    axis-0 entries; the last block of an array is short).

Unknown arrays and out-of-range blocks answer 404, malformed parameters
400 — the client maps both onto :class:`~repro.exceptions.BlockFetchError`.
Like the rest of :mod:`repro.server` this is stdlib-only
(``http.server.ThreadingHTTPServer``), binds an ephemeral port by default,
and serves each request on its own thread, so one server can feed many
:class:`~repro.store.remote.RemoteDenseStore` /
:class:`~repro.store.remote.RemoteSetStore` clients concurrently.

Usage::

    with BlockServer.from_snapshot(snapshot_dir) as server:
        nn = FairNN.load(snapshot_dir, store={"backend": "remote",
                                              "endpoint": server.url})
        ...
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.exceptions import BlockFetchError
from repro.store.blocks import LocalBlockClient

__all__ = ["BlockServer"]


class _BlockServerCore(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference to the owning block server."""

    daemon_threads = True
    app: "BlockServer"


class _BlockHandler(BaseHTTPRequestHandler):
    """Routes the two block endpoints; everything else is 404."""

    server: _BlockServerCore
    # Header and body go out as separate small writes; without TCP_NODELAY
    # the body can wait on the client's delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler API
        if self.server.app.verbose:
            super().log_message(format, *args)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parsed = urllib.parse.urlsplit(self.path)
        if parsed.path == "/v1/blocks/meta":
            self._send_json(200, self.server.app.meta())
            return
        if parsed.path == "/v1/blocks/fetch":
            status, payload = self.server.app.fetch_from_query(parsed.query)
            if status == 200:
                self._send_bytes(payload)
            else:
                self._send_json(status, {"error": payload})
            return
        self._send_json(404, {"error": f"unknown path {parsed.path}"})

    def _send_json(self, status: int, body: Dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_bytes(self, payload: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class BlockServer:
    """HTTP front-end over a :class:`~repro.store.blocks.LocalBlockClient`.

    Parameters
    ----------
    source:
        A mapping ``{name: ndarray}`` of arrays to serve, or a format-5
        snapshot directory (whose ``arrays/*.npy`` dataset payloads are
        memory-mapped, so the server itself stays out-of-core).
    host, port:
        Bind address; ``port=0`` (the default) picks an ephemeral port,
        exposed afterwards as :attr:`port` / :attr:`url`.
    verbose:
        Re-enable the default ``http.server`` request logging.
    """

    def __init__(self, source, host: str = "127.0.0.1", port: int = 0, verbose: bool = False):
        self._client = LocalBlockClient(source)
        self.verbose = bool(verbose)
        self._httpd = _BlockServerCore((host, port), _BlockHandler)
        self._httpd.app = self
        self._thread: Optional[threading.Thread] = None

    @classmethod
    def from_snapshot(cls, directory, **kwargs) -> "BlockServer":
        """Serve the dataset arrays of a format-5 snapshot directory."""
        return cls(directory, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle (mirrors FairNNServer)
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved after construction for ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BlockServer":
        """Serve on a background thread; returns immediately."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-block-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (or interrupt)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Stop accepting requests and release the listening socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._client.close()

    def __enter__(self) -> "BlockServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request handling (called from handler threads)
    # ------------------------------------------------------------------
    def meta(self) -> Dict:
        """The JSON body of ``GET /v1/blocks/meta``."""
        return self._client.meta()

    def fetch_from_query(self, query: str) -> Tuple[int, object]:
        """Resolve a ``/v1/blocks/fetch`` query string.

        Returns ``(200, payload_bytes)`` on success, ``(400, message)`` for
        malformed parameters, and ``(404, message)`` for unknown arrays or
        out-of-range blocks.
        """
        params = urllib.parse.parse_qs(query)
        name = params.get("name", [None])[0]
        blocks_csv = params.get("blocks", [None])[0]
        block_size_raw = params.get("block_size", [None])[0]
        if not name or not blocks_csv or not block_size_raw:
            return 400, "fetch requires name, blocks and block_size parameters"
        try:
            block_ids: List[int] = [int(b) for b in blocks_csv.split(",")]
            block_size = int(block_size_raw)
        except ValueError:
            return 400, "blocks must be a csv of ints and block_size an int"
        if block_size < 1 or not block_ids or any(b < 0 for b in block_ids):
            return 400, "block_size must be >= 1 and block ids non-negative"
        try:
            return 200, self._client.fetch(name, block_ids, block_size)
        except BlockFetchError as exc:
            return 404, str(exc)
