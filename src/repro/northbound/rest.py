"""Minimal JSON REST server and client.

The slicing controller of Table 4 exposes its configuration "using an
HTTP REST north-bound interface" driven by a command-line xApp
("curl").  The server wraps stdlib ``http.server``; routes are
registered as ``(method, path_prefix) -> handler`` where the handler
receives the sub-path and the parsed JSON body and returns a JSON-able
object (or raises :class:`RestError` for an error status).
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

#: Handler signature: (subpath, body) -> response object.
RouteHandler = Callable[[str, Any], Any]


class RestError(Exception):
    """Raise inside a handler to return an HTTP error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class RestServer:
    """Threaded JSON-over-HTTP server with prefix routing."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._routes: Dict[Tuple[str, str], RouteHandler] = {}
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # silence request logging
                pass

            def _body(self) -> Any:
                """The parsed JSON body; an unreadable request is the
                client's error (400), not a reason to drop the socket."""
                text = self.headers.get("Content-Length", "0")
                try:
                    length = int(text)
                except ValueError:
                    raise RestError(400, f"bad Content-Length: {text!r}") from None
                if length < 0:
                    raise RestError(400, f"bad Content-Length: {text!r}")
                raw = self.rfile.read(length) if length else b""
                try:
                    return json.loads(raw) if raw else None
                except ValueError as exc:  # also UnicodeDecodeError
                    raise RestError(400, f"bad JSON body: {exc}") from None

            def _dispatch(self, method: str) -> None:
                try:
                    result = server._handle(method, self.path, self._body())
                    payload = json.dumps(result).encode("utf-8")
                    status = 200
                except RestError as exc:
                    payload = json.dumps({"error": str(exc)}).encode("utf-8")
                    status = exc.status
                # A handler's bug answers 500: the client gets a reply
                # and the server goes on serving.
                except Exception as exc:  # repro-lint: disable=RL002
                    error = f"{type(exc).__name__}: {exc}"
                    payload = json.dumps({"error": error}).encode("utf-8")
                    status = 500
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):
                self._dispatch("GET")

            def do_POST(self):
                self._dispatch("POST")

            def do_DELETE(self):
                self._dispatch("DELETE")

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    def route(self, method: str, prefix: str, handler: RouteHandler) -> None:
        """Register ``handler`` for requests matching ``prefix``."""
        self._routes[(method.upper(), prefix)] = handler

    def _handle(self, method: str, path: str, body: Any) -> Any:
        matches = [
            (prefix, handler)
            for (m, prefix), handler in self._routes.items()
            if m == method and path.startswith(prefix)
        ]
        if not matches:
            raise RestError(404, f"no route for {method} {path}")
        prefix, handler = max(matches, key=lambda item: len(item[0]))
        return handler(path[len(prefix):].lstrip("/"), body)

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="rest-server", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop serving and close the socket; a second call is a no-op.

        ``shutdown()`` waits for ``serve_forever`` to notice, so it is
        only called on a server that :meth:`start` ran.
        """
        if self._closed:
            return
        self._closed = True
        thread, self._thread = self._thread, None
        if thread is not None:
            self._httpd.shutdown()
            thread.join(timeout=5.0)
        self._httpd.server_close()


class RestClient:
    """curl-substitute: blocking JSON requests to a :class:`RestServer`."""

    def __init__(self, host: str, port: int, timeout_s: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    def request(self, method: str, path: str, body: Any = None) -> Any:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            payload = json.dumps(body) if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method.upper(), path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            result = json.loads(raw) if raw else None
            if response.status >= 400:
                raise RestError(response.status, str(result))
            return result
        finally:
            conn.close()

    def get(self, path: str) -> Any:
        return self.request("GET", path)

    def post(self, path: str, body: Any = None) -> Any:
        return self.request("POST", path, body)

    def delete(self, path: str) -> Any:
        return self.request("DELETE", path)
