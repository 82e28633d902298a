"""Stub chat-completions server for the latency-bound workload.

Run as its own process::

    python3 perfbench/stub.py --base-ms 8 --per-token-us 20 --limit-every 8

It binds 127.0.0.1 on a free port, prints the port on stdout, and serves
until its standard input closes (so it never outlives the benchmark).

* ``POST /chat/completions`` sleeps ``base + per_token * prompt_tokens`` and
  answers through the rule responder. Every ``limit-every``-th request gets a
  429 at once, without a ``Retry-After`` header. Prompt tokens use the
  program's estimate of four characters per token.
* ``GET /stats`` returns the request, connection, 429 and prompt-character
  counts as JSON. Only connections that carry a chat request are counted.

It speaks HTTP/1.1 with ``Content-Length`` on every response, so a client
that keeps connections alive can reuse them.
"""

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from responder import reply

CHARS_PER_TOKEN = 4


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.rate_limited = 0
        self.prompt_chars = 0

    def as_dict(self):
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "rate_limited": self.rate_limited,
                "prompt_chars": self.prompt_chars,
            }


def make_handler(counters: Counters, base_s: float, per_token_s: float, limit_every: int):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.chatted = False

        def log_message(self, *args):
            pass

        def _send(self, status: int, payload: dict):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, counters.as_dict())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            request = json.loads(self.rfile.read(length) or b"{}")
            if self.path != "/chat/completions":
                self._send(404, {"error": "not found"})
                return
            prompt = request["messages"][-1]["content"]
            with counters.lock:
                if not self.chatted:
                    self.chatted = True
                    counters.connections += 1
                counters.requests += 1
                counters.prompt_chars += len(prompt)
                limited = counters.requests % limit_every == 0
                if limited:
                    counters.rate_limited += 1
            if limited:
                self._send(429, {"error": "rate limited"})
                return
            time.sleep(base_s + per_token_s * -(-len(prompt) // CHARS_PER_TOKEN))
            self._send(200, {"choices": [{"message": {"role": "assistant", "content": reply(prompt)}}]})

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base-ms", type=float, required=True)
    parser.add_argument("--per-token-us", type=float, required=True)
    parser.add_argument("--limit-every", type=int, required=True)
    args = parser.parse_args()
    if args.limit_every < 2:
        parser.error("--limit-every must be at least 2")

    counters = Counters()
    handler = make_handler(counters, args.base_ms / 1e3, args.per_token_us / 1e6, args.limit_every)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    print(server.server_address[1], flush=True)
    # Serve until the parent closes our stdin (or dies).
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
