"""Chat-completion backends: an HTTP client and a deterministic mock.

The HTTP variant speaks the common ``/chat/completions`` JSON shape; endpoint
and model name are configuration, and the bearer token comes from the
``DIALOGFORGE_API_KEY`` environment variable only. It keeps its HTTP/1.1
connections alive in a pool that holds at most one connection per request in
flight, so ``generate --workers N`` opens at most N; ``close`` closes them at
the end of a run. ``HTTP_PROXY``, ``HTTPS_PROXY`` and ``NO_PROXY`` are read
once, when the first connection opens. On Linux each request sets
``TCP_QUICKACK`` once it is sent, so that a server which writes its reply
headers and body apart, with Nagle's algorithm on, does not wait for the
client's delayed ACK on a kept-alive connection. A redirect is not followed:
any 3xx fails the request, and nothing is sent to its ``Location``.

A request carries, besides its messages, the pipeline ``stage`` that built it
(the template name) and the rendered text of each template slot. Both stay in
the process: the HTTP client sends only model, messages, max_tokens and
temperature.

The mock plays back its scripted replies, if any, and falls back to rule
replies once the script runs out. A rule reply answers by stage from the
slot text, never from the prompt wording: doctor requests get a single
question embedding every requested keyword verbatim, patient requests echo
the note sentences that mention the keywords of the last doctor turn
``parse_transcript`` reads in the history, and the refinement stages echo the
turns of their conversation slots through the pipeline's own transcript codec
(in short style, text that is already ``is_canonical`` as it is).
That makes a full pipeline run deterministic and keyword-coverage-complete by
construction, whatever the templates say.
"""

import base64
import json
import os
import random
import re
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from email.utils import parsedate_to_datetime
from http.client import HTTPConnection, HTTPException, HTTPSConnection, IncompleteRead
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import unquote, urlparse, urlsplit
from urllib.request import getproxies, proxy_bypass

from .model import MODES, Speaker, Unparseable, Utterance, format_transcript, is_canonical, parse_transcript

API_KEY_ENV = "DIALOGFORGE_API_KEY"
ENDPOINT_ENV = "DIALOGFORGE_ENDPOINT"

# Heuristic, model-agnostic token estimate: about 4 characters per token.
CHARS_PER_TOKEN = 4

# Seconds one HTTP connect or socket read may wait before the request fails
# as a retryable Timeout; nothing yet bounds a whole request that trickles in.
REQUEST_TIMEOUT_S = 60.0


class BackendError(Exception):
    retryable = False


class AuthError(BackendError):
    pass


class RateLimited(BackendError):
    retryable = True

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after  # seconds the server asked to wait, if it said


class ServerError(BackendError):
    retryable = True


class Timeout(BackendError):
    retryable = True


class MalformedResponse(BackendError):
    pass


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"bad message role: {self.role!r}")
        if self.role in ("user", "assistant") and not self.content:
            raise ValueError(f"{self.role} message content is empty")


@dataclass(frozen=True)
class ChatRequest:
    messages: Tuple[ChatMessage, ...]
    max_reply_tokens: int = 256
    temperature: float = 0.7
    # Local only, never sent: the template name and each slot's rendered text.
    stage: str = ""
    slots: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValueError("request has no messages")
        if self.max_reply_tokens < 1:
            raise ValueError("max_reply_tokens must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")


def estimate_tokens(text: str) -> int:
    """ceil(len(text) / CHARS_PER_TOKEN); empty text is 0 tokens."""
    return -(-len(text) // CHARS_PER_TOKEN)


class TokenBucket:
    """Thread-safe request gate refilled at ``per_minute`` tokens a minute."""

    def __init__(self, per_minute: float):
        if not per_minute > 0:  # NaN too
            raise ValueError("per_minute must be positive")
        self._per_second = per_minute / 60.0
        # Room for one token at least, or a rate under one a minute grants nothing.
        self._capacity = self._tokens = max(1.0, float(per_minute))
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self._capacity, self._tokens + (now - self._stamp) * self._per_second)
                self._stamp = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self._per_second
            time.sleep(wait)


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    """Seconds a ``Retry-After`` value asks to wait, as delta-seconds or an
    HTTP-date (RFC 9110 §10.2.3); None when absent or unreadable."""
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        pass
    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    return max(0.0, when.timestamp() - time.time())


# Linux only. A server that sends its reply headers and body in two writes with
# Nagle's algorithm on holds the body until the headers are acknowledged; on a
# kept-alive connection the client's delayed ACK would then stall each reply
# by up to 40 ms. The option is not sticky, so it is set after every send.
_TCP_QUICKACK = getattr(socket, "TCP_QUICKACK", None)
# The User-Agent that urlopen sent.
_USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]


class _Route(NamedTuple):
    """A connection to ``host[:port]``, over TLS if ``tls``, that first opens a
    ``CONNECT`` tunnel to ``tunnel`` with ``tunnel_headers`` if ``tunnel`` is
    set; each request is sent to ``target`` with ``headers``."""
    host: str
    tls: bool
    target: str
    headers: Dict[str, str]
    tunnel: Optional[str] = None
    tunnel_headers: Optional[Dict[str, str]] = None


class HttpBackend:
    """POSTs chat-completion requests to ``<endpoint>/chat/completions`` over
    kept-alive HTTP/1.1 connections.

    A request takes an idle connection or opens a new one, reads the whole
    reply and puts the connection back, unless the server said it will close
    it or the body was over the cap. So the pool holds at most as many
    connections as requests ever ran at once; ``close`` closes them.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: Optional[str] = None,
        requests_per_minute: Optional[float] = None,
    ):
        parsed = urlparse(endpoint)
        if parsed.username is not None:  # "user:password@host" would be taken for the host name
            raise ValueError(f"endpoint url must not hold credentials; the key comes from ${API_KEY_ENV}")
        # ``port`` raises ValueError for a port that is no number from 0 to 65535.
        if parsed.scheme not in ("http", "https") or not parsed.hostname or parsed.port == 0:
            raise ValueError(f"invalid endpoint url: {endpoint!r}")
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self._limiter = TokenBucket(requests_per_minute) if requests_per_minute is not None else None
        self._route: Optional[_Route] = None  # read at the first connection
        self._idle: List[HTTPConnection] = []
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> str:
        if self._limiter is not None:
            self._limiter.acquire()
        body = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "max_tokens": request.max_reply_tokens,
            "temperature": request.temperature,
        }
        # 64 KiB for the JSON around the reply, and 6 bytes (a \uXXXX escape) a character.
        cap = 64 * 1024 + 6 * CHARS_PER_TOKEN * request.max_reply_tokens
        try:
            status, reply_headers, raw = self._post(json.dumps(body, allow_nan=False).encode(), cap)
        except (OSError, HTTPException) as exc:
            # Any transport failure, a body cut off mid-stream too, retries like a timeout.
            raise Timeout(str(exc)) from exc
        if status in (401, 403):
            raise AuthError(f"status {status}")
        if status == 429:
            raise RateLimited("status 429", _retry_after_seconds(reply_headers.get("Retry-After")))
        if status >= 500:
            raise ServerError(f"status {status}")
        if status != 200:
            raise MalformedResponse(f"unexpected status {status}")
        if len(raw) > cap:
            raise MalformedResponse(f"reply body over {cap} bytes")
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise MalformedResponse(f"cannot parse completion body: {exc}") from exc
        if not isinstance(content, str) or not content.strip():
            raise MalformedResponse("completion content is empty")
        return content

    def close(self) -> None:
        """Closes the idle connections; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def _post(self, payload: bytes, cap: int):
        """(status, headers, body) of one POST, body read to ``cap + 1`` bytes
        at most; one over ``cap`` closes the connection. A pooled connection that
        the server closed while it sat idle fails before any status line
        arrives; the request is then sent once more on a new connection."""
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        if not reused:
            connection = self._connect()
        try:
            try:
                response = self._send(connection, payload)
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is a ConnectionResetError
                if not reused:
                    raise
                connection.close()
                connection = self._connect()
                response = self._send(connection, payload)
            with response:
                raw = response.read(cap + 1)
            if len(raw) <= cap and response.length:
                # Read with a byte count, a body cut off before its Content-Length comes back short.
                raise IncompleteRead(raw, response.length)
        except BaseException:
            connection.close()
            raise
        if response.will_close or len(raw) > cap:
            connection.close()
        else:
            with self._lock:
                self._idle.append(connection)
        return response.status, response.headers, raw

    def _send(self, connection: HTTPConnection, payload: bytes):
        connection.request("POST", self._route.target, payload, self._route.headers)
        if _TCP_QUICKACK is not None:
            connection.sock.setsockopt(socket.IPPROTO_TCP, _TCP_QUICKACK, 1)
        return connection.getresponse()

    def _connect(self) -> HTTPConnection:
        """A new connection; http.client sets ``TCP_NODELAY`` when it opens.
        Two workers' first connections may both read the route; each publishes it whole."""
        self._route = route = self._route or self._read_route()
        connection = (HTTPSConnection if route.tls else HTTPConnection)(route.host, timeout=REQUEST_TIMEOUT_S)
        if route.tunnel:
            connection.set_tunnel(route.tunnel, headers=route.tunnel_headers)
        return connection

    def _read_route(self) -> _Route:
        """The endpoint's route, straight or through the proxy (a URL or a bare
        ``host:port``) the environment names for its scheme, read as urllib's
        ProxyHandler reads it. An ``http`` request goes to the proxy with its
        absolute URL, an ``https`` one through a ``CONNECT`` tunnel."""
        url = f"{self.endpoint}/chat/completions".partition("#")[0]
        parts = urlsplit(url)
        headers = {"Content-Type": "application/json", "User-Agent": _USER_AGENT}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        route = _Route(parts.netloc, parts.scheme == "https", parts._replace(scheme="", netloc="").geturl(), headers)
        proxy = getproxies().get(parts.scheme)
        if not proxy or proxy_bypass(parts.netloc):
            return route
        proxy_parts = urlsplit(proxy if "://" in proxy else "//" + proxy)
        proxy_headers = {}
        if proxy_parts.username and proxy_parts.password:
            credentials = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password)}".encode()
            proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials).decode("ascii")
        proxy_host = proxy_parts.netloc.rpartition("@")[2]
        if route.tls:
            return route._replace(host=proxy_host, tunnel=parts.netloc, tunnel_headers=proxy_headers)
        return _Route(proxy_host, proxy_parts.scheme == "https", url, {**headers, **proxy_headers})


def complete_with_retry(
    backend,
    request: ChatRequest,
    max_retries: int = 3,
    base_delay: float = 0.5,
    rng: Optional[random.Random] = None,
    sleep=time.sleep,
) -> str:
    """Retry retryable failures with exponential backoff and full jitter.

    Attempt ``n`` (0-based) sleeps uniform(0, base_delay * 2**n) before the
    next try, or longer if a 429 asked for a longer wait; a 429 that asks for
    more than ``REQUEST_TIMEOUT_S``, the longest wait of one connect or socket
    read, propagates at once, as do non-retryable errors.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    pick = (rng or random).uniform
    attempt = 0
    while True:
        try:
            return backend.complete(request)
        except BackendError as exc:
            if not exc.retryable or attempt >= max_retries:
                raise
            delay = pick(0.0, base_delay * (2 ** attempt))
            asked = exc.retry_after if isinstance(exc, RateLimited) else None
            if asked is not None:
                if asked > REQUEST_TIMEOUT_S:
                    raise
                delay = max(delay, asked)
            sleep(delay)
            attempt += 1


# ---------------------------------------------------------------------------
# Deterministic mock
# ---------------------------------------------------------------------------

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+|\n+")
_DOCTOR_ASK_RE = re.compile(r"about (.+?)\?")


def _split_sentences(text: str) -> List[str]:
    return [s.strip() for s in _SENTENCE_SPLIT_RE.split(text) if s.strip()]


def _ensure_period(sentence: str) -> str:
    return sentence if sentence.endswith((".", "!", "?")) else sentence + "."


class MockBackend:
    """Deterministic stand-in for a chat service.

    ``script`` replies are consumed first, in order; once they run out, the
    mock falls back to rule replies.
    ``style="long"`` makes the refinement-prompt rules split multi-sentence
    utterances into one utterance per sentence, so long-mode runs produce
    more, shorter turns than short-mode runs.
    """

    def __init__(
        self,
        script: Optional[Sequence[str]] = None,
        style: str = "short",
    ):
        if style not in MODES:
            raise ValueError(f"style must be short or long, got {style!r}")
        self._script: List[str] = list(script) if script else []
        self._style = style
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, request: ChatRequest) -> str:
        with self._lock:
            self.calls += 1
            if self._script:
                return self._script.pop(0)
        return self._rule_reply(request.stage, request.slots)

    # -- rule engine ------------------------------------------------------

    def _rule_reply(self, stage: str, slots: Dict[str, str]) -> str:
        if stage == "doctor":
            return self._doctor_reply(slots.get("keywords", ""))
        if stage == "patient":
            return self._patient_reply(slots.get("note", ""), slots.get("history", ""))
        if stage in ("polish", "hallucination", "postediting"):
            return self._echo_dialogue(slots.get("conversation", ""), slots.get("conversation2", ""))
        if stage == "factuality":
            return "Yes, the conversation covers the required information."
        return "Okay."

    @staticmethod
    def _doctor_reply(keywords_text: str) -> str:
        keywords = [k.strip() for k in keywords_text.split(",") if k.strip()]
        if not keywords:
            return "How are you feeling today?"
        return f"Can you tell me about {', '.join(keywords)}?"

    @staticmethod
    def _patient_reply(note: str, history: str) -> str:
        try:
            turns = parse_transcript(history)
        except Unparseable:  # no speaker tag, so no question
            turns = []
        question = next((turn.text for turn in reversed(turns) if turn.speaker is Speaker.DOCTOR), "")
        asked = _DOCTOR_ASK_RE.search(question)
        keywords = [k.strip() for k in asked.group(1).split(",") if k.strip()] if asked else []
        sentences = _split_sentences(note)
        echoed: List[str] = []
        for keyword in keywords:
            for sentence in sentences:
                if keyword.lower() in sentence.lower():
                    stamped = _ensure_period(sentence)
                    if stamped not in echoed:
                        echoed.append(stamped)
                    break
        if not echoed:
            return "Yes, that's right."
        return " ".join(echoed)

    def _echo_dialogue(self, *transcripts: str) -> str:
        """``format_transcript(parse_transcript(text))`` of the non-empty slots
        joined by lines, or "Okay."; short style returns a canonical text as is."""
        text = "\n".join(filter(None, transcripts))
        if self._style == "short" and is_canonical(text):
            return text
        try:
            turns = parse_transcript(text)
        except Unparseable:
            return "Okay."
        if self._style == "long":
            expanded: List[Utterance] = []
            for turn in turns:
                sentences = _split_sentences(turn.text)
                if len(sentences) > 1:
                    expanded.extend(Utterance(turn.speaker, _ensure_period(s)) for s in sentences)
                else:
                    expanded.append(turn)
            turns = expanded
        return format_transcript(turns)
