"""Chat-completion backends: an HTTP client and a deterministic mock.

The HTTP variant speaks the common ``/chat/completions`` JSON shape; endpoint
and model name are configuration, and the bearer token comes from the
``DIALOGFORGE_API_KEY`` environment variable only.

A request carries, besides its messages, the pipeline ``stage`` that built it
(the template name) and the rendered text of each template slot. Both stay in
the process: the HTTP client sends only model, messages, max_tokens and
temperature.

The mock has two modes. Scripted mode plays back canned replies (raising
ScriptExhausted in strict mode when they run out). Rule mode answers by
stage from the slot text, never from the prompt wording: doctor requests get
a single question embedding every requested keyword verbatim, patient
requests echo the note sentences that mention the keywords of the last
doctor question, and the refinement stages echo the dialogue lines of their
conversation slots. That makes a full pipeline run deterministic and
keyword-coverage-complete by construction, whatever the templates say.
"""

import logging
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlparse

import requests

logger = logging.getLogger(__name__)

API_KEY_ENV = "DIALOGFORGE_API_KEY"
ENDPOINT_ENV = "DIALOGFORGE_ENDPOINT"

# Heuristic, model-agnostic token estimate: about 4 characters per token.
CHARS_PER_TOKEN = 4

# Seconds an HTTP request may take before it fails as a retryable Timeout.
REQUEST_TIMEOUT_S = 60.0


class BackendError(Exception):
    retryable = False


class AuthError(BackendError):
    pass


class RateLimited(BackendError):
    retryable = True


class ServerError(BackendError):
    retryable = True


class Timeout(BackendError):
    retryable = True


class MalformedResponse(BackendError):
    pass


class ScriptExhausted(BackendError):
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
        if per_minute <= 0:
            raise ValueError("per_minute must be positive")
        self._per_second = per_minute / 60.0
        self._capacity = float(per_minute)
        self._tokens = float(per_minute)
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


class HttpBackend:
    """POSTs chat-completion requests to ``<endpoint>/chat/completions``."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: Optional[str] = None,
        requests_per_minute: Optional[float] = None,
    ):
        parsed = urlparse(endpoint)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise ValueError(f"invalid endpoint url: {endpoint!r}")
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self._limiter = TokenBucket(requests_per_minute) if requests_per_minute is not None else None

    def complete(self, request: ChatRequest) -> str:
        if self._limiter is not None:
            self._limiter.acquire()
        body = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "max_tokens": request.max_reply_tokens,
            "temperature": request.temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        try:
            # plain requests.post keeps the backend safely shareable across
            # worker threads (a Session is not guaranteed thread-safe)
            response = requests.post(
                f"{self.endpoint}/chat/completions",
                json=body,
                headers=headers,
                timeout=REQUEST_TIMEOUT_S,
            )
        except requests.exceptions.Timeout as exc:
            raise Timeout(str(exc)) from exc
        except requests.exceptions.ConnectionError as exc:
            # Transient transport failure; treated like a timeout so it retries.
            raise Timeout(str(exc)) from exc

        if response.status_code in (401, 403):
            raise AuthError(f"status {response.status_code}")
        if response.status_code == 429:
            raise RateLimited("status 429")
        if response.status_code >= 500:
            raise ServerError(f"status {response.status_code}")
        if response.status_code != 200:
            raise MalformedResponse(f"unexpected status {response.status_code}")
        try:
            payload = response.json()
            content = payload["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise MalformedResponse(f"cannot parse completion body: {exc}") from exc
        if not isinstance(content, str) or not content.strip():
            raise MalformedResponse("completion content is empty")
        return content


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
    next try. Non-retryable errors propagate immediately.
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
            sleep(pick(0.0, base_delay * (2 ** attempt)))
            attempt += 1


# ---------------------------------------------------------------------------
# Deterministic mock
# ---------------------------------------------------------------------------

_TURN_LINE_RE = re.compile(r"^(Doctor|Patient):\s*(.*)$", re.IGNORECASE)
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+|\n+")
_DOCTOR_ASK_RE = re.compile(r"about (.+?)\?")


def _split_sentences(text: str) -> List[str]:
    return [s.strip() for s in _SENTENCE_SPLIT_RE.split(text) if s.strip()]


def _ensure_period(sentence: str) -> str:
    return sentence if sentence.endswith((".", "!", "?")) else sentence + "."


class MockBackend:
    """Deterministic stand-in for a chat service.

    ``script`` replies are consumed first, in order; with ``strict`` the mock
    raises ScriptExhausted instead of falling back to the rule engine.
    ``style="long"`` makes the refinement-prompt rules split multi-sentence
    utterances into one utterance per sentence, so long-mode runs produce
    more, shorter turns than short-mode runs.
    """

    def __init__(
        self,
        script: Optional[Sequence[str]] = None,
        strict: bool = False,
        style: str = "short",
    ):
        if style not in ("short", "long"):
            raise ValueError(f"style must be short or long, got {style!r}")
        self._script: List[str] = list(script) if script else []
        self._scripted = script is not None
        self._strict = strict
        self._style = style
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, request: ChatRequest) -> str:
        with self._lock:
            self.calls += 1
            if self._script:
                return self._script.pop(0)
            if self._scripted and self._strict:
                raise ScriptExhausted(f"script exhausted after {self.calls - 1} replies")
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
        question = None
        for line in history.splitlines():
            match = _TURN_LINE_RE.match(line)
            if match and match.group(1).lower() == "doctor":
                question = match.group(2)
        keywords = []
        if question:
            asked = _DOCTOR_ASK_RE.search(question)
            if asked:
                keywords = [k.strip() for k in asked.group(1).split(",") if k.strip()]
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
        turns: List[Tuple[str, str]] = []
        for line in "\n".join(transcripts).splitlines():
            match = _TURN_LINE_RE.match(line)
            if match:
                turns.append((match.group(1).capitalize(), match.group(2)))
        if not turns:
            return "Okay."
        if self._style == "long":
            expanded: List[Tuple[str, str]] = []
            for speaker, text in turns:
                sentences = _split_sentences(text)
                if len(sentences) > 1:
                    expanded.extend((speaker, _ensure_period(s)) for s in sentences)
                else:
                    expanded.append((speaker, text))
            turns = expanded
        return "\n".join(f"{speaker}: {text}" for speaker, text in turns)
