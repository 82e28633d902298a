"""Rule responder behind the benchmark's stub chat server.

It answers the pipeline's default prompts so that every checklist keyword is
covered: the doctor turn asks about the requested keywords verbatim, the
patient turn repeats them, and the rewrite prompts (polish, hallucination,
merge) echo the speaker-tagged lines they carry. It is independent of the
program's own mock backend on purpose, so that changes to how that mock
dispatches do not change the replies this server sends.
"""

import re
from typing import List

_TURN_RE = re.compile(r"^(Doctor|Patient):\s*(.*)$")
_ASKED_RE = re.compile(r"about (.+)\?$")


def _keywords(prompt: str) -> List[str]:
    for line in prompt.splitlines():
        if line.startswith("Key Words:"):
            return [k.strip() for k in line[len("Key Words:"):].split(",") if k.strip()]
    return []


def _turn_lines(prompt: str) -> List[str]:
    return [line for line in prompt.splitlines() if _TURN_RE.match(line)]


def reply(prompt: str) -> str:
    if "role-play as a doctor" in prompt:
        keywords = _keywords(prompt)
        if not keywords:
            return "How are you feeling today?"
        return f"Can you tell me about {', '.join(keywords)}?"
    if "act as a patient" in prompt:
        asked = None
        for line in _turn_lines(prompt):
            if line.startswith("Doctor:"):
                asked = _ASKED_RE.search(line)
        if asked is None:
            return "Yes, that's right."
        return f"Yes, I have had {asked.group(1)} for a while now."
    lines = _turn_lines(prompt)
    return "\n".join(lines) if lines else "Okay."
