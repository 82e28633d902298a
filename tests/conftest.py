import json
import random
from pathlib import Path

import pytest
from hypothesis import settings

from dialogforge.backend import ChatMessage, ChatRequest
from dialogforge.concepts import load_lexicon
from dialogforge.model import (
    CANONICAL_HEADERS,
    ClinicalNote,
    Dialogue,
    GenerationConfig,
    NoteSection,
    Provenance,
    SectionHeader,
    Speaker,
    Utterance,
)

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 result does not depend on earlier runs. No deadline:
# per-example time varies with the load of a shared machine.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

DATA_DIR = Path(__file__).parent / "data"

LEXICON_PATH = DATA_DIR / "lexicon.tsv"
NOTES_PATH = DATA_DIR / "notes.jsonl"


@pytest.fixture(scope="session")
def lexicon():
    with open(LEXICON_PATH, encoding="utf-8") as handle:
        return load_lexicon(handle)


@pytest.fixture()
def cfg():
    return GenerationConfig()


@pytest.fixture(scope="session")
def fixture_notes():
    notes = []
    for line in NOTES_PATH.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        notes.append(ClinicalNote(id=record["id"], text=record["text"]))
    return notes


def make_section(body, header="preamble"):
    return NoteSection(header=SectionHeader(header), body=body, start=0, end=len(body))


def user_request(prompt, max_reply_tokens=256, temperature=0.7):
    """A one-message user request with no stage or slots."""
    return ChatRequest((ChatMessage("user", prompt),), max_reply_tokens, temperature)


def make_dialogue(*texts, note_id="d", provenance=Provenance.RAW):
    turns = []
    for i, text in enumerate(texts):
        speaker = Speaker.DOCTOR if i % 2 == 0 else Speaker.PATIENT
        turns.append(Utterance(speaker, text, i // 2))
    return Dialogue(note_id, tuple(turns), provenance)


def segmenter_corpus():
    """20 notes covering no-header, duplicate-header, fuzzy-header, CRLF,
    missing-trailing-newline, and unicode cases."""
    notes = [
        ClinicalNote("s01", "CHIEF COMPLAINT:\ncough\nMEDICATIONS:\naspirin\n"),
        ClinicalNote("s02", "free text only, no headers anywhere"),
        ClinicalNote("s03", "intro line\nASSESSMENT\nstable\n"),
        ClinicalNote("s04", "PLAN:\nrest\nPLAN:\nfluids\nPLAN:\nfollow up\n"),
        ClinicalNote("s05", "past medical hist\nhypertension for years\n"),
        ClinicalNote("s06", "CHIEF COMPLAINT:\nheadache"),
        ClinicalNote("s07", "MEDICATIONS:\r\nlisinopril\r\nALLERGY:\r\nnone\r\n"),
        ClinicalNote("s08", "** EXAM **\nunremarkable\n\n\nIMAGING:\nclear\n"),
        ClinicalNote(
            "s09",
            "The patient reports chest pain radiating to the left arm since tuesday evening\n"
            "DIAGNOSIS:\nangina\n",
        ),
        ClinicalNote("s10", "Review Of  Systems :\nnegative\n"),
        ClinicalNote("s11", "LABS:\n"),
        ClinicalNote("s12", "ASSESSMENT:\nstable\nnote ends without newline"),
        ClinicalNote("s13", "préambule unicode œ\nFAMILY HISTORY:\nnon-contributory\n"),
        ClinicalNote("s14", "history of present illness\nfive weeks of fatigue\n"),
        ClinicalNote("s15", "EMERGENCY DEPARTMENT COURSE:\nobserved overnight\nDISPOSITION:\nhome\n"),
        ClinicalNote("s16", "SOCIAL HISTORY:\nnon-smoker\nGYNECOLOGIC HISTORY:\ng2p2\n"),
        ClinicalNote("s17", "immunizationz:\nflu shot given\n"),
        ClinicalNote("s18", "OTHER HISTORY\nremote appendectomy\nPROCEDURES\nappendectomy 1999\n"),
        ClinicalNote("s19", "\n\nPLAN:\nstart metformin\n"),
    ]
    rng = random.Random(20)
    fillers = ["reports mild symptoms today", "no acute distress noted", "tolerating diet well"]
    lines = []
    for header in rng.sample(CANONICAL_HEADERS, 5):
        lines.append(header.upper() + ":")
        lines.append(rng.choice(fillers))
    notes.append(ClinicalNote("s20", "\n".join(lines) + "\n"))
    assert len(notes) == 20
    return notes


@pytest.fixture(scope="session")
def segment_corpus():
    return segmenter_corpus()
