"""Built-in prompt templates and optional loading from a prompts directory.

A directory may override any template with a ``<name>.txt`` file using the
slots its stage binds; anything not overridden falls back to the embedded
defaults below. A file is decoded by ``read_text``, as every input file is.
"""

from pathlib import Path
from typing import Dict, Optional, Union

from .model import ModelError, PromptTemplate, read_text

DOCTOR_PROMPT = """Clinical Note: {{note}}
Please role-play as a doctor and further ask a question based on the above dialogue to follow up the history conversation. The treatment plan, medication, and dosage you give to the patient must also be consistent with the clinical note. Your question should be around these keywords, and you cannot modify these keywords or use synonyms.
Key Words: {{keywords}}
The History Conversation:
{{history}}"""

PATIENT_PROMPT = """Clinical Note: {{note}}
Please act as a patient and answer my question or follow up on the conversation. Your answer must be consistent with the clinical note and cannot include information that is not in the clinical note. Your responses should be more colloquial.
The History Conversation:
{{history}}"""

POLISH_PROMPT = """Please rewrite all the conversations based on the notes to become fluent and more colloquial, like a normal conversation between the doctor and patient based on the clinical notes. Now you should rewrite the following conversations, and your conversation should include all the information and all the keywords. The keywords must be used directly instead of using synonyms when using them in the conversation.
Key Words: {{keywords}}
The conversation:
{{conversation}}
Clinical Note: {{note}}
The conversation between the doctor and the patient should involve multiple rounds, with each question and answer being relatively short. You should try to ensure that the dialogue is smooth."""

HALLUCINATION_PROMPT = """Check whether the information of the conversation is consistent with the clinical note. If there is some information that you cannot find on the clinical note, please eliminate it. You also should delete the duplicate part. The conversation should include all the key words.
Key Words: {{keywords}}
Clinical Note: {{note}}
Conversation:
{{conversation}}"""

POSTEDITING_PROMPT = """The two paragraphs below were extracted from a complete conversation. Please concatenate the two dialogues together. It means that your generation should include all the information such as the dosage of the medication which is mentioned in the clinical note. You should try to ensure that the dialogue is smooth. The conversation must include these key words and you should also eliminate the repeat parts.
Key Words: {{keywords}}
History Conversation:
{{conversation}}
Generated Conversation:
{{conversation2}}"""

FACTUALITY_PROMPT = """Clinical Note: {{note}}
Conversation:
{{conversation}}
Check whether the conversation above mentions every one of these key words from the clinical note. Answer yes or no, then list any key words that are missing.
Key Words: {{keywords}}"""

DEFAULT_TEMPLATES: Dict[str, PromptTemplate] = {
    "doctor": PromptTemplate("doctor", DOCTOR_PROMPT),
    "patient": PromptTemplate("patient", PATIENT_PROMPT),
    "polish": PromptTemplate("polish", POLISH_PROMPT),
    "hallucination": PromptTemplate("hallucination", HALLUCINATION_PROMPT),
    "postediting": PromptTemplate("postediting", POSTEDITING_PROMPT),
    "factuality": PromptTemplate("factuality", FACTUALITY_PROMPT),
}


def load_templates(directory: Optional[Union[str, Path]] = None) -> Dict[str, PromptTemplate]:
    """Default templates, overridden per name by ``<name>.txt`` files. A directory
    that does not exist, a ``.txt`` file named for no template, and a file that
    does not decode or fit its stage's slots raise ModelError naming the path;
    files of other types are ignored."""
    templates = dict(DEFAULT_TEMPLATES)
    if directory is None:
        return templates
    root = Path(directory)
    if not root.is_dir():
        raise ModelError(f"{root}: not a directory")
    for path in sorted(root.glob("*.txt")):
        try:
            templates[path.stem] = PromptTemplate(path.stem, read_text(path))
        except ValueError as exc:  # undecodable text, an unknown name or a bad placeholder
            raise ModelError(f"{path}: {exc}") from exc
    return templates
