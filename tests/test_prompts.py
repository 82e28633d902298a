from dialogforge.model import STAGE_SLOTS
from dialogforge.prompts import DEFAULT_TEMPLATES, load_templates


def test_default_templates_cover_all_names():
    assert set(DEFAULT_TEMPLATES) == set(STAGE_SLOTS)


def test_default_slots_per_template():
    assert DEFAULT_TEMPLATES["doctor"].referenced_slots() == {"note", "keywords", "history"}
    assert DEFAULT_TEMPLATES["patient"].referenced_slots() == {"note", "history"}
    assert DEFAULT_TEMPLATES["polish"].referenced_slots() == {"note", "keywords", "conversation"}
    assert DEFAULT_TEMPLATES["hallucination"].referenced_slots() == {
        "note",
        "keywords",
        "conversation",
    }
    assert DEFAULT_TEMPLATES["postediting"].referenced_slots() == {
        "keywords",
        "conversation",
        "conversation2",
    }
    assert DEFAULT_TEMPLATES["factuality"].referenced_slots() == {
        "note",
        "keywords",
        "conversation",
    }
    for name, template in DEFAULT_TEMPLATES.items():
        assert template.referenced_slots() <= STAGE_SLOTS[name]


def test_load_templates_without_directory_returns_defaults():
    assert load_templates() == DEFAULT_TEMPLATES


def test_load_templates_overrides_from_directory(tmp_path):
    (tmp_path / "patient.txt").write_text(
        "Clinical Note: {{note}}\nPlease act as a patient, briefly.\n{{history}}",
        encoding="utf-8",
    )
    (tmp_path / "README.md").write_text("Only *.txt files are read: {{anything}}", encoding="utf-8")
    templates = load_templates(tmp_path)
    assert "briefly" in templates["patient"].body
    assert templates["doctor"] == DEFAULT_TEMPLATES["doctor"]


def test_load_templates_drops_a_byte_order_mark(tmp_path):
    for name, template in DEFAULT_TEMPLATES.items():
        (tmp_path / f"{name}.txt").write_bytes(b"\xef\xbb\xbf" + template.body.encode("utf-8"))
    assert load_templates(tmp_path) == DEFAULT_TEMPLATES
