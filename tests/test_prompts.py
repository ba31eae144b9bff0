from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from textemo.prompts import (
    EmptySentence,
    PromptTemplate,
    UnknownTemplate,
    get_template,
    load_templates,
    parse_template_file,
    render,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

# Fixture inputs the golden files were rendered with.
CONTEXT = "Speaker Ses01_F says: hello Speaker Ses01_M says: hi"
SPEAKER = "Ses01_M"
SENTENCE = "Yeah. I suppose I have been."

TEMPLATE_NAMES = ("baseline", "expert", "gambler", "cot", "cot_fired")


class TestShippedTemplates:
    def test_all_five_present(self):
        assert set(load_templates()) == set(TEMPLATE_NAMES)

    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    def test_golden_file_byte_equality(self, name):
        template = get_template(name)
        rendered = render(template, CONTEXT, SPEAKER, SENTENCE)
        golden = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
        assert rendered == golden

    def test_slot_counts_per_template(self):
        templates = load_templates()
        for name in TEMPLATE_NAMES:
            body = templates[name].body
            assert body.count("{context}") == 1
            assert body.count("{current speaker}") == 1
        for name in ("baseline", "expert", "gambler"):
            assert templates[name].body.count("{current sentence}") == 2
        for name in ("cot", "cot_fired"):
            assert templates[name].body.count("{current sentence}") == 1

    def test_verbatim_phrasing(self):
        templates = load_templates()
        assert templates["baseline"].body.startswith("Two speakers are talking. The conversation is {context}.")
        assert templates["expert"].body.startswith("You are an expert emotion predictor.")
        assert templates["gambler"].body.startswith(
            "You are an expert gambler who earns money by predicting emotions correctly."
        )
        assert templates["cot_fired"].body.endswith(
            "If you do not get the prediction right, I will be fired and lose my job. So please try you best."
        )

    def test_baseline_render_prefix(self):
        rendered = render(get_template("baseline"), "C", "S", "X")
        assert rendered.startswith("Two speakers are talking. The conversation is C. Now speaker S says: X.")

    def test_expert_render_prefix(self):
        rendered = render(get_template("expert"), "C", "S", "X")
        assert rendered.startswith("You are an expert emotion predictor.")


class TestRender:
    def test_pure(self):
        template = get_template("baseline")
        first = render(template, CONTEXT, SPEAKER, SENTENCE)
        second = render(template, CONTEXT, SPEAKER, SENTENCE)
        assert first == second

    def test_sentence_appears_at_every_slot(self):
        template = get_template("baseline")
        marker = "XXUNIQUEXX"
        rendered = render(template, "c", "s", marker)
        assert rendered.count(marker) == template.body.count("{current sentence}") == 2

    def test_no_slot_leakage(self):
        for name in TEMPLATE_NAMES:
            rendered = render(get_template(name), "c", "s", "x")
            assert "{" not in rendered
            assert "}" not in rendered

    def test_braces_in_inputs_pass_through(self):
        rendered = render(get_template("baseline"), "{ctx}", "s", "x")
        assert "{ctx}" in rendered

    def test_empty_context_and_speaker_leave_no_markers(self):
        template = PromptTemplate(name="t", body="A {context} B {current speaker} C {current sentence}")
        assert render(template, "", "", "x") == "A  B  C x"

    def test_empty_sentence_raises(self):
        with pytest.raises(EmptySentence):
            render(get_template("baseline"), "c", "s", "")

    def test_escaped_braces(self):
        template = PromptTemplate(name="t", body="literal {{json}} and {current sentence}")
        assert render(template, "", "", "x") == "literal {json} and x"

    def test_equals_a_token_by_token_substitution(self):
        """render turns each body into a str.format pattern once; the reference
        substitutes its tokens left to right, a lone brace staying literal."""
        token_re = re.compile(r"\{\{|\}\}|\{context\}|\{current speaker\}|\{current sentence\}")
        values = {"{{": "{", "}}": "}", "{context}": "c{0}", "{current speaker}": "s}", "{current sentence}": "{x}%s"}
        fragments = ["{", "}", "{{", "}}", "{context}", "{current speaker}", "{current sentence}", "{0}", "%s", "a"]
        rng = random.Random(0)
        for _ in range(3000):
            body = "".join(rng.choice(fragments) for _ in range(rng.randint(1, 8)))
            expected = token_re.sub(lambda m: values[m.group(0)], body)
            assert render(PromptTemplate(name="t", body=body), "c{0}", "s}", "{x}%s") == expected, body


class TestTemplateFile:
    def test_parse_and_custom_file(self, tmp_path):
        path = tmp_path / "templates.txt"
        path.write_text("--- mini\nSay {current sentence} please.\n", encoding="utf-8")
        templates = load_templates(path)
        assert render(templates["mini"], "", "", "hi") == "Say hi please."

    def test_multi_record(self):
        templates = parse_template_file("--- a\nbody a\n--- b\nbody b\n")
        assert templates["a"].body == "body a"
        assert templates["b"].body == "body b"

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError, match="template 'b' has an empty body"):
            parse_template_file("--- a\nx\n--- b\n \n--- c\ny\n")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_template_file("--- a\nx\n--- a\ny\n")

    def test_unknown_template(self):
        with pytest.raises(UnknownTemplate):
            get_template("nope")

    def test_preamble_comments_ok_content_not(self):
        parse_template_file("# comment\n\n--- a\nx\n")
        with pytest.raises(ValueError, match="before the first"):
            parse_template_file("stray text\n--- a\nx\n")

