"""Elicitation prompt taxonomy and run configuration.

The taxonomy is a set of English prompt templates organised into six task
types (constrained, creative, dialogue, functional, structured,
topic_switch), 25 prompts per type.  Template texts carry placeholders such
as ``{language}`` or ``{word_list_1}`` that are filled in from a language
configuration at generation time, so the same taxonomy file drives every
target language.

This module owns loading and validating taxonomy / language / model JSON
files and rendering templates into concrete prompt texts.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

SCHEMA_VERSION = 1

TASK_TYPES = (
    "constrained",
    "creative",
    "dialogue",
    "functional",
    "structured",
    "topic_switch",
)

# Prompt ids look like "cw_07": a two-letter task prefix plus a two-digit
# sequence number.  The prefix must agree with the task_type field.
PREFIX_TO_TASK_TYPE = {
    "cg": "constrained",
    "cw": "creative",
    "dl": "dialogue",
    "ft": "functional",
    "sk": "structured",
    "ts": "topic_switch",
}

BASE_PLACEHOLDERS = ("language", "language_culture", "colonial_language")

_WORD_LIST_NAME = re.compile(r"word_list_\d+\Z")
_PLACEHOLDER = re.compile(r"\{([a-z0-9_]+)\}")


class TaxonomyError(ValueError):
    """A taxonomy file could not be loaded or is structurally invalid."""


class ConfigError(ValueError):
    """A language or model configuration is missing or invalid."""


class RenderError(ValueError):
    """A template placeholder could not be resolved for a language."""


@dataclass(frozen=True)
class PromptTemplate:
    """One elicitation prompt template from a taxonomy file."""

    id: str
    task_type: str
    subtask: str
    template_text: str
    required_placeholders: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class LanguageConfig:
    """Target-language settings used for rendering and evaluation."""

    name: str
    iso_code: str
    target_lid_label: str
    culture_name: str
    colonial_language: str
    tonal_orthography: bool
    word_lists: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for fieldname in ("name", "iso_code", "target_lid_label", "colonial_language"):
            if not getattr(self, fieldname):
                raise ConfigError(f"language config: '{fieldname}' must be nonempty")
        for key in self.word_lists:
            if not _WORD_LIST_NAME.match(key):
                raise ConfigError(
                    f"language '{self.iso_code}': bad word list name '{key}' "
                    "(expected word_list_<n>)"
                )


@dataclass(frozen=True)
class ModelConfig:
    """One chat-completion endpoint plus its sampling settings."""

    model_id: str
    endpoint_url: str
    api_key_env_var: str
    temperature: float
    top_p: float
    max_output_tokens: int
    system_prompt_template: str
    max_retries: int = 5
    min_request_interval: float = 0.0

    def __post_init__(self) -> None:
        if not self.model_id:
            raise ConfigError("model config: 'model_id' must be nonempty")
        if self.temperature < 0:
            raise ConfigError(f"model '{self.model_id}': temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ConfigError(f"model '{self.model_id}': top_p must be in (0, 1]")
        if self.max_output_tokens <= 0:
            raise ConfigError(f"model '{self.model_id}': max_output_tokens must be > 0")
        if self.max_retries < 0:
            raise ConfigError(f"model '{self.model_id}': max_retries must be >= 0")
        if self.min_request_interval < 0:
            raise ConfigError(f"model '{self.model_id}': min_request_interval must be >= 0")


@dataclass
class ValidationReport:
    """Result of checking a taxonomy against the structural rules.

    ``ok`` is true iff none of the three problem lists found anything.
    ``task_type_counts`` is informational (templates per known task type).
    """

    task_type_counts: dict[str, int]
    unknown_task_types: list[tuple[str, str]]
    unknown_placeholders: list[tuple[str, str]]
    prefix_mismatches: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not (
            self.unknown_task_types or self.unknown_placeholders or self.prefix_mismatches
        )

    def issues(self) -> list[str]:
        """Human-readable list of every problem found."""
        out = []
        for tid, task in self.unknown_task_types:
            out.append(f"{tid}: unknown task_type '{task}'")
        for tid, name in self.unknown_placeholders:
            out.append(f"{tid}: unknown placeholder '{{{name}}}'")
        for tid, task in self.prefix_mismatches:
            out.append(f"{tid}: id prefix does not match task_type '{task}'")
        return out


def placeholders_in(text: str) -> list[str]:
    """All ``{name}`` placeholders in a template text, in order of appearance."""
    return _PLACEHOLDER.findall(text)


def _load_json_payload(path: Path, array_key: str, what: str) -> list:
    """Read a JSON file that is either a bare array or a versioned wrapper.

    The canonical shipped files are objects ``{"schema_version": 1,
    "<array_key>": [...]}``; a bare top-level array is accepted for
    hand-written files and treated as version 1.
    """
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise TaxonomyError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if isinstance(data, list):
        return data
    if isinstance(data, dict):
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise TaxonomyError(
                f"{path}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
            )
        payload = data.get(array_key)
        if not isinstance(payload, list):
            raise TaxonomyError(f"{path}: expected a list under key '{array_key}'")
        return payload
    raise TaxonomyError(f"{path}: expected a JSON array or object, got {type(data).__name__}")


def load_taxonomy(path: str | Path) -> list[PromptTemplate]:
    """Load prompt templates from a taxonomy JSON file.

    Raises TaxonomyError for unparseable files, missing required fields,
    duplicate template ids or an empty template list.
    """
    path = Path(path)
    entries = _load_json_payload(path, "templates", "taxonomy")
    if not entries:
        raise TaxonomyError(f"{path}: no templates")
    templates: list[PromptTemplate] = []
    seen: dict[str, int] = {}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise TaxonomyError(f"{path}: entry {index} is not an object")
        try:
            tid = entry["id"]
            task_type = entry["task_type"]
            subtask = entry["subtask"]
            text = entry["template"]
        except KeyError as exc:
            raise TaxonomyError(f"{path}: entry {index} is missing field {exc}") from exc
        if not isinstance(tid, str) or not tid:
            raise TaxonomyError(f"{path}: entry {index} has a bad id {tid!r}")
        if tid in seen:
            raise TaxonomyError(
                f"{path}: duplicate template id '{tid}' (entries {seen[tid]} and {index})"
            )
        seen[tid] = index
        templates.append(
            PromptTemplate(
                id=tid,
                task_type=str(task_type),
                subtask=str(subtask),
                template_text=str(text),
                required_placeholders=frozenset(placeholders_in(str(text))),
            )
        )
    return templates


def validate_taxonomy(templates: Iterable[PromptTemplate]) -> ValidationReport:
    """Check task types, placeholders and id prefixes for a set of templates."""
    counts = {task: 0 for task in TASK_TYPES}
    unknown_tasks: list[tuple[str, str]] = []
    unknown_placeholders: list[tuple[str, str]] = []
    prefix_mismatches: list[tuple[str, str]] = []
    for template in templates:
        if template.task_type in counts:
            counts[template.task_type] += 1
        else:
            unknown_tasks.append((template.id, template.task_type))
        for name in sorted(template.required_placeholders):
            if name not in BASE_PLACEHOLDERS and not _WORD_LIST_NAME.match(name):
                unknown_placeholders.append((template.id, name))
        prefix = template.id.split("_", 1)[0]
        if PREFIX_TO_TASK_TYPE.get(prefix) != template.task_type:
            prefix_mismatches.append((template.id, template.task_type))
    return ValidationReport(counts, unknown_tasks, unknown_placeholders, prefix_mismatches)


def render_text(text: str, lang: LanguageConfig, *, context: str = "template") -> str:
    """Substitute every placeholder in ``text`` with values from ``lang``.

    Word lists are joined with ", ".  An unresolvable placeholder raises
    RenderError naming the placeholder and the context it came from.
    """

    def _substitute(match: re.Match[str]) -> str:
        name = match.group(1)
        if name == "language":
            return lang.name
        if name == "language_culture":
            return lang.culture_name
        if name == "colonial_language":
            return lang.colonial_language
        if _WORD_LIST_NAME.match(name):
            words = lang.word_lists.get(name)
            if not words:
                raise RenderError(
                    f"{context}: word list '{name}' is not defined for language "
                    f"'{lang.iso_code}'"
                )
            return ", ".join(words)
        raise RenderError(f"{context}: cannot resolve placeholder '{{{name}}}'")

    return _PLACEHOLDER.sub(_substitute, text)


def render_prompt(template: PromptTemplate, lang: LanguageConfig) -> str:
    """Render one template's text for one language."""
    return render_text(template.template_text, lang, context=f"template '{template.id}'")


def _as_language(entry: dict, path: Path, index: int) -> LanguageConfig:
    try:
        word_lists = {
            str(key): tuple(str(w) for w in words)
            for key, words in (entry.get("word_lists") or {}).items()
        }
        return LanguageConfig(
            name=entry["name"],
            iso_code=entry["iso_code"],
            target_lid_label=entry["target_lid_label"],
            culture_name=entry.get("culture_name", entry["name"]),
            colonial_language=entry["colonial_language"],
            tonal_orthography=bool(entry["tonal_orthography"]),
            word_lists=word_lists,
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: language entry {index} is missing field {exc}") from exc


def load_language_configs(path: str | Path) -> list[LanguageConfig]:
    """Load every language from a languages JSON file."""
    path = Path(path)
    entries = _load_json_payload(path, "languages", "language config")
    if not entries:
        raise ConfigError(f"{path}: no languages")
    languages = [_as_language(entry, path, i) for i, entry in enumerate(entries)]
    seen: set[str] = set()
    for language in languages:
        if language.iso_code in seen:
            raise ConfigError(f"{path}: duplicate language '{language.iso_code}'")
        seen.add(language.iso_code)
    return languages


def _as_model(entry: dict, path: Path, index: int) -> ModelConfig:
    try:
        return ModelConfig(
            model_id=entry["model_id"],
            endpoint_url=entry["endpoint_url"],
            api_key_env_var=entry["api_key_env_var"],
            temperature=float(entry["temperature"]),
            top_p=float(entry["top_p"]),
            max_output_tokens=int(entry["max_output_tokens"]),
            system_prompt_template=entry["system_prompt_template"],
            max_retries=int(entry.get("max_retries", 5)),
            min_request_interval=float(entry.get("min_request_interval", 0.0)),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: model entry {index} is missing field {exc}") from exc


def load_model_configs(path: str | Path) -> list[ModelConfig]:
    """Load every model from a models JSON file."""
    path = Path(path)
    entries = _load_json_payload(path, "models", "model config")
    if not entries:
        raise ConfigError(f"{path}: no models")
    models = [_as_model(entry, path, i) for i, entry in enumerate(entries)]
    seen: set[str] = set()
    for model in models:
        if model.model_id in seen:
            raise ConfigError(f"{path}: duplicate model '{model.model_id}'")
        seen.add(model.model_id)
    return models
