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
from operator import attrgetter
from typing import Callable, Iterable, Mapping

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


class ConfigError(ValueError):
    """A taxonomy, language or model file is missing or invalid, or a
    template placeholder cannot be resolved for a language."""


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

    ``issues`` lists every problem found, human-readable; ``ok`` is true iff
    there is none.  ``task_type_counts`` is informational (templates per
    known task type).
    """

    task_type_counts: dict[str, int]
    issues: list[str]

    @property
    def ok(self) -> bool:
        return not self.issues


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
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if isinstance(data, list):
        return data
    if isinstance(data, dict):
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"{path}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
            )
        payload = data.get(array_key)
        if not isinstance(payload, list):
            raise ConfigError(f"{path}: expected a list under key '{array_key}'")
        return payload
    raise ConfigError(f"{path}: expected a JSON array or object, got {type(data).__name__}")


def load_taxonomy(path: str | Path) -> list[PromptTemplate]:
    """Load prompt templates from a taxonomy JSON file.

    Raises ConfigError for unparseable files, missing required fields,
    duplicate template ids or an empty template list.
    """
    path = Path(path)
    entries = _load_json_payload(path, "templates", "taxonomy")
    if not entries:
        raise ConfigError(f"{path}: no templates")
    templates: list[PromptTemplate] = []
    seen: dict[str, int] = {}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: entry {index} is not an object")
        try:
            tid = entry["id"]
            task_type = entry["task_type"]
            subtask = entry["subtask"]
            text = entry["template"]
        except KeyError as exc:
            raise ConfigError(f"{path}: entry {index} is missing field {exc}") from exc
        if not isinstance(tid, str) or not tid:
            raise ConfigError(f"{path}: entry {index} has a bad id {tid!r}")
        if tid in seen:
            raise ConfigError(
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
    """Check task types, placeholders and id prefixes for a set of templates.

    The issues list unknown task types first, then unknown placeholders,
    then id prefix mismatches.
    """
    templates = list(templates)
    counts = {task: sum(t.task_type == task for t in templates) for task in TASK_TYPES}
    issues = [f"{t.id}: unknown task_type '{t.task_type}'" for t in templates if t.task_type not in counts]
    issues += [
        f"{t.id}: unknown placeholder '{{{name}}}'"
        for t in templates
        for name in sorted(t.required_placeholders)
        if name not in BASE_PLACEHOLDERS and not _WORD_LIST_NAME.match(name)
    ]
    issues += [
        f"{t.id}: id prefix does not match task_type '{t.task_type}'"
        for t in templates
        if PREFIX_TO_TASK_TYPE.get(t.id.split("_", 1)[0]) != t.task_type
    ]
    return ValidationReport(counts, issues)


def render_text(text: str, lang: LanguageConfig, *, context: str = "template") -> str:
    """Substitute every placeholder in ``text`` with values from ``lang``.

    Word lists are joined with ", ".  An unresolvable placeholder raises
    ConfigError naming the placeholder and the context it came from.
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
                raise ConfigError(
                    f"{context}: word list '{name}' is not defined for language "
                    f"'{lang.iso_code}'"
                )
            return ", ".join(words)
        raise ConfigError(f"{context}: cannot resolve placeholder '{{{name}}}'")

    return _PLACEHOLDER.sub(_substitute, text)


def render_prompt(template: PromptTemplate, lang: LanguageConfig) -> str:
    """Render one template's text for one language."""
    return render_text(template.template_text, lang, context=f"template '{template.id}'")


def _text(entry: dict, key: str, default: str | None = None) -> str:
    value = entry[key] if default is None else entry.get(key, default)
    if not isinstance(value, str):
        raise TypeError(f"'{key}' must be a string, not {type(value).__name__}")
    return value


def _as_language(entry: dict) -> LanguageConfig:
    word_lists = entry.get("word_lists") or {}
    if not isinstance(word_lists, dict):
        raise TypeError(f"'word_lists' must be an object, not {type(word_lists).__name__}")
    return LanguageConfig(
        name=_text(entry, "name"),
        iso_code=_text(entry, "iso_code"),
        target_lid_label=_text(entry, "target_lid_label"),
        culture_name=_text(entry, "culture_name", _text(entry, "name")),
        colonial_language=_text(entry, "colonial_language"),
        tonal_orthography=bool(entry["tonal_orthography"]),
        word_lists={str(key): tuple(str(w) for w in words) for key, words in word_lists.items()},
    )


def _as_model(entry: dict) -> ModelConfig:
    return ModelConfig(
        model_id=_text(entry, "model_id"),
        endpoint_url=_text(entry, "endpoint_url"),
        api_key_env_var=_text(entry, "api_key_env_var"),
        temperature=float(entry["temperature"]),
        top_p=float(entry["top_p"]),
        max_output_tokens=int(entry["max_output_tokens"]),
        system_prompt_template=_text(entry, "system_prompt_template"),
        max_retries=int(entry.get("max_retries", 5)),
        min_request_interval=float(entry.get("min_request_interval", 0.0)),
    )


def _load_configs(path: str | Path, key: str, build: Callable, ident: Callable) -> list:
    """Build every entry listed under ``key`` ("languages" or "models").

    An empty list, an entry that is not an object, lacks a required field or
    holds a value of the wrong type, and two entries with the same ``ident``
    raise ConfigError naming the file (and the entry).  A ConfigError from
    the config's own validation keeps its message.
    """
    path = Path(path)
    what = key[:-1]
    entries = _load_json_payload(path, key, f"{what} config")
    if not entries:
        raise ConfigError(f"{path}: no {key}")
    configs = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: {what} entry {index} is not an object")
        try:
            configs.append(build(entry))
        except KeyError as exc:
            raise ConfigError(f"{path}: {what} entry {index} is missing field {exc}") from exc
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {what} entry {index}: {exc}") from exc
    seen: set[str] = set()
    for config in configs:
        if ident(config) in seen:
            raise ConfigError(f"{path}: duplicate {what} '{ident(config)}'")
        seen.add(ident(config))
    return configs


def load_language_configs(path: str | Path) -> list[LanguageConfig]:
    """Load every language from a languages JSON file."""
    return _load_configs(path, "languages", _as_language, attrgetter("iso_code"))


def load_model_configs(path: str | Path) -> list[ModelConfig]:
    """Load every model from a models JSON file."""
    return _load_configs(path, "models", _as_model, attrgetter("model_id"))
