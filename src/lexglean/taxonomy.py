"""Elicitation prompt taxonomy and run configuration.

The taxonomy is a set of English prompt templates organised into six task
types (constrained, creative, dialogue, functional, structured,
topic_switch), 25 prompts per type.  Template texts carry placeholders such
as ``{language}`` or ``{word_list_1}`` that are filled in from a language
configuration at generation time, so the same taxonomy file drives every
target language.

This module loads taxonomy, language and model JSON files (one loader for
all three, so each rule about a config file is stated once), validates
taxonomies and renders templates into concrete prompt texts.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from operator import attrgetter
from typing import Callable, Iterable, Mapping

SCHEMA_VERSION = 1

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
TASK_TYPES = tuple(sorted(PREFIX_TO_TASK_TYPE.values()))

# Placeholder name -> the language config value it stands for.  Any other
# placeholder must be a word list name (word_list_<n>).
BASE_PLACEHOLDERS = {
    "language": attrgetter("name"),
    "language_culture": attrgetter("culture_name"),
    "colonial_language": attrgetter("colonial_language"),
}

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
    there is none.
    """

    issues: list[str]

    @property
    def ok(self) -> bool:
        return not self.issues


def placeholders_in(text: str) -> list[str]:
    """All ``{name}`` placeholders in a template text, in order of appearance."""
    return _PLACEHOLDER.findall(text)


def load_taxonomy(path: str | Path) -> list[PromptTemplate]:
    """Load every prompt template from a taxonomy JSON file."""
    return _load_configs(path, "templates", _as_template, attrgetter("id"))


def validate_taxonomy(templates: Iterable[PromptTemplate]) -> ValidationReport:
    """Check task types, placeholders and id prefixes for a set of templates.

    The issues list unknown task types first, then unknown placeholders,
    then id prefix mismatches.
    """
    templates = list(templates)
    issues = [f"{t.id}: unknown task_type '{t.task_type}'" for t in templates if t.task_type not in TASK_TYPES]
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
    return ValidationReport(issues)


def render_text(text: str, lang: LanguageConfig, *, context: str = "template") -> str:
    """Substitute every placeholder in ``text`` with values from ``lang``.

    Word lists are joined with ", ".  An unresolvable placeholder raises
    ConfigError naming the placeholder and the context it came from.
    """

    def _substitute(match: re.Match[str]) -> str:
        name = match.group(1)
        if name in BASE_PLACEHOLDERS:
            return BASE_PLACEHOLDERS[name](lang)
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


def _as_template(entry: dict) -> PromptTemplate:
    tid, task_type, subtask = _text(entry, "id"), str(entry["task_type"]), str(entry["subtask"])
    if not tid:
        raise ValueError("'id' must be nonempty")
    text = str(entry["template"])
    return PromptTemplate(tid, task_type, subtask, text, frozenset(placeholders_in(text)))


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
    """Build every entry listed under ``key`` ("templates", "languages" or "models").

    The file is either a bare array of entries or a versioned wrapper
    ``{"schema_version": 1, "<key>": [...]}`` (the shipped files).  A file
    that cannot be read or parsed, a wrong version, an empty list, an entry
    that is not an object, lacks a required field or holds a value of the
    wrong type, and two entries with the same ``ident`` raise ConfigError
    naming the file (and the entries).  A ConfigError from the config's own
    validation keeps its message.
    """
    path = Path(path)
    what = key[:-1]
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if isinstance(data, dict):
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(f"{path}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
        data = data.get(key)
        if not isinstance(data, list):
            raise ConfigError(f"{path}: expected a list under key '{key}'")
    elif not isinstance(data, list):
        raise ConfigError(f"{path}: expected a JSON array or object, got {type(data).__name__}")
    if not data:
        raise ConfigError(f"{path}: no {key}")
    configs = []
    for index, entry in enumerate(data):
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
    seen: dict[str, int] = {}
    for index, config in enumerate(configs):
        first = seen.setdefault(ident(config), index)
        if first != index:
            raise ConfigError(f"{path}: duplicate {what} '{ident(config)}' (entries {first} and {index})")
    return configs


def load_language_configs(path: str | Path) -> list[LanguageConfig]:
    """Load every language from a languages JSON file."""
    return _load_configs(path, "languages", _as_language, attrgetter("iso_code"))


def load_model_configs(path: str | Path) -> list[ModelConfig]:
    """Load every model from a models JSON file."""
    return _load_configs(path, "models", _as_model, attrgetter("model_id"))
