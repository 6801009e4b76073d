"""darpalint configuration: ``[tool.darpalint]`` in ``pyproject.toml``.

Schema (all keys optional)::

    [tool.darpalint]
    exclude = ["src/generated/*"]          # paths never linted
    dl003-functions = ["*merge*", ...]     # scopes DL003 applies to
    dl004-functions = ["*merge*", ...]     # scopes DL004 applies to
    dl007-functions = ["*merge*", ...]     # scopes DL007 applies to

    [tool.darpalint.allow]
    # Per-rule path allowlists.  Every entry should carry a comment
    # justifying WHY the rule does not apply to that file.
    DL001 = ["repro/wallclock.py"]

Patterns are ``fnmatch`` globs over posix-style paths; a bare relative
pattern like ``repro/wallclock.py`` also matches any path *suffix*
(``src/repro/wallclock.py``), so the config does not hard-code the
checkout layout.

Parsing uses :mod:`tomllib` where available (Python ≥ 3.11) and falls
back to a minimal line-oriented parser good for the subset above —
the engine stays zero-dependency on 3.9/3.10 where neither ``tomllib``
nor ``tomli`` can be assumed.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

try:
    import tomllib as _toml  # Python >= 3.11
except ImportError:  # pragma: no cover - exercised only on 3.9/3.10
    _toml = None

#: Function-name globs inside which DL003 (unordered iteration) fires.
DEFAULT_DL003_FUNCTIONS: Tuple[str, ...] = (
    "*merge*", "*snapshot*", "*export*", "*to_dict*", "*to_json*",
    "*serialize*", "*prometheus*", "*jsonl*",
)

#: Function-name globs inside which DL004 (float accumulation) fires.
DEFAULT_DL004_FUNCTIONS: Tuple[str, ...] = ("*merge*", "*snapshot*")

#: Function-name globs inside which DL007 (undocumented matmul
#: reduction) fires — the merge/reduction scopes where a BLAS dot
#: product hides an order-sensitive float sum.
DEFAULT_DL007_FUNCTIONS: Tuple[str, ...] = (
    "*merge*", "*reduce*", "*accumulate*", "*fold*", "*snapshot*",
)


class ConfigError(Exception):
    """``[tool.darpalint]`` is present but malformed."""


@dataclass
class LintConfig:
    """Parsed lint configuration (defaults = lint everything)."""

    #: rule id → path globs where the rule is intentionally off.
    allow: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: path globs skipped entirely.
    exclude: Tuple[str, ...] = ()
    dl003_functions: Tuple[str, ...] = DEFAULT_DL003_FUNCTIONS
    dl004_functions: Tuple[str, ...] = DEFAULT_DL004_FUNCTIONS
    dl007_functions: Tuple[str, ...] = DEFAULT_DL007_FUNCTIONS

    def excluded(self, path: str) -> bool:
        return _path_matches(path, self.exclude)


def _path_matches(path: str, patterns: Sequence[str]) -> bool:
    path = path.replace(os.sep, "/")
    for pattern in patterns:
        pattern = pattern.replace(os.sep, "/")
        if fnmatchcase(path, pattern) or fnmatchcase(path, "*/" + pattern):
            return True
    return False


def rule_allowed(config: LintConfig, rule_id: str, path: str) -> bool:
    """True when ``path`` is allowlisted for ``rule_id``."""
    return _path_matches(path, config.allow.get(rule_id.upper(), ()))


# ---------------------------------------------------------------------------
# pyproject.toml loading
# ---------------------------------------------------------------------------

def find_pyproject(start: Optional[str] = None) -> Optional[str]:
    """Nearest ``pyproject.toml`` at or above ``start`` (default: cwd)."""
    here = os.path.abspath(start or os.getcwd())
    while True:
        candidate = os.path.join(here, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(here)
        if parent == here:
            return None
        here = parent


def load_tool_table(pyproject_path: Optional[str] = None,
                    tool: str = "darpalint") -> Mapping[str, object]:
    """Raw decoded ``[tool.<tool>]`` table (empty when absent).

    Shared by darpalint and darpaflow: ``tomllib`` where available,
    the tool-scoped mini-TOML fallback elsewhere.  Raises
    :class:`ConfigError` on unreadable/malformed input.
    """
    path = pyproject_path or find_pyproject()
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fp:
            text = fp.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    if _toml is not None:
        try:
            data = _toml.loads(text)
        except _toml.TOMLDecodeError as exc:
            raise ConfigError(f"{path}: {exc}")
    else:  # pragma: no cover - exercised only on 3.9/3.10
        data = _parse_mini_toml(text, tool=tool)
    table = data.get("tool", {}).get(tool, {})
    if not isinstance(table, Mapping):
        raise ConfigError(f"{path}: [tool.{tool}] must be a table")
    return table


def load_config(pyproject_path: Optional[str] = None) -> LintConfig:
    """Config from ``pyproject.toml`` (searched upward when not given).

    A missing file or a file with no ``[tool.darpalint]`` table yields
    the defaults; a malformed table raises :class:`ConfigError`.
    """
    path = pyproject_path or find_pyproject()
    if path is None:
        return LintConfig()
    return config_from_table(load_tool_table(path, tool="darpalint"),
                             origin=path)


def config_from_table(table: Mapping[str, object],
                      origin: str = "<config>") -> LintConfig:
    """Build a :class:`LintConfig` from a decoded ``[tool.darpalint]``."""
    if not isinstance(table, Mapping):
        raise ConfigError(f"{origin}: [tool.darpalint] must be a table")
    config = LintConfig()
    for key, value in table.items():
        if key == "allow":
            if not isinstance(value, Mapping):
                raise ConfigError(
                    f"{origin}: [tool.darpalint.allow] must be a table")
            config.allow = {
                str(rule).upper(): string_tuple(value[rule], origin,
                                                f"allow.{rule}")
                for rule in value}
        elif key == "exclude":
            config.exclude = string_tuple(value, origin, key)
        elif key == "dl003-functions":
            config.dl003_functions = string_tuple(value, origin, key)
        elif key == "dl004-functions":
            config.dl004_functions = string_tuple(value, origin, key)
        elif key == "dl007-functions":
            config.dl007_functions = string_tuple(value, origin, key)
        else:
            raise ConfigError(
                f"{origin}: unknown [tool.darpalint] key {key!r}")
    return config


def string_tuple(value: object, origin: str, key: str,
                 tool: str = "darpalint") -> Tuple[str, ...]:
    """A ``[tool.<tool>]`` value as a string tuple (one string is one
    item); anything else is a :class:`ConfigError`."""
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and all(
            isinstance(item, str) for item in value):
        return tuple(value)
    raise ConfigError(
        f"{origin}: [tool.{tool}] {key} must be a string list")


# ---------------------------------------------------------------------------
# Fallback mini-TOML parser (3.9/3.10, zero-dependency constraint)
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.\-\"']+)\]\s*$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_\-\"']+)\s*=\s*(.*)$")


def _strip_comment(line: str) -> str:
    """Drop a trailing ``#`` comment (quote-aware)."""
    out, in_string, quote = [], False, ""
    for ch in line:
        if in_string:
            out.append(ch)
            if ch == quote:
                in_string = False
        elif ch in ("'", '"'):
            in_string, quote = True, ch
            out.append(ch)
        elif ch == "#":
            break
        else:
            out.append(ch)
    return "".join(out).strip()


def _parse_scalar(token: str) -> object:
    token = token.strip()
    if token.startswith(("'", '"')) and token.endswith(token[0]) \
            and len(token) >= 2:
        return token[1:-1]
    if token in ("true", "false"):
        return token == "true"
    try:
        return int(token)
    except ValueError:
        try:
            return float(token)
        except ValueError:
            raise ConfigError(f"mini-toml: cannot parse value {token!r}")


def _parse_value(token: str) -> object:
    token = token.strip()
    if token.startswith("["):
        body = token[1:-1] if token.endswith("]") else token[1:]
        items: List[object] = []
        for part in _split_list(body):
            if part:
                items.append(_parse_scalar(part))
        return items
    return _parse_scalar(token)


def _split_list(body: str) -> List[str]:
    parts, buf, in_string, quote = [], [], False, ""
    for ch in body:
        if in_string:
            buf.append(ch)
            if ch == quote:
                in_string = False
        elif ch in ("'", '"'):
            in_string, quote = True, ch
            buf.append(ch)
        elif ch == ",":
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf).strip())
    return parts


def _parse_mini_toml(text: str, tool: str = "darpalint") -> Dict[str, object]:
    """Just enough TOML for one ``[tool.<name>]`` family: sections,
    string / bool / number scalars and (multiline) flat lists.

    Everything OUTSIDE ``[tool.<name>*]`` sections is skipped
    wholesale — the rest of a real ``pyproject.toml`` uses TOML
    features (inline tables, escapes) this fallback has no business
    understanding.  Inside the scoped tables, malformed lines raise
    :class:`ConfigError` rather than being silently dropped.
    """
    root: Dict[str, object] = {}
    section: Optional[Dict[str, object]] = None  # None = skip this section
    pending_key: Optional[str] = None
    pending: List[str] = []
    for raw in text.splitlines():
        line = _strip_comment(raw)
        if not line:
            continue
        if pending_key is not None:
            pending.append(line)
            if line.endswith("]"):
                assert section is not None
                section[pending_key] = _parse_value(" ".join(pending))
                pending_key, pending = None, []
            continue
        match = _SECTION_RE.match(line)
        if match:
            parts = [part.strip("\"'")
                     for part in match.group(1).split(".")]
            if parts[:2] != ["tool", tool]:
                section = None
                continue
            cursor: Dict[str, object] = root
            for part in parts:
                cursor = cursor.setdefault(part, {})  # type: ignore[assignment]
                if not isinstance(cursor, dict):
                    raise ConfigError(
                        f"mini-toml: section {match.group(1)!r} clashes "
                        "with a value")
            section = cursor
            continue
        if section is None:
            continue
        match = _KEY_RE.match(line)
        if match is None:
            raise ConfigError(f"mini-toml: cannot parse line {raw!r}")
        key = match.group(1).strip("\"'")
        value = match.group(2).strip()
        if value.startswith("[") and not value.endswith("]"):
            pending_key, pending = key, [value]
            continue
        section[key] = _parse_value(value)
    if pending_key is not None:
        raise ConfigError(f"mini-toml: unterminated list for {pending_key!r}")
    return root


__all__ = [
    "ConfigError",
    "DEFAULT_DL003_FUNCTIONS",
    "DEFAULT_DL004_FUNCTIONS",
    "DEFAULT_DL007_FUNCTIONS",
    "LintConfig",
    "config_from_table",
    "find_pyproject",
    "load_config",
    "load_tool_table",
    "rule_allowed",
    "string_tuple",
]
