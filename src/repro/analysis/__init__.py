"""repro.analysis — darpalint and darpaflow, the repo's determinism gates.

Zero-dependency (stdlib ``ast``) static analysis enforcing the
invariant every serving-path layer is built on: behaviour is a pure
function of the simulated clock and explicit seeds, so sequential and
sharded runs are byte-identical.

- :mod:`repro.analysis.engine` — AST walker with parent/scope links,
  :class:`Finding` records, inline suppressions, stable ordering;
- :mod:`repro.analysis.rules` — DL001–DL008 (wall clocks, unseeded
  RNGs, unordered merge iteration, float accumulation, swallowed
  exceptions, mutable defaults, undocumented matmul reductions,
  unsorted listings);
- :mod:`repro.analysis.config` — ``[tool.darpalint]`` allowlists and
  excludes from ``pyproject.toml``;
- :mod:`repro.analysis.flow` — darpaflow, the interprocedural taint
  analysis (DF001–DF007) that follows nondeterministic *values* into
  byte-exact sinks;
- :mod:`repro.analysis.reporters` — the deterministic text/JSON
  reports and CLI tail of both analyzers;
- :mod:`repro.analysis.cli` — ``python -m repro lint`` /
  ``python -m repro.analysis`` entry points (exit codes in
  :mod:`repro.exits`).
"""

from repro.analysis.config import (
    ConfigError,
    LintConfig,
    config_from_table,
    load_config,
    rule_allowed,
)
from repro.analysis.engine import (
    Finding,
    LintEngine,
    LintPathError,
    PARSE_ERROR_RULE,
    iter_python_files,
    lint_paths,
)
from repro.analysis.reporters import render, render_json, render_text
from repro.analysis.rules import (
    ALL_RULES,
    RULES_BY_ID,
    Rule,
    default_rules,
    rules_for_ids,
)

__all__ = [
    "ALL_RULES",
    "ConfigError",
    "Finding",
    "LintConfig",
    "LintEngine",
    "LintPathError",
    "PARSE_ERROR_RULE",
    "RULES_BY_ID",
    "Rule",
    "config_from_table",
    "default_rules",
    "iter_python_files",
    "lint_paths",
    "load_config",
    "render",
    "render_json",
    "render_text",
    "rule_allowed",
    "rules_for_ids",
]
