"""Every backticked ``repro.*`` name in the docs names real code.

A deletion or rename that leaves a document pointing at code that no
longer exists fails here.  Each dotted name found inside a backtick
span resolves by importing its longest importable module prefix and
looking up the rest as attributes.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md", "hostbench/README.md")

_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"(?<![\w/.])repro(?:\.\w+)+")


def doc_names(path):
    return sorted({name for span in _SPAN.findall(path.read_text())
                   for name in _NAME.findall(span)})


def resolves(name):
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        module_name = ".".join(parts[:i])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name is None or not module_name.startswith(exc.name):
                raise
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_repro_names_resolve(doc):
    names = doc_names(ROOT / doc)
    assert names, f"{doc} names no repro code"
    assert [name for name in names if not resolves(name)] == []


def test_resolver_rejects_missing_names():
    assert resolves("repro.core.decorator.ViewDecorator.bypass")
    assert resolves("repro.analysis")
    assert not resolves("repro.core.decorator.bypass")
    assert not resolves("repro.no_such_module")
