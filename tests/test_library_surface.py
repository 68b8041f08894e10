"""The package's named surface: every name `matsep` exports is named in
the README, and every function or method the bench tracer wraps
(`bench/spans.py` TARGETS) still exists, so removing or renaming one
fails here and not only in a traced bench run."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _exports() -> list:
    tree = ast.parse((ROOT / "src" / "matsep" / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def _span_targets() -> list:
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [target[:3] for target in spans.TARGETS]


TARGETS = _span_targets()


def test_every_export_is_named_in_the_readme():
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    code = re.findall(r"`([^`]+)`", prose)
    named = set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))
    exports = _exports()
    assert "RMatrix" in exports
    assert [name for name in exports if name not in named] == []


@pytest.mark.parametrize("module,cls,attr", TARGETS,
                         ids=[".".join(p for p in t if p) for t in TARGETS])
def test_every_traced_name_resolves(module, cls, attr):
    home = importlib.import_module(f"matsep.{module}")
    if cls is None:
        assert callable(getattr(home, attr))
    else:
        assert callable(vars(getattr(home, cls))[attr])
