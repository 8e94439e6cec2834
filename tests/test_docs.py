"""Docs stay runnable: CLI commands in the docs parse, modules are documented.

The README and OBSERVABILITY.md quote ``python -m repro.*`` invocations;
each referenced module must at least answer ``--help`` (a doc that names
a CLI that no longer exists is worse than no doc).  And every shipped
module carries a docstring — the module table in the README is only
trustworthy if the modules describe themselves.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.lint.diagnostics import RULES

REPO = pathlib.Path(__file__).parent.parent
SRC = REPO / "src"
DOCS = ("README.md", "OBSERVABILITY.md", "DESIGN.md", "EXPERIMENTS.md")


def _documented_cli_modules():
    modules = set()
    for doc in DOCS:
        text = (REPO / doc).read_text(encoding="utf-8")
        modules.update(re.findall(r"python -m (repro[.\w]*)", text))
    return sorted(modules)


class TestDocumentedCommands:
    def test_docs_reference_at_least_the_known_clis(self):
        modules = _documented_cli_modules()
        assert "repro.lint" in modules
        assert "repro.core.runner" in modules

    @pytest.mark.parametrize("module", _documented_cli_modules())
    def test_cli_answers_help(self, module):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert "usage" in completed.stdout.lower()


class TestModuleDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            docstring = ast.get_docstring(tree)
            if not docstring or len(docstring.strip()) < 10:
                missing.append(str(path.relative_to(SRC)))
        assert not missing, "modules without a real docstring: %s" % missing

    def test_design_tree_lists_every_module(self):
        """DESIGN.md §6 names exactly the modules each subpackage ships
        (``__init__.py`` aside)."""
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        tree = design.split("## 6. Repository layout", 1)[1].split("```")[1]
        listed = {}
        package = None
        for line in tree.splitlines():
            start = re.match(r"^  (\w+)/(.*)$", line)
            if start:
                package, line = start.group(1), start.group(2)
            elif not line.startswith("    "):
                package = None
            if package is not None:
                listed.setdefault(package, set()).update(re.findall(r"\w+\.py", line))
        on_disk = {
            child.name: {path.name for path in child.glob("*.py")} - {"__init__.py"}
            for child in (SRC / "repro").iterdir()
            if (child / "__init__.py").exists()
        }
        assert listed == on_disk

    def test_architecture_table_names_every_subpackage(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for child in sorted((SRC / "repro").iterdir()):
            if child.is_dir() and (child / "__init__.py").exists():
                assert "repro.%s" % child.name in readme, child.name


class TestScorecard:
    def test_experiments_headline_is_the_committed_card(self):
        """EXPERIMENTS.md's headline block is the card that
        ``runner --experiment all`` and the scorecard bench write, verbatim."""
        experiments = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        headline = experiments.split("## Headline scorecard", 1)[1].split("```\n")[1]
        card = (REPO / "benchmarks" / "out" / "scorecard.txt").read_text(encoding="utf-8")
        assert headline == card


class TestRuleTable:
    def test_readme_rule_table_matches_registry(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| ([A-Z]+\d{3}) \| (error|warning|info) \|", readme, re.MULTILINE)
        assert dict(rows) == {code: rule[0].name.lower() for code, rule in RULES.items()}
        assert len(rows) == len(RULES)
