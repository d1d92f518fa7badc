"""Every benchmark file is run by CI: no bench is left that nothing runs.

Tier-1 collects ``tests/`` only, so a ``benchmarks/bench_*.py`` file
runs only if a CI step names it.  The workflow is read without a YAML
library (CI installs only numpy, pytest and hypothesis): each step's
``run:`` command, single-line or ``|`` block, is collected as text.
"""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

# bench_autodiff.py is the live-tensor Figure 1 frontier that the planned
# ``figure1_measured`` lab spec replaces (ROADMAP item 7); it is deleted
# there, not wired into CI here.
UNRUN_ALLOWED = {"bench_autodiff.py"}


def run_commands(text: str) -> list[str]:
    """The ``run:`` command of every workflow step, as shell text."""
    commands = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        m = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
        if not m:
            continue
        indent, value = len(m.group(1)), m.group(2).strip()
        if value not in ("|", ">"):
            commands.append(value)
            continue
        block = []
        for nxt in lines[i + 1 :]:
            if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= indent:
                break
            block.append(nxt.strip())
        commands.append("\n".join(block))
    return commands


def test_every_bench_file_is_run_by_ci():
    commands = run_commands(WORKFLOW.read_text())
    ran = {
        name
        for cmd in commands
        if "pytest" in cmd
        for name in re.findall(r"benchmarks/(bench_\w+\.py)", cmd)
    }
    benches = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
    assert benches, "no benchmark files found"
    unrun = sorted(benches - ran - UNRUN_ALLOWED)
    assert not unrun, f"benchmarks no CI step runs: {unrun}"
    missing = sorted(ran - benches)
    assert not missing, f"CI runs benchmark files that do not exist: {missing}"
