"""The metric catalog names exactly what the benchmark workloads emit.

Each perfbench workload's digest prefix (``perfbench/workloads.py``,
loaded from its file unedited, as ``tests/test_perfbench_digests.py``
does) runs under :func:`repro.obs.collecting`.  Every counter, gauge
and histogram name it emits must have a row in ``docs/OBSERVABILITY.md``
or ``docs/INCREMENTAL.md``, and every row must be emitted by some
prefix unless its meaning is marked *(scenario-only)*: a row so marked
names a metric only other scenarios (the CLI, sweeps, bounds, the
resilience runtime, ...) reach, and a marked row that a prefix emits is
stale.  A name in a row may hold ``<placeholders>`` (one dotted part
each) or end in ``*``; a later name in the same cell that starts with
``.`` or ``...`` swaps the first name's last part.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path
from typing import List, NamedTuple, Set

import pytest

from repro import obs

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"
CATALOGS = (ROOT / "docs" / "OBSERVABILITY.md", ROOT / "docs" / "INCREMENTAL.md")
SCENARIO_ONLY = "*(scenario-only)*"
SEED = 1


class Row(NamedTuple):
    where: str
    names: List[str]
    scenario_only: bool

    def patterns(self) -> List["re.Pattern[str]"]:
        return [_pattern(name) for name in self.names]


def _pattern(name: str) -> "re.Pattern[str]":
    parts = re.split(r"(<[^>]+>|\*$)", name)
    regex = "".join(
        "[^.]+" if part.startswith("<") else ".+" if part == "*" else re.escape(part)
        for part in parts
        if part
    )
    return re.compile(regex + r"\Z")


def _cells(line: str) -> List[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def catalog_rows() -> List[Row]:
    """The rows of every table whose first header cell is "metric"."""
    rows = []
    for path in CATALOGS:
        in_metrics = False
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if not line.startswith("|"):
                in_metrics = False
                continue
            cells = _cells(line)
            if cells[0].lower() == "metric":
                in_metrics = True
                continue
            if not in_metrics or set(cells[0]) <= set("-: "):
                continue
            written = re.findall(r"`([^`]+)`", cells[0])
            if not written:
                raise AssertionError(f"{path.name}:{number}: no metric name")
            first = written[0]
            names = [first] + [
                first.rsplit(".", 1)[0] + "." + name.lstrip(".")
                if name.startswith(".")
                else name
                for name in written[1:]
            ]
            rows.append(
                Row(f"{path.name}:{number}", names, SCENARIO_ONLY in cells[-1])
            )
    return rows


@pytest.fixture(scope="module")
def emitted() -> Set[str]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", WORKLOADS_PY
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    names: Set[str] = set()
    for name, workload in module.WORKLOADS.items():
        state, _build_s = workload.setup(SEED)
        pool = state["items"]
        with obs.collecting() as registry:
            workload.warm_up(state)
            for done in range(workload.prefix_items):
                workload.run_item(state, pool[done % len(pool)], module.Tally())
        names.update(registry.counters())
        names.update(registry.gauges())
        names.update(registry.histograms())
    if not names:
        raise AssertionError("the prefixes emitted no metric")
    return names


def test_the_catalog_parses():
    rows = catalog_rows()
    if len(rows) < 50:
        raise AssertionError(f"only {len(rows)} catalog rows found")


def test_every_emitted_name_has_a_row(emitted):
    patterns = [pattern for row in catalog_rows() for pattern in row.patterns()]
    missing = sorted(
        name for name in emitted if not any(p.match(name) for p in patterns)
    )
    if missing:
        raise AssertionError(f"emitted but not catalogued: {missing}")


def test_every_row_is_emitted_or_scenario_only(emitted):
    silent, stale = [], []
    for row in catalog_rows():
        hit = any(
            pattern.match(name) for pattern in row.patterns() for name in emitted
        )
        if not hit and not row.scenario_only:
            silent.append((row.where, row.names))
        if hit and row.scenario_only:
            stale.append((row.where, row.names))
    if silent:
        raise AssertionError(f"rows no prefix emits, unmarked: {silent}")
    if stale:
        raise AssertionError(f"rows marked scenario-only but emitted: {stale}")
