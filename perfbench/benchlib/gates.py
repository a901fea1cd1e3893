"""Correctness gates: parse what `isel` printed and check it.

Every gate returns a list of problems; an empty list passes. The benchmark
reports `correct: false` and exits non-zero if any gate of a run fails.
"""

import re

_REPORT = re.compile(
    r"^ingested (\d+)\tinvalid (\d+)\tdropped (\d+)\tqueue high-water (\d+)\tcheckpoints (\d+)$",
    re.M,
)


def parse_frontier(stdout):
    """`isel frontier` rows as `(memory_bytes, cost)`; the first row is the
    empty configuration."""
    rows = []
    for line in stdout.splitlines()[1:]:
        if line.strip():
            mem, cost, _ = line.split("\t")
            rows.append((int(mem), float(cost)))
    return rows


def parse_report(stdout):
    """The result block `isel replay` and `isel serve` print: counters,
    per-epoch lines and the final selection (one `TABLE(ATTRS)` per line).
    `None` if the counters line is missing."""
    m = _REPORT.search(stdout)
    if not m:
        return None
    ingested, invalid, dropped, high_water, checkpoints = map(int, m.groups())
    selection, in_selection, epochs = [], False, []
    for line in stdout.splitlines():
        if line.startswith("epoch "):
            epochs.append(line)
        elif line.startswith("final selection"):
            in_selection = True
        elif in_selection and line.startswith("  "):
            selection.append(line.strip())
    return {
        "ingested": ingested,
        "invalid": invalid,
        "dropped": dropped,
        "high_water": high_water,
        "checkpoints": checkpoints,
        "epochs": epochs,
        "selection": selection,
    }


def frontier_gate(rows):
    """The frontier starts at the empty configuration and is monotone:
    memory never shrinks and cost never grows along it."""
    if len(rows) < 2:
        return [f"frontier has {len(rows)} rows, expected the empty point and at least one step"]
    problems = []
    if rows[0][0] != 0:
        problems.append(f"frontier starts at {rows[0][0]} bytes, not 0")
    for (m0, c0), (m1, c1) in zip(rows, rows[1:]):
        if m1 < m0 or c1 > c0:
            problems.append(f"frontier not monotone: ({m0}, {c0:.6e}) -> ({m1}, {c1:.6e})")
            break
    return problems


def quality_gate(ratio):
    """No selection beats the unbudgeted per-template optimum; a ratio
    below 1 means the cost model or the reference is wrong."""
    if not ratio >= 1.0 - 1e-9:
        return [f"cost ratio {ratio} is below the per-template optimum"]
    return []


def selection_gate(cost, ideal, base):
    """A printed selection's cost lies between the unbudgeted per-template
    optimum and the cost with no index."""
    problems = quality_gate(cost / ideal)
    if not cost <= base * (1.0 + 1e-9):
        problems.append(f"selection cost {cost:.6e} is above the cost with no index {base:.6e}")
    return problems


def replay_gate(report, events):
    """Lossless ingest: every event ingested, none invalid or dropped."""
    if report is None:
        return ["no result block in the output"]
    problems = []
    if report["ingested"] != events:
        problems.append(f"ingested {report['ingested']} of {events} events")
    if report["invalid"]:
        problems.append(f"{report['invalid']} invalid events")
    if report["dropped"]:
        problems.append(f"{report['dropped']} dropped events")
    return problems


def result_key(report):
    """What two runs over the same events must agree on: the final
    selection and the epoch outcomes (in any order across table groups)."""
    return report["selection"], sorted(report["epochs"])


def same_result_gate(a, b, what):
    """Two runs that must agree on their `result_key`."""
    if a is None or b is None:
        return [f"{what}: missing result block"]
    problems = []
    if a["selection"] != b["selection"]:
        problems.append(
            f"{what}: final selections differ ({len(a['selection'])} vs {len(b['selection'])} indexes)"
        )
    if result_key(a)[1] != result_key(b)[1]:
        problems.append(f"{what}: epoch outcomes differ")
    return problems


def answers_gate(answers, queries, budget):
    """Every what-if query is answered, at the budget it asked about."""
    problems = []
    if len(answers) != queries:
        problems.append(f"{len(answers)} answers to {queries} queries")
    prefix = f'{{"budget":{budget},'.encode()
    bad = sum(1 for _, line in answers if not line.startswith(prefix))
    if bad:
        problems.append(f"{bad} answers are not for budget {budget}")
    return problems
