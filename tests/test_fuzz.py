"""The parser and ``run`` under mutated scenario documents.

Each example takes a shipped scenario, or the text form of a scenario that
``reproduce`` runs, and mutates it: a number set to 0, to a tiny or huge
value of either sign, or to ``nan``/``inf`` text; a key line or a whole
section dropped or duplicated. The text is then parsed, and run through
``cli.main`` in process with ``--trace`` and ``--summary``. The contract:
``parse_scenario`` returns or raises ``ScenarioFormatError``; ``run`` exits 0,
or 1 with either exactly one ``error:`` line on stderr or a summary of a run
that did not converge; nothing else raises and nothing warns.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from ratepower import reference
from ratepower.cli import main
from ratepower.scenario import ScenarioFormatError, parse_scenario, scenario_to_text

SHIPPED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))
REFERENCE = [
    scenario_to_text(s)
    for target in reference.REPRODUCE_TARGETS
    for s in reference._EXPERIMENTS[target]()[0]
]
SOURCES = list(dict.fromkeys([path.read_text() for path in SHIPPED] + REFERENCE))

EXTREMES = ("0", "1e-320", "-1e-320", "1e308", "-1e308", "nan", "inf", "-inf")
# A number in a value: not part of a name such as u3.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _sections(lines) -> list[list[int]]:
    # The line indices of each section, from its header to the next one.
    starts = [i for i, line in enumerate(lines) if line.lstrip().startswith("[")]
    return [list(range(a, b)) for a, b in zip(starts, starts[1:] + [len(lines)])]


def mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for kind, k, extreme in mutations:
        keys = [i for i, line in enumerate(lines) if "=" in line.partition("#")[0]]
        sections = _sections(lines)
        if kind == "number":
            spots = [
                (i, m.start(), m.end())
                for i in keys
                for m in NUMBER.finditer(lines[i], lines[i].index("=") + 1)
            ]
            if spots:
                i, a, b = spots[k % len(spots)]
                lines[i] = lines[i][:a] + extreme + lines[i][b:]
        elif kind in ("drop key", "repeat key") and keys:
            i = keys[k % len(keys)]
            lines[i : i + 1] = [] if kind == "drop key" else [lines[i]] * 2
        elif sections:
            span = sections[k % len(sections)]
            block = [lines[i] for i in span]
            lines[span[0] : span[-1] + 1] = [] if kind == "drop section" else block + block
    return "\n".join(lines) + "\n"


MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["number", "number", "number", "drop key", "repeat key", "drop section", "repeat section"]),
        st.integers(0, 10_000),
        st.sampled_from(EXTREMES),
    ),
    min_size=1,
    max_size=3,
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SOURCES), MUTATIONS)
def test_a_mutated_scenario_parses_or_is_refused_and_runs_cleanly(source, mutations):
    text = mutate(source, mutations)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            parse_scenario(text)
            refused = False
        except ScenarioFormatError:
            refused = True
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.scn"
            path.write_text(text)
            argv = ["run", str(path), "--trace", str(Path(tmp) / "t.csv"), "--summary", str(Path(tmp) / "s.txt")]
            code, out, err = run_cli(argv)
    assert code in (0, 1)
    if code == 0:
        assert not refused and err == ""
    elif err:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert not refused and "converged = false\n" in out
