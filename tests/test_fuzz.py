"""The parser and every scenario command under mutated scenario documents.

Each example takes a shipped scenario, or the text form of a scenario that
``reproduce`` runs, and mutates it: a number set to 0, to a tiny or huge
value of either sign, or to ``nan``/``inf`` text; a key line or a whole
section dropped or duplicated; a section moved before another. The text is
then parsed, and run through ``cli.main`` in process: ``run`` with
``--trace`` and ``--summary``, ``run`` under the sequential schedule with
either policy, and ``tune-pricing``, ``remove-loop`` and ``sweep-lambda``
with valid flags. The contract: ``parse_scenario`` returns or raises
``ScenarioFormatError``; a command exits 0, or 1 with either exactly one
``error:`` line on stderr or, for a scenario that parses, the command's own
report that it fell short (a run that did not converge, a coefficient not
achieved, every user removed, a sweep point that did not converge); nothing
else raises and nothing warns.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import pytest
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
        elif kind == "move section" and sections:
            # Section k % n, moved to place (k // n) % n among the n sections.
            n = len(sections)
            blocks = [[lines[i] for i in span] for span in sections]
            blocks.insert((k // n) % n, blocks.pop(k % n))
            lines = lines[: sections[0][0]] + [line for block in blocks for line in block]
        elif sections:
            span = sections[k % len(sections)]
            block = [lines[i] for i in span]
            lines[span[0] : span[-1] + 1] = [] if kind == "drop section" else block + block
    return "\n".join(lines) + "\n"


MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["number", "number", "number", "drop key", "repeat key", "drop section", "repeat section", "move section"]
        ),
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


def check_command(source, mutations, command, fell_short):
    """Mutate the source and hold ``command(path, tmp)``'s argv on it to the contract.

    ``fell_short(stdout)`` tells whether an exit 1 with nothing on stderr is
    the command's own report of a parsed scenario falling short.
    """
    text = mutate(source, mutations)
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("error")
        try:
            parse_scenario(text)
            parsed = True
        except ScenarioFormatError:
            parsed = False
        path = Path(tmp) / "mutated.scn"
        path.write_text(text)
        code, out, err = run_cli(command(str(path), Path(tmp)))
    assert code in (0, 1)
    if code == 0:
        assert parsed and err == ""
    elif err:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert parsed and fell_short(out)


def not_converged(out):
    return "converged = false\n" in out


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SOURCES), MUTATIONS)
def test_a_mutated_scenario_parses_or_is_refused_and_runs_cleanly(source, mutations):
    check_command(
        source,
        mutations,
        lambda path, tmp: ["run", path, "--trace", str(tmp / "t.csv"), "--summary", str(tmp / "s.txt")],
        not_converged,
    )


# Each command with valid flags, and how it reports falling short on exit 1.
COMMANDS = {
    "run seq clamp": (
        lambda path, tmp: ["run", path, "--schedule", "seq", "--policy", "clamp"],
        not_converged,
    ),
    "run seq kkt": (
        lambda path, tmp: ["run", path, "--schedule", "seq", "--policy", "kkt", "--summary", str(tmp / "s.txt")],
        not_converged,
    ),
    "tune-pricing": (
        lambda path, tmp: ["tune-pricing", path, "--max-steps", "3", "--summary", str(tmp / "s.txt")],
        lambda out: out.startswith("tune-pricing: not-achieved "),
    ),
    "remove-loop": (
        lambda path, tmp: ["remove-loop", path],
        lambda out: "empty network: every user was removed\n" in out,
    ),
    "sweep-lambda": (
        lambda path, tmp: ["sweep-lambda", path, "--from", "1e-6", "--to", "1e-3", "--steps", "3"],
        lambda out: any(line.endswith(",false") for line in out.splitlines()),
    ),
}


@pytest.mark.parametrize("name", COMMANDS)
@settings(max_examples=50, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(source=st.sampled_from(SOURCES), mutations=MUTATIONS)
def test_every_command_serves_or_refuses_a_mutated_scenario(name, source, mutations):
    check_command(source, mutations, *COMMANDS[name])
