"""Fuzz test of the command line, driven by its option table.

For each subcommand, on a tiny simulated series, hypothesis draws one
option of ``cli._COMMANDS`` and a value for it: in range, non-finite, a
bool, of the wrong type, or out of range by the option's own ``errors``
rule; or it draws a key no option has.  Other options may be given too,
each in range.  The drawn value goes in as a flag and in a ``--config``
file.  Whatever is drawn, a run exits 0, 2, 3 or 4 and no traceback
escapes ``main``; a bad value exits 2 naming ``key (--flag)`` and writes
nothing; exit 4 never ends by quoting a number the run was given, as a
library's argument rule would; and where the config holds what the
flag's text reads as, both forms print the same and write byte-identical
artifacts.
"""

import contextlib
import functools
import inspect
import io
import json
import math
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdsmooth import pool
from jdsmooth.cli import _COMMANDS, _flag, main
from jdsmooth.errors import FINITE, checked, checked_list, is_number

# the numbers in-range and out-of-range values are drawn from: small, so
# that a drawn count, horizon or bandwidth keeps a run to milliseconds
NUMBERS = (-1, -0.1, 0, 0.05, 0.1, 0.5, 1, 2, 3, 10)
NON_FINITE = ("nan", "inf", "-inf")

# what every run of a command is given besides the drawn option
BASE = {
    "simulate": {"T": "1", "n": "50"},
    "mc-table": {
        "T": "1", "n": "100", "replicates": "2", "mse_grid_size": "3",
        "eval_points": "0.1", "fixed_h": "0.2",
    },
}
SERIES_COMMANDS = ("estimate", "bandwidth", "ci", "jumptest")
# each mode of a command is a run of its own, in which the options the
# mode reads are always given (in range, unless drawn as the option)
MODES = {
    "bandwidth": {
        "rule-of-thumb": ("c", "horizon", "regime"),
        "block-cv": ("h_grid", "k", "family"),
        "plugin": ("x", "target", "tau"),
    },
    "mc-table": {
        "mse": (),
        "coverage": ("alpha", "tau"),
        "adjusted-length": ("alpha",),
    },
}
MODE_KEYS = {"bandwidth": "method", "mc-table": "experiment"}
RUNS = [
    pytest.param(command, mode, id=f"{command}-{mode}" if mode else command)
    for command in sorted(_COMMANDS)
    for mode in MODES.get(command, [None])
]


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    argv = ["simulate", "--out", str(out), "--T", "2", "--n", "200", "--seed", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return out / "path.csv"


def _rule(o):
    """(rule, integer, is a list, distinct) of a number or list option; the
    rule is None for a list whose check is not ``checked_list`` (a
    percentile pair).  None for a text, switch or choice option."""
    if isinstance(o.parse, functools.partial) and o.parse.func is checked:
        kw = o.parse.keywords
        return kw.get("rule", FINITE), kw.get("integer", False), False, False
    check = inspect.getclosurevars(o.parse).nonlocals.get("check")
    if check is None:
        return None
    if isinstance(check, functools.partial) and check.func is checked_list:
        kw = check.keywords
        return kw.get("rule", FINITE), False, True, kw.get("distinct", False)
    return None, False, True, False


def _text(v) -> str:
    return str(v) if isinstance(v, int) else repr(float(v))


def _read_as(v, integer: bool):
    """The config value a flag's text ``_text(v)`` reads as."""
    return v if integer and isinstance(v, int) else float(v)


def _in_range(v, rule, integer) -> bool:
    return is_number(v, integer) and rule[1](v)


# a draw is (flag text or None, config value, bad): ``bad`` is True where
# the option's check must reject the value, False where the value is in
# range and None where the test has no rule to tell; a flag text of None
# means the value has no flag form
CASES = ("in", "out", "nan", "bool", "type")


def _text_values(key, series, out):
    """In-range values of a text option: a series file (present or not), a
    directory, a column name (present or not)."""
    return {
        "input": [str(series), str(series.parent / "missing.csv")],
        "out": [str(out)],
        "value_column": ["y", "t", "zz"],
        "time_column": ["t", "none", "zz"],
    }[key]


@st.composite
def _number_value(draw, case, rule, integer):
    good = [v for v in NUMBERS if _in_range(v, rule, integer)]
    bad = [v for v in NUMBERS if not _in_range(v, rule, integer)]
    if case == "in" or (case == "out" and bad):
        v = draw(st.sampled_from(good if case == "in" else bad))
        return _text(v), _read_as(v, integer), case != "in"
    if case == "bool":
        return None, draw(st.booleans()), True
    if case == "type":
        wrong = [("abc", "abc"), (None, [1]), (None, {"a": 1})]
        return draw(st.sampled_from(wrong)) + (True,)
    text = draw(st.sampled_from(NON_FINITE))
    return text, float(text), True


@st.composite
def _list_value(draw, case, rule, distinct):
    if case == "bool":
        return None, draw(st.booleans()), True
    if case == "type":
        wrong = [("abc", "abc"), (None, {"a": 1}), (None, [True]), (None, 7)]
        return draw(st.sampled_from(wrong)) + (True,)
    good, bad = list(NUMBERS), []
    if rule is not None:
        good = [v for v in NUMBERS if _in_range(v, rule, False)]
        bad = [v for v in NUMBERS if not _in_range(v, rule, False)]
    items = draw(st.lists(st.sampled_from(good), min_size=1, max_size=3,
                          unique_by=float if distinct else None))
    verdict = None if rule is None else case != "in"
    if case == "out" and distinct and draw(st.booleans()):
        items.append(items[0])
        verdict = True
    elif case == "out" and bad:
        items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from(bad)))
    elif case != "in":
        items.append(draw(st.sampled_from(NON_FINITE)))
        verdict = True
    text = ",".join(v if isinstance(v, str) else _text(v) for v in items)
    if draw(st.booleans()):
        # the JSON list a config file may hold instead of the text
        return None, [float(v) for v in items], verdict
    return text, text, verdict


@st.composite
def _value(draw, o, case, series, out):
    """A draw of ``case`` (one of CASES) for option ``o``; a case a text,
    switch or choice option cannot take is a value of the wrong type."""
    wrong = st.sampled_from([1, True, [1], {"a": 1}])
    if o.choices is not None:
        if case == "in":
            name = draw(st.sampled_from(list(o.choices)))
            return name, name, False
        if draw(st.booleans()):
            return "bogus", "bogus", True
        return None, draw(wrong), True
    if o.kind is None:  # an on/off switch
        if case == "in":
            on = draw(st.booleans())
            return ("" if on else "no-"), on, False
        return None, draw(st.sampled_from(["no", 1, [True]])), True
    rule = _rule(o)
    if rule is None:
        if case == "in":
            v = draw(st.sampled_from(_text_values(o.key, series, out)))
            return v, v, False
        return None, draw(wrong), True
    rule, integer, is_list, distinct = rule
    if is_list:
        return draw(_list_value(case, rule, distinct))
    return draw(_number_value(case, rule, integer))


def _given(*values) -> set:
    """How a rule's message (``... got {v!r}``) would quote each nonzero
    finite number among option values: texts, numbers and lists of them."""
    pieces = []
    for v in values:
        if isinstance(v, str):
            pieces += v.split(",")
        else:
            pieces += v if isinstance(v, list) else [v]
    quoted = set()
    for piece in pieces:
        try:
            x = float(piece)
        except (TypeError, ValueError):
            continue
        if x and math.isfinite(x):
            quoted.add(repr(x))
            if x.is_integer():
                quoted.add(str(int(x)))
    return quoted


def _run(argv, out: Path, given=frozenset()):
    """Exit code, stdout, stderr and the artifacts ``main(argv)`` wrote
    under ``out`` (then removed); ``given`` is ``_given`` of the run's
    option values."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    files = {}
    if out.exists():
        files = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }
        shutil.rmtree(out)
    err = stderr.getvalue()
    assert rc in (0, 2, 3, 4), (argv, rc, err)
    assert "Traceback" not in err, err
    if rc == 4:
        # a library rule rejecting a value the user gave is a configuration
        # error (exit 2), not a numerical failure
        assert not any(err.rstrip().endswith(f"got {x}") for x in given), err
    return rc, stdout.getvalue(), err, files


def _flags(values: dict) -> list:
    argv = []
    for key, text in values.items():
        if text in ("", "no-"):  # a switch
            argv.append(f"--{text}{_flag(key)[2:]}")
        else:
            argv += [_flag(key), text]
    return argv


@pytest.mark.parametrize("command, mode", RUNS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_drawn_option_values_exit_cleanly_in_either_form(series, command, mode, data):
    options = _COMMANDS[command][2]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(pool, "usable_cpus", return_value=1):
        tmp = Path(tmp)
        out = tmp / "out"
        base = dict(BASE.get(command, {}), out=str(out))
        if command in SERIES_COMMANDS:
            base.update(input=str(series), delta="0.01")
        reads = ()
        if mode:
            base[MODE_KEYS[command]] = mode
            reads = MODES[command][mode]
        conf = tmp / "conf.json"

        key = data.draw(st.sampled_from(sorted(options) + ["no_such_option"]))
        # options the base leaves open, in range, as context; the smallest
        # in-range number is drawn first, so boundaries are reached early
        for k, o in options.items():
            if k in base or k == key:
                continue
            if k in reads or data.draw(st.booleans()):
                text, _, bad = data.draw(_value(o, "in", series, out))
                if text is not None and bad is False:
                    base[k] = text
        if key not in options:
            conf.write_text(json.dumps({key: 1}))
            rc, _, err, files = _run([command, "--config", str(conf),
                                      *_flags(base)], out)
            assert (rc, files) == (2, {}) and f"unknown config key {key!r}" in err
            rc, _, err, files = _run([command, *_flags(base), _flag(key), "1"], out)
            assert (rc, files) == (2, {}) and _flag(key) in err
            return

        case = data.draw(st.sampled_from(CASES))
        text, value, bad = data.draw(_value(options[key], case, series, out))
        rest = {k: v for k, v in base.items() if k != key}
        given = _given(value, *rest.values())
        conf.write_text(json.dumps({key: value}))
        by_config = _run([command, "--config", str(conf), *_flags(rest)], out, given)
        if bad:
            rc, _, err, files = by_config
            assert (rc, files) == (2, {}), (key, value, err)
            assert f"{key} ({_flag(key)})" in err, err
        if text is not None:
            by_flag = _run([command, *_flags(rest), *_flags({key: text})], out, given)
            assert by_flag == by_config, (key, text)
