"""Mutation fuzzing of the command-line input boundary, and a sweep of
every command over small and zero dimensions.

A valid gen, solve or rcl payload with one entry, a leaf or a whole
record, replaced by an odd value or deleted is fed to a command that
reads it, in-process.  Each run
must end with an exit code of 0, 1, 2 or 3 and at most one line on
stderr; nothing may raise out of main, numpy warnings included (they
would print a second line).  The sweep holds every command to the same
rule at the CLI's least degree, for dims with an empty U, Y or F.
"""

import contextlib
import functools
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftkit.cli import main

DEGREE = "8"
# the command that writes each payload, and the commands that read it
READERS = {"gen": ("gen", "solve", "fiber"), "solve": ("verify",), "rcl": ("rcl",)}
LEAVES = (math.nan, math.inf, -math.inf, 1e308, -1e308, "x", None, [], 10 ** 400, True)
DELETE = object()


def _run(argv) -> tuple[int, str]:
    """(exit code, stderr) of main(argv); warnings raise, stdout is dropped."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = main(list(argv))
    return code, err.getvalue()


@functools.lru_cache(maxsize=None)
def _payload(cmd: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        assert _run(["--cmd", cmd, "--seed", "1", "--degree", DEGREE, "--out", out])[0] == 0
        with open(out, encoding="utf-8") as fh:
            return fh.read()


def _paths(node, path=()):
    """Every path to a dict entry or a list item below node, parents first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(payload, path, value):
    *parents, last = path
    node = payload
    for key in parents:
        node = node[key]
    if value is DELETE:
        # a list item is removed, so its list is one entry short
        del node[last]
    else:
        node[last] = value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(READERS)), st.data())
def test_a_mutated_payload_gives_an_exit_code_and_at_most_one_line(source, data):
    payload = json.loads(_payload(source))
    path = data.draw(st.sampled_from(list(_paths(payload))), label="path")
    _mutate(payload, path, data.draw(st.sampled_from(LEAVES + (DELETE,)), label="value"))
    cmd = data.draw(st.sampled_from(READERS[source]), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        inp = os.path.join(tmp, "in.json")
        with open(inp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code, err = _run(["--cmd", cmd, "--degree", DEGREE, "--in", inp,
                          "--out", os.path.join(tmp, "out.json")])
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) <= 1, err


@pytest.mark.parametrize("dims", ["0,0,0", "0,1,0", "1,0,0", "0,2,0", "1,1,0", "3,0,2"])
@pytest.mark.parametrize("cmd", ["gen", "solve", "verify", "fiber", "rcl", "modelspace",
                                 "selftest"])
def test_every_command_at_the_least_degree_gives_an_exit_code_and_at_most_one_line(cmd, dims):
    # verify reads what solve writes for the same dims
    argv = ["--cmd", cmd, "--dims", dims, "--degree", "4"]
    with tempfile.TemporaryDirectory() as tmp:
        if cmd == "verify":
            solved = os.path.join(tmp, "solve.json")
            assert _run(["--cmd", "solve", "--dims", dims, "--degree", "4", "--out", solved])[0] == 0
            argv += ["--in", solved]
        code, err = _run(argv + ["--out", os.path.join(tmp, "out.json")])
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) <= 1, err
