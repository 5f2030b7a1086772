"""Every function, method and lambda in src/ runs on a product path.

One fresh interpreter, traced with call events only, imports the package and
runs through cli.main every golden command (test_golden.COMMANDS), every
--help page (HELP_PAGES), every usage-error probe (USAGE_ERRORS) and the
two p = 1 queries, which take the smooth and empty-sum branches.  Each
function, method and lambda compiled from the package's sources must have
been called there, except the members in EXEMPT, each with the reason it
has no caller on those paths; and no member in EXEMPT may have been called
there, so an exemption that a product path has made needless fails.  Code
objects are matched by module, first line (a decorated function's is its
decorator's) and name.  A member that only the tests call belongs in
tests/oracles.py, not in src/."""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import orbifold_index
from test_golden import COMMANDS, HELP_PAGES, USAGE_ERRORS

PACKAGE = Path(orbifold_index.__file__).parent

QUERIES = [*COMMANDS.values(), *USAGE_ERRORS.values(),
           ["--json", "index", "--chi", "2", "--tau", "0", "--sigma-chi", "2", "--sigma-sq", "0",
            "--p", "1", "--duality", "asd", "--route", "both"],
           ["--json", "correction", "--p", "1"],
           *([*argv, "--help"] for argv in HELP_PAGES)]

EXEMPT = {
    "scalars._Scalar.__reduce__": "pickle and copy",
    "scalars._Scalar.__setattr__": "immutability guard",
    "scalars._Scalar.__delattr__": "immutability guard",
    "scalars._Scalar.__hash__": "hash protocol: no scalar is a dict key or set member",
    "scalars._Record.__hash__": "hash protocol: no record is a dict key or set member",
    "scalars._Record.__repr__": "repr protocol",
    "scalars._Record.__setattr__": "immutability guard",
    "scalars._Record.__delattr__": "immutability guard",
    "scalars._Record.__reduce__": "pickle and copy",
    "scalars.Cyclotomic.__repr__": "repr protocol",
    "scalars.Laurent.as_rational":
        "_Scalar.__eq__ and __hash__ read it on unequal or hashed values, which never meet",
    "scalars.Laurent.__repr__": "repr protocol, and the text of a failed check",
    "applications.orientable_verdict": "the nonexistence corollary, which no command reaches yet",
}

# runs in the fresh interpreter: QUERIES on stdin, the (file, first line,
# name) of every code object called under the package's directory on stdout
_TRACED_RUN = r"""
import contextlib, io, json, os, sys

called = {}


def record(frame, event, arg):  # a global trace function sees call events only
    called[id(frame.f_code)] = frame.f_code


queries = json.load(sys.stdin)
sys.settrace(record)
import orbifold_index.cli as cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in queries:
        try:
            cli.main(argv)
        except SystemExit:  # --help
            pass
sys.settrace(None)
root = os.path.dirname(cli.__file__) + os.sep
print(json.dumps(sorted({(os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
                         for c in called.values() if c.co_filename.startswith(root)})))
"""


def _is_member(name):
    """Functions, methods and lambdas: not a module body or a comprehension,
    which 3.12 mostly compiles inline."""
    return not name.startswith("<") or name == "<lambda>"


def defined_members():
    """{(file name, first line, name): qualified name} of every function,
    method and lambda compiled from the package's sources."""
    members = {}

    def walk(code, path, prefix):
        for c in code.co_consts:
            if not isinstance(c, types.CodeType):
                continue
            name = prefix + c.co_name
            if not c.co_flags & inspect.CO_OPTIMIZED:  # a class body
                walk(c, path, name + ".")
                continue
            if _is_member(c.co_name):
                members[(path.name, c.co_firstlineno, c.co_name)] = name
            walk(c, path, name + ".<locals>.")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path, path.stem + ".")
    return members


def called_members():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN], input=json.dumps(QUERIES),
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    return {tuple(key) for key in json.loads(proc.stdout) if _is_member(key[2])}


def test_every_member_of_src_runs_on_a_product_path():
    members = defined_members()
    assert set(EXEMPT) <= set(members.values()), "an exemption names no member"
    called = called_members()
    uncalled = sorted(name for key, name in members.items()
                      if key not in called and name not in EXEMPT)
    assert not uncalled, f"only the tests call {uncalled}"
    needless = sorted(name for key, name in members.items() if key in called and name in EXEMPT)
    assert not needless, f"a product path calls the exempt {needless}"
