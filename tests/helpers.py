"""Shared test helpers."""

import os
import random
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import matchfields.groebner as groebner
from matchfields import Monomial, Polynomial, xvar, yvar

ROOT = Path(__file__).resolve().parents[1]
MEMORY_LIMIT = 2 << 30

# verify_theorem_main's one residual on (4,) under leave_the_first_s_pair_unreduced:
# the S-polynomial of minors #2 and #3 itself.
INJECTED_RESIDUAL = (
    "S-pair of minors #2 and #3 leaves the nonzero residual "
    "x1*x3*y2*z4 - x1*x3*y4*z2 - x1*x4*y2*z3 + x1*x4*y3*z2 "
    "- x2*x3*y1*z4 + x2*x3*y4*z1 + x2*x4*y1*z3 - x2*x4*y3*z1"
)


def leave_the_first_s_pair_unreduced(monkeypatch):
    """Make the first normal form the division computes return its input
    unreduced, as a basis that is not Groebner would; the maximal minors
    always are one, so the failure branch is reached only this way."""
    normal_form = groebner._Divider.normal_form
    calls = []

    def first_unreduced(self, work):
        calls.append(None)
        return dict(work) if len(calls) == 1 else normal_form(self, work)

    monkeypatch.setattr(groebner._Divider, "normal_form", first_unreduced)


def composition(n, cuts):
    """The composition of n that is cut after its (i + 1)-th unit wherever
    bit i of cuts is set."""
    parts, last = [], 1
    for i in range(n - 1):
        if cuts >> i & 1:
            parts.append(last)
            last = 1
        else:
            last += 1
    parts.append(last)
    return tuple(parts)


def all_compositions(n):
    """Every composition of n, in the order of the bitmask of its cuts."""
    return (composition(n, cuts) for cuts in range(1 << (n - 1)))


def recipe_polynomial(m):
    """The seeded test polynomial with m terms: random.Random(1) draws
    distinct monomials over x1..x4, y1..y4, each exponent randint(0, 2), all
    with coefficient 1."""
    variables = [xvar(i) for i in range(1, 5)] + [yvar(i) for i in range(1, 5)]
    rng = random.Random(1)
    monos = []
    while len(monos) < m:
        mono = Monomial(4, {v: rng.randint(0, 2) for v in variables})
        if mono not in monos:
            monos.append(mono)
    return Polynomial.from_terms(4, [(1, mono) for mono in monos])


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _run(args, src, timeout):
    """(exit code, output) of python args run from the repository root with
    src first on the path; the exit code is None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
        preexec_fn=_limit_memory,
    ) as proc:
        try:
            output = proc.communicate(timeout=timeout)[0]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            return None, proc.communicate()[0]
        return proc.returncode, output


def run_tests_on_a_copy(tmp, tests, timeout, file=None, text=None):
    """(exit code, output) of pytest -q -x over the named tests against a
    copy of src/ made in tmp, with file (a path such as
    src/matchfields/groebner.py) rewritten to text when one is given; the
    exit code is None on a timeout.

    The copy holds no byte code, and matchfields must import from it before
    the file is rewritten.  Each process runs in its own session with a
    2 GiB address-space limit, and one that times out is killed with its
    children.
    """
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    init = str(src / "matchfields" / "__init__.py")
    code, output = _run(["-c", f"import matchfields, sys; sys.exit(matchfields.__file__ != {init!r})"], src, 60)
    if code != 0:
        raise RuntimeError(f"matchfields does not import from the copy of src/ in {tmp}\n{output}")
    if file is not None:
        (Path(tmp) / file).write_text(text)
    return _run(["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests], src, timeout)
