"""Internal checks are explicit raises: they also run under ``python -O``.

``assert`` statements vanish under ``-O``, so the library has none; its
bug traps raise ``AssertionError`` (or a library error) explicitly.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from latmodel import chains, deform, invariants
from latmodel.chains import enumerate_chains
from latmodel.errors import InvalidInput
from latmodel.scalars import prime_field
from latmodel.umod import Subspace, UVec

SRC = Path(__file__).parent.parent / "src"


def test_no_assert_statements_in_library():
    offenders = []
    for path in sorted((SRC / "latmodel").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert offenders == []


def _expect(exc, fn, *args):
    try:
        fn(*args)
    except exc:
        return
    raise RuntimeError(f"{fn.__name__} did not raise {exc.__name__}")


def run_checks():
    """Each internal check fires on input built to violate it."""
    F2 = prime_field(2)
    # hodge rejects a subspace that is not u-stable
    not_stable = Subspace.span(F2, 2, [UVec.monomial(F2, 2, 1, 0)])
    _expect(InvalidInput, invariants.hodge, not_stable)
    chain = next(
        c for c in enumerate_chains(3, F2) if invariants.hodge(c.top) != (3, 0)
    )
    # the census walk: an inserted vector must lead with 1, and a vector
    # below the top has no u^0 term (the socle trap: test_chains.py)
    F3 = prime_field(3)
    _expect(
        AssertionError, chains._insert, Subspace.zero(F3, 2),
        UVec.monomial(F3, 2, 1, 1, c=2),
    )
    e1 = UVec.monomial(F2, 2, 1, 0)
    _expect(
        AssertionError, chains._child_socle, [], Subspace.span(F2, 2, [e1]), e1
    )
    saved = (
        invariants.block_partition,
        invariants.mi_vanishes,
        Subspace.__dict__["module_span"],
    )
    try:
        # one block of size 4 for the full E_2 (truly [2, 2]) breaks the
        # rank identity at k = 1
        invariants.block_partition = lambda small, big: [big.dim]
        _expect(AssertionError, invariants.hodge, Subspace.full(F2, 2))
        invariants.block_partition = saved[0]
        # lambda != (3,0) with T forced empty breaks lambda = (e,0) iff T empty
        invariants.mi_vanishes = lambda chain, i: False
        _expect(AssertionError, invariants.stratum_label, chain)
        invariants.mi_vanishes = saved[1]
        # a wrong module span makes the adapted-basis reconstruction fail
        Subspace.module_span = classmethod(lambda cls, ctx, N, vecs: cls.zero(ctx, N))
        _expect(AssertionError, deform._snf_adapted, chain.top)
    finally:
        (
            invariants.block_partition,
            invariants.mi_vanishes,
            Subspace.module_span,
        ) = saved


def test_checks_raise():
    run_checks()


def test_checks_raise_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-O", __file__], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


if __name__ == "__main__":
    run_checks()
    print("ok")
