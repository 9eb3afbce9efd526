"""The library's value types are validated tuple subclasses, as
`symfun.Partition` is: no instance dict, no field assignment, a
ClassName(field=value, ...) repr, equality and hash by the tuple of fields."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import thetacycles
from thetacycles.chow import ChowVector
from thetacycles.cycles import CleanCycleModel, CycleComponent
from thetacycles.lambdaring import FgAbelianGroup, GroupRingElement, TensorConstruction
from thetacycles.lierep import Character, WmfEntry, root_system
from thetacycles.schottky import GroupDescriptor, PpavInput
from thetacycles.symfun import SymExpr

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def _cm():
    return ChowVector(2, (2, Fraction(1, 2)))


def _theta():
    return CycleComponent("theta", dim=1, mult=1, cm=_cm(), gauss_finite=True)


# (builder, field names, repr): one instance of each type and its repr, the
# ClassName(field=value, ...) text that callers may already print
RECORDS = [
    (_cm, ("g", "coords"),
     "ChowVector(g=2, coords=(Fraction(2, 1), Fraction(1, 2)))"),
    (_theta, ("label", "dim", "mult", "cm", "gauss_finite"),
     "CycleComponent(label='theta', dim=1, mult=1, cm=ChowVector(g=2, coords=(Fraction(2, 1), "
     "Fraction(1, 2))), gauss_finite=True)"),
    (lambda: CleanCycleModel(2, [_theta()], fiber=GroupRingElement(
        FgAbelianGroup(1), {(1,): 1, (-1,): 1})),
     ("g", "components", "fiber"),
     "CleanCycleModel(g=2, components=(CycleComponent(label='theta', dim=1, mult=1, "
     "cm=ChowVector(g=2, coords=(Fraction(2, 1), Fraction(1, 2))), gauss_finite=True),), "
     "fiber=GroupRingElement(group=FgAbelianGroup(rank=1, torsion=()), "
     "coeffs={(-1,): 1, (1,): 1}))"),
    (lambda: FgAbelianGroup(1, [2]), ("rank", "torsion"),
     "FgAbelianGroup(rank=1, torsion=(2,))"),
    (lambda: GroupRingElement(FgAbelianGroup(1, (2,)), {(1, 3): 2, (0, 1): 1}),
     ("group", "coeffs"),
     "GroupRingElement(group=FgAbelianGroup(rank=1, torsion=(2,)), "
     "coeffs={(0, 1): 1, (1, 1): 2})"),
    (lambda: TensorConstruction.schur((2, 1), TensorConstruction.var(0)),
     ("kind", "children", "index", "alpha"),
     "TensorConstruction(kind='schur', children=(TensorConstruction(kind='var', children=(), "
     "index=0, alpha=None),), index=None, alpha=(2, 1))"),
    (lambda: Character(root_system("A1"), {(1,): 1, (-1,): 1}), ("rs", "weights"),
     "Character(rs=RootSystem(A1), weights={(1,): 1, (-1,): 1})"),
    (lambda: WmfEntry("A", 1, (1,), 2, True, False, "symplectic", "A-std", "SL2"),
     ("letter", "rank", "weight", "dim", "minuscule", "quasi_minuscule", "fs", "family",
      "group"),
     "WmfEntry(letter='A', rank=1, weight=(1,), dim=2, minuscule=True, quasi_minuscule=False, "
     "fs='symplectic', family='A-std', group='SL2')"),
    (lambda: SymExpr({(2,): Fraction(1, 2), (1, 1): 1}), ("terms",),
     "SymExpr(terms={(2,): Fraction(1, 2), (1, 1): Fraction(1, 1)})"),
    (lambda: PpavInput(5, k=2),
     ("g", "k", "symmetric", "double_points_sum_zero", "pairwise_torsion_independent",
      "gauss_finite"),
     "PpavInput(g=5, k=2, symmetric=True, double_points_sum_zero=False, "
     "pairwise_torsion_independent=True, gauss_finite=False)"),
    (lambda: GroupDescriptor("Sp", size=4, note="n"), ("family", "size", "note"),
     "GroupDescriptor(family='Sp', size=4, note='n')"),
]


@pytest.mark.parametrize("build, names, text", RECORDS,
                         ids=[text.partition("(")[0] for _, _, text in RECORDS])
def test_record(build, names, text):
    x = build()
    assert type(x).__slots__ == ()
    assert not hasattr(x, "__dict__")
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    assert repr(x) == text
    fields = tuple(getattr(x, name) for name in names)
    assert x == build() == type(x)(*fields) == fields
    try:
        hash(fields)
    except TypeError:  # a dict field
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(fields)


def test_every_public_name_imports():
    assert all(hasattr(thetacycles, name) for name in thetacycles.__all__)


def test_cli_loads_no_dataclasses_or_inspect():
    # -S: the interpreter's site packages may import either on their own
    child = ("import sys, thetacycles.cli as cli; cli.build_parser(); "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", child], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")
