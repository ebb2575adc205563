"""The benchmark's tracer (perfbench/spans.py) patches and reads envlld names
from outside; a name it can no longer find reads 0 in a traced run instead of
failing.  These tests make a rename fail here instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from envlld import reps, sl3reps
from envlld.algebra import AlgebraSpec, sl2, sl3

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# deleted with the separate sl3 evaluation path; the tracer still lists it
_GONE = {("sl3reps", "Sl3Model.to_matrix")}


def _spanned():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANNED


def test_every_spanned_name_resolves():
    missing = []
    for modname, attr in _spanned():
        obj = importlib.import_module(f"envlld.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append((modname, attr))
    assert set(missing) <= _GONE, missing


@pytest.mark.parametrize("A", [sl2(), sl3()], ids=["sl2", "sl3"])
def test_caches_the_tracer_reads(A):
    assert isinstance(A._nf_cache, dict)
    assert isinstance(A._mono_cache, dict)
    assert callable(getattr(AlgebraSpec, "mono_mul", None))
    assert isinstance(sl3reps._IRREP_CACHE, dict)
    assert callable(getattr(reps.sl2_irrep, "cache_info", None))
