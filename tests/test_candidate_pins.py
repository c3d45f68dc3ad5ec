"""Every candidate kernel's output codes and op counts on fixed integer
codes, pinned: a refactor of a kernel must reproduce both exactly.

The inputs are integer codes and exactly representable parameters, so the
pins do not depend on the numpy or BLAS build.
"""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

import intquant.pipeline as pl
from intquant.model import CANDIDATE_POOLS, CANDIDATES, Op
from intquant.quantize import QParams, QTensor
from intquant.softmax import softmax_out_params
from intquant.tensor import OpCounter


def _codes(shape, qmax, salt):
    """Fixed codes in [0, qmax], spread by a multiplicative hash."""
    n = np.arange(int(np.prod(shape)), dtype=np.int64)
    return ((n * 40503 + salt) % (qmax + 1)).reshape(shape)


def _softmax_input():
    # 12-bit scores on 2^-8: rows span about 16 in value; row 1 is constant
    # and row 2 holds one dominant code
    p = QParams(1.0 / (1 << 8), 0, 12, "asymmetric")
    codes = _codes((2, 4, 16), p.qmax, 7)
    codes[0, 1] = 1000
    codes[0, 2] = 0
    codes[0, 2, 5] = p.qmax
    return QTensor(codes, p)


_GELU_IN = QParams(0.04, 120, 8, "asymmetric")
_GELU_OUT = QParams(0.025, 10, 8, "asymmetric")
_LN_IN = QParams(0.05, 128, 8, "asymmetric")
_LN_OUT = QParams(0.02, 128, 8, "asymmetric")
_GAMMA = (np.arange(16) % 5 + 3) / 4.0
_BETA = (np.arange(16) % 7 - 3) / 8.0


# kind -> (input codes, output grid)
_CASE = {
    "softmax": lambda: (_softmax_input(), softmax_out_params(8)),
    "gelu": lambda: (QTensor(np.arange(256, dtype=np.int64).reshape(4, 64), _GELU_IN),
                     _GELU_OUT),
    "layernorm": lambda: (QTensor(_codes((4, 8, 16), 255, 3), _LN_IN), _LN_OUT),
}


def _run(kind, candidate, degree, counter):
    # bound as its table entry binds a layer of the kind, at Taylor degree ``degree``
    op = Op("layer", kind, ("x",), ("gamma", "beta"))
    params = CANDIDATES[candidate].params(op, {"gamma": _GAMMA, "beta": _BETA},
                                          pl.PipelineConfig(taylor_degree=degree))
    return pl.run_candidate(candidate, *_CASE[kind](), counter, **params)


def _counts(adds, muls, divs, shifts, compares):
    return {"adds": adds, "muls": muls, "divs": divs, "shifts": shifts,
            "compares": compares, "float_violations": 0,
            "total": adds + muls + divs + shifts + compares}


# (kind, candidate, Taylor degree) -> (sha256 of the int64 output codes, counts)
PINS = {
    ("softmax", "efficient_bit_softmax", 1): (
        "2f482c161297fc1dd9e1d5e95a9af4df532a3ccf0deb42037d81e0aaa307a8c1",
        _counts(1272, 128, 8, 1152, 248)),
    ("softmax", "efficient_bit_softmax", 2): (
        "038d0acb315f2f1efe6aa7319119fb56db9b6a80d9079587a565c012620771d9",
        _counts(1400, 256, 8, 1280, 248)),
    ("softmax", "iexp_softmax", 1): (
        "573898350011f0e82d059b7542ffd864c1946794bdd114a4110f8012d793d0bb",
        _counts(888, 512, 136, 384, 248)),
    ("softmax", "log2_softmax", 1): (
        "26ef4a02336ba07f3498065a678882b084845f11142bfc6b44e4eeb4b5c34558",
        _counts(888, 640, 128, 821, 941)),
    ("softmax", "shiftmax", 1): (
        "a748bf12b890b0a0aceb39c434444f2a43eba62f9dc7b4dc3ad39262b819deaa",
        _counts(1016, 128, 8, 896, 248)),
    ("gelu", "data_aware_poly_gelu", 1): (
        "06a0454659db591bb7d7650fd328f55f1aebd618ba76465057d2b33632deb4fd",
        _counts(2560, 1792, 0, 1024, 1536)),
    ("gelu", "ibert_gelu", 1): (
        "ab5a477c0ddded2358e5eeb5d7b59e95a5c4590d98bb380ee817faad2fe2ff69",
        _counts(2560, 1536, 0, 1280, 1536)),
    ("gelu", "shift_gelu", 1): (
        "538a920c1fb45e8cd391ee0af897058d9bc0a1a073aa7afab59b5fa663bd2acb",
        _counts(5632, 1024, 256, 4608, 1280)),
    ("layernorm", "bitshift_newton", 1): (
        "d0ba055e2ba792a00685a958a39bfcea62177c116cfe74a73292d64f8827feff",
        _counts(3684, 2112, 644, 1828, 1220)),
    ("layernorm", "log2_scale", 1): (
        "1120fe162bae14e5684cb7155e97d5773bf0de9c658d8a4ef23f761ef2c677ba",
        _counts(3684, 1600, 644, 1828, 1220)),
    ("layernorm", "poly_sqrt", 1): (
        "d0ba055e2ba792a00685a958a39bfcea62177c116cfe74a73292d64f8827feff",
        _counts(3736, 2144, 632, 1496, 1208)),
}


def test_pools_are_the_tables_names_in_their_order():
    # pool order is the order of stage 1's table and of the metrics CSV
    assert CANDIDATE_POOLS == {
        "softmax": ("efficient_bit_softmax", "iexp_softmax", "log2_softmax", "shiftmax"),
        "gelu": ("data_aware_poly_gelu", "ibert_gelu", "shift_gelu"),
        "layernorm": ("bitshift_newton", "log2_scale", "poly_sqrt"),
    }
    assert list(CANDIDATE_POOLS) == ["softmax", "gelu", "layernorm"]
    assert {c.kind for c in CANDIDATES.values()} <= {"softmax", "gelu", "layernorm"}


def test_the_benchmarks_candidate_list_is_the_pools():
    # bench/run.py names its per-candidate metrics from its own copy of the
    # pools; a candidate missing there would drop out of its trace unseen.
    # The literal is read from the source, so bench is not imported.
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "run.py").read_text())
    [literal] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["CANDIDATES"]]
    bench = ast.literal_eval(literal)
    assert bench == CANDIDATE_POOLS and list(bench) == list(CANDIDATE_POOLS)


def test_pins_cover_every_candidate():
    want = {(kind, cand) for kind, cands in CANDIDATE_POOLS.items() for cand in cands}
    assert {(kind, cand) for kind, cand, _ in PINS} == want
    assert ("softmax", "efficient_bit_softmax", 2) in PINS


@pytest.mark.parametrize("kind, candidate, degree", list(PINS))
def test_candidate_codes_and_op_counts_are_pinned(kind, candidate, degree):
    counter = OpCounter()
    out = _run(kind, candidate, degree, counter)
    codes = np.ascontiguousarray(out.codes, dtype="<i8")
    digest, counts = PINS[kind, candidate, degree]
    assert hashlib.sha256(codes.tobytes()).hexdigest() == digest
    assert counter.as_dict() == counts
