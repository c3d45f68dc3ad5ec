import ast
import inspect
import math
import struct
import tracemalloc
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unittest import mock

from intquant import tensor as tensor_mod
from intquant.tensor import (IntegerViolation, KernelMath, KernelOverflowError,
                             OpCounter, StageBound, Tensor, TensorFormatError, _bit_length,
                             code_table, mul_bound, rng_tensor, tabulated, tensor_read,
                             tensor_write)

INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)


class TestFileFormat:
    def test_round_trip_small_real(self, tmp_path):
        t = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        path = tmp_path / "t.iptq"
        tensor_write(t, path)
        back = tensor_read(path)
        assert back.dims == (2, 2)
        assert back.dtype == "real32"
        np.testing.assert_array_equal(back.data, [1, 2, 3, 4])

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.iptq"
        path.write_bytes(b"XXXX" + bytes([1, 0, 1, 4, 0, 0, 0]) + b"\x00" * 16)
        with pytest.raises(TensorFormatError, match="offset 0"):
            tensor_read(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "bad.iptq"
        path.write_bytes(b"IPTQ" + bytes([1, 9, 1, 1, 0, 0, 0]) + b"\x00" * 4)
        with pytest.raises(TensorFormatError, match="offset 5"):
            tensor_read(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.iptq"
        path.write_bytes(b"IPTQ" + bytes([1, 0, 1, 4, 0, 0, 0]) + b"\x00" * 7)
        with pytest.raises(TensorFormatError, match="payload"):
            tensor_read(path)

    def test_write_read_write_byte_identical_random(self, tmp_path):
        rng = np.random.default_rng(42)
        for i in range(50):
            rank = int(rng.integers(1, 4))
            dims = [int(rng.integers(1, 6)) for _ in range(rank)]
            if rng.random() < 0.5:
                t = Tensor(rng.normal(size=dims).astype(np.float32))
            else:
                t = Tensor(rng.integers(-1000, 1000, size=dims).astype(np.int32))
            p1 = tmp_path / f"a{i}.iptq"
            p2 = tmp_path / f"b{i}.iptq"
            tensor_write(t, p1)
            tensor_write(tensor_read(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_int32_round_trip(self, tmp_path):
        t = Tensor(np.array([1, -2, 3], dtype=np.int32))
        path = tmp_path / "i.iptq"
        tensor_write(t, path)
        assert tensor_read(path) == t

    def test_extents_whose_product_wraps_int64(self, tmp_path):
        # 65536^4 = 2^64 wraps to 0 in int64, which matched the empty payload
        path = tmp_path / "huge.iptq"
        path.write_bytes(b"IPTQ" + bytes([1, 0, 4]) + struct.pack("<4I", *[1 << 16] * 4))
        with pytest.raises(TensorFormatError, match="payload"):
            tensor_read(path)


def _header(dtype: int, dims: list) -> bytes:
    return b"IPTQ" + bytes([1, dtype, len(dims)]) + struct.pack(f"<{len(dims)}I", *dims)


@st.composite
def _tensor_files(draw):
    """Raw bytes, a valid header with an arbitrary payload, or a valid file
    with bytes flipped or cut off."""
    kind = draw(st.sampled_from(["raw", "header", "mutated"]))
    if kind == "raw":
        return draw(st.binary(max_size=64))
    dims = draw(st.lists(st.integers(1, (1 << 32) - 1) if kind == "header"
                         else st.integers(1, 4), min_size=1, max_size=4))
    dtype = draw(st.integers(0, 1))
    if kind == "header":
        return _header(dtype, dims) + draw(st.binary(max_size=64))
    blob = bytearray(_header(dtype, dims) + bytes(4 * int(np.prod(dims))))
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob[:draw(st.integers(0, len(blob)))])


class TestReadContract:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_tensor_files())
    @example(_header(0, [1 << 16] * 4))
    def test_any_bytes_read_or_raise_format_error(self, tmp_path, blob):
        path = tmp_path / "fuzz.iptq"
        path.write_bytes(blob)
        try:
            t = tensor_read(path)
        except TensorFormatError:
            return
        assert len(blob) == 7 + 4 * len(t.dims) + 4 * t.data.size


class TestRng:
    def test_degenerate_uniform_is_zero(self):
        t = rng_tensor(7, [4], "uniform", 0.0, 0.0)
        np.testing.assert_array_equal(t.values, np.zeros(4, dtype=np.float32))

    def test_same_seed_same_tensor(self):
        a = rng_tensor(7, [32, 8], "normal", 0.0, 1.0)
        b = rng_tensor(7, [32, 8], "normal", 0.0, 1.0)
        assert a == b

    def test_different_seed_differs(self):
        a = rng_tensor(7, [64], "normal", 0.0, 1.0)
        b = rng_tensor(8, [64], "normal", 0.0, 1.0)
        assert a != b

    def test_law_of_large_numbers(self):
        t = rng_tensor(7, [100000], "normal", 0.0, 1.0)
        assert abs(float(t.values.mean())) < 0.02

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            rng_tensor(0, [4], "uniform", 2.0, 1.0)
        with pytest.raises(ValueError):
            rng_tensor(0, [4], "normal", 0.0, -1.0)
        with pytest.raises(ValueError):
            rng_tensor(0, [0], "normal", 0.0, 1.0)


class TestKernelMath:
    def test_float_array_rejected(self):
        km = KernelMath()
        with pytest.raises(IntegerViolation):
            km.add(np.array([1.0]), np.array([2]))
        assert km.counter.float_violations == 1

    def test_counts_deterministic(self):
        def run():
            km = KernelMath()
            x = np.arange(-8, 8)
            y = km.add(km.mul(x, 3), 1)
            km.sum(y)
            km.max(y)
            return km.counter.as_dict()

        assert run() == run()

    def test_negative_rshift_floor_semantics(self):
        km = KernelMath()
        out = km.rshift(np.array([-63, -1, 7], dtype=np.int64), 1)
        np.testing.assert_array_equal(out, [-32, -1, 3])

    def test_mul_overflow_guard(self):
        from intquant.tensor import KernelOverflowError
        km = KernelMath()
        big = np.array([1 << 40], dtype=np.int64)
        with pytest.raises(KernelOverflowError):
            km.mul(big, big)

    def test_lshift_overflow_guard(self):
        from intquant.tensor import KernelOverflowError
        km = KernelMath()
        with pytest.raises(KernelOverflowError):
            km.lshift(np.array([1 << 40], dtype=np.int64), 30)


class TestOverflowGuards:
    """The magnitude bound must see INT64_MIN, whose np.abs wraps to itself."""

    def test_mul_int64_min(self):
        with pytest.raises(KernelOverflowError):
            KernelMath().mul(np.array([INT64_MIN, 5], dtype=np.int64), 2)

    def test_lshift_int64_min(self):
        with pytest.raises(KernelOverflowError):
            KernelMath().lshift(np.array([INT64_MIN, 5], dtype=np.int64), 1)

    def test_matmul_int64_min(self):
        with pytest.raises(KernelOverflowError):
            KernelMath().matmul(np.array([[INT64_MIN, 1]], dtype=np.int64),
                                np.array([[1], [1]], dtype=np.int64))

    def test_magnitude_sees_int64_min(self):
        assert tensor_mod.magnitude(np.array([INT64_MIN, 5], dtype=np.int64)) == 1 << 63
        assert tensor_mod.magnitude(np.array([], dtype=np.int64)) == 0
        assert tensor_mod.magnitude(np.int64(-7)) == tensor_mod.magnitude(-7) == 7

    def test_scalar_operand_magnitude(self):
        with pytest.raises(KernelOverflowError):
            KernelMath().mul(np.array([3], dtype=np.int64), -(1 << 62))

    def test_zero_array_with_a_scalar_past_int64(self):
        # the product is 0, but numpy cannot take the scalar as an int64
        with pytest.raises(KernelOverflowError):
            KernelMath().mul(np.zeros(3, dtype=np.int64), 1 << 64)
        with pytest.raises(KernelOverflowError):
            KernelMath().mul(-(1 << 70), np.zeros(3, dtype=np.int64))

    def test_in_range_values_pass(self):
        km = KernelMath()
        np.testing.assert_array_equal(
            km.mul(np.array([-(1 << 31), 5], dtype=np.int64), -(1 << 30)),
            [1 << 61, -5 * (1 << 30)])
        np.testing.assert_array_equal(
            km.lshift(np.array([-(1 << 31), 0], dtype=np.int64), 31), [-(1 << 62), 0])


class TestClip:
    """KernelMath.clip matches np.clip, in value, dtype and op charge."""

    VALUES = np.array([INT64_MIN, INT64_MIN + 1, -5, 0, 7, INT64_MAX - 1, INT64_MAX],
                      dtype=np.int64)

    @pytest.mark.parametrize("lo, hi", [
        (0, 255), (INT64_MIN, INT64_MAX), (-1, -1), (INT64_MIN, 0), (0, INT64_MAX),
        (np.array([0, -7, INT64_MIN, 1, 2, 3, 4]), np.array([1, 7, 0, 1, 9, 3, INT64_MAX])),
        (-3, np.arange(7, dtype=np.int64)),
    ])
    def test_matches_np_clip(self, lo, hi):
        km = KernelMath()
        got = km.clip(self.VALUES, lo, hi)
        want = np.clip(self.VALUES, lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()
        assert km.counter.as_dict() == {**OpCounter().as_dict(), "compares": 14,
                                        "total": 14}

    def test_int32_codes_and_scalars(self):
        km = KernelMath()
        codes = np.array([[-3, 300], [12, 255]], dtype=np.int32)
        got = km.clip(codes, 0, 255)
        assert got.dtype == np.int64
        assert got.tolist() == np.clip(codes, 0, 255).tolist()
        assert int(km.clip(np.int64(INT64_MIN), 0, 9)) == 0
        assert km.counter.compares == 10


_A = np.array([INT64_MIN // 4, -(1 << 20) - 3, -7, -1, 0, 1, 5, 1 << 20, INT64_MAX // 4],
              dtype=np.int64)
_SMALL = np.array([-9, -3, -1, 0, 1, 2, 3, 8, 1 << 30], dtype=np.int64)
_SHIFTS = np.arange(9, dtype=np.int64)

# every elementwise method that takes out=, with int64 array, int32 array
# and scalar operands, broadcasting and a second operand that is the first
_OUT_CASES = {
    "add": (_A, _SMALL), "add_scalar_first": (3, _SMALL.astype(np.int32)),
    "sub": (_A, _SMALL), "sub_row": (_SMALL.reshape(3, 3), _SMALL[:3]),
    "mul": (_SMALL, -(1 << 20)), "mul_square": (_SMALL, _SMALL),
    "floordiv": (_A, 7), "floordiv_array": (_SMALL, np.where(_SMALL == 0, 5, _SMALL)),
    "rshift": (_A, _SHIFTS), "rshift_scalar": (_A, 3),
    "lshift": (_SMALL, 20), "lshift_array": (_SMALL, _SHIFTS),
    "rshift_round": (_A, 5), "rshift_round_nonpositive": (_SMALL, -3),
    "minimum": (_A, _SMALL), "maximum": (_A, -2),
    "clip": (_A, -5, 1 << 20), "clip_int32": (_SMALL.astype(np.int32), 0, 255),
    "rshift_round_add": (_A, 5, 7), "rshift_round_add_nonpositive": (_SMALL, -3, 7),
    "floordiv_rows": (_SMALL.reshape(3, 3), np.array([[7], [1], [3]]), 31),
}


class TestOutBuffers:
    """``out=`` gives the values and the op charge of the allocating call,
    and a method that raises writes nothing."""

    @staticmethod
    def _method(case):
        for name in ("rshift_round_add", "rshift_round", "floordiv_rows"):
            if case.startswith(name):
                return name
        return case.split("_")[0]

    @pytest.mark.parametrize("case", _OUT_CASES)
    def test_out_matches_the_allocating_call(self, case):
        args = _OUT_CASES[case]
        want_km, got_km = KernelMath(), KernelMath()
        want = getattr(want_km, self._method(case))(*args)
        out = np.full(np.shape(want), 99, dtype=np.int64)
        got = getattr(got_km, self._method(case))(*args, out=out)
        assert got is out and want.dtype == np.int64
        assert got.tolist() == want.tolist()
        assert got_km.counter.as_dict() == want_km.counter.as_dict()

    @pytest.mark.parametrize("case", [c for c, args in _OUT_CASES.items()
                                      if isinstance(args[0], np.ndarray)
                                      and args[0].dtype == np.int64
                                      and np.shape(args[0]) == np.broadcast_shapes(
                                          *(np.shape(a) for a in args))])
    def test_out_may_be_the_first_operand(self, case):
        a, *rest = _OUT_CASES[case]
        want = getattr(KernelMath(), self._method(case))(a, *rest)
        buf = a.copy()
        got = getattr(KernelMath(), self._method(case))(buf, *rest, out=buf)
        assert got is buf and got.tolist() == want.tolist()

    # floordiv_rows at 2^16 elements divides by reciprocals, which hold the
    # numerators' sign mask beside the result
    @pytest.mark.parametrize("case", [c for c in _OUT_CASES
                                      if c not in ("add_scalar_first", "sub_row",
                                                   "floordiv_rows")])
    def test_allocates_one_result(self, case):
        args = [np.resize(a, 1 << 16) if isinstance(a, np.ndarray) else a
                for a in _OUT_CASES[case]]
        km = KernelMath()
        getattr(km, self._method(case))(*args)    # warm up
        tracemalloc.start()
        try:
            got = getattr(km, self._method(case))(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * got.nbytes

    @pytest.mark.parametrize("name, args", [
        ("mul", (np.array([1 << 40, 3], dtype=np.int64), np.array([1 << 30, 1], dtype=np.int64))),
        ("mul", (np.zeros(2, dtype=np.int64), 1 << 64)),
        ("lshift", (np.array([1 << 40, 3], dtype=np.int64), 30)),
        ("rshift_round", (np.array([1 << 40, 3], dtype=np.int64), -30)),
        ("rshift_round_add", (np.array([1 << 40, 3], dtype=np.int64), -30, 1)),
        ("rshift_round_add", (np.array([INT64_MAX - (1 << 20), 3], dtype=np.int64), 20, 1)),
    ], ids=["mul", "mul_scalar_past_int64", "lshift", "rshift_round", "rshift_round_add_left",
            "rshift_round_add_folded_sum"])
    def test_overflow_leaves_out_untouched(self, name, args):
        km = KernelMath()
        out = np.array([11, 12], dtype=np.int64)
        with pytest.raises(KernelOverflowError):
            getattr(km, name)(*args, out=out)
        assert out.tolist() == [11, 12]
        assert km.counter.total() == 0

    @pytest.mark.parametrize("name", ["add", "sub", "mul", "floordiv", "rshift", "lshift",
                                      "minimum", "maximum"])
    def test_float_operand_leaves_out_untouched(self, name):
        km = KernelMath()
        out = np.array([11, 12], dtype=np.int64)
        with pytest.raises(IntegerViolation):
            getattr(km, name)(out, np.array([1.0, 2.0]), out=out)
        assert out.tolist() == [11, 12]


_GRID = np.arange(1, 257, dtype=np.int64).reshape(8, 32)
_LOW = _GRID % 4 + 1      # kept small, so shifts and products stay in range
# operand mixes: array/array, array/int, np.int64 scalar/array, an (8, 1)
# column broadcast against (8, 32), and 0-d arrays
_MIXES = {
    "array_array": (_GRID, _LOW), "array_int": (_GRID, 3),
    "int64_scalar_array": (np.int64(3), _LOW), "broadcast": (_GRID[:, :1], _LOW),
    "zero_d": (np.array(9), np.array(2)),
}


def _n(*xs):
    return max([1] + [x.size for x in xs if isinstance(x, np.ndarray)])


def _rows(a):
    n = a.shape[-1] if isinstance(a, np.ndarray) and a.ndim else 1
    return (n - 1) * (np.size(a) // n)


def _affine(codes, counter):
    """3 * code + 1: one multiply and one add per code."""
    km = KernelMath(counter)
    return km.add(km.mul(codes, 3), 1)


_AFFINE = code_table(_affine, 0, 256, np.int64)   # covers every code of the mixes


def _isqrt_charge(n, steps, seed):
    """``isqrt``'s charge from the shift seed, element by element: a shift
    per bit of n (of 1 where n is 0), then a div, an add, a shift and a
    compare per Newton step the element takes."""
    assert seed == "shift"
    c = dict.fromkeys(("divs", "adds", "shifts", "compares"), 0)
    for v in np.ravel(n).tolist():
        v = max(v, 1)
        c["shifts"] += v.bit_length()
        x = 1 << ((v.bit_length() + 1) >> 1)
        for _ in range(steps):
            for kind in c:
                c[kind] += 1
            y = (x + v // x) >> 1
            if y >= x:
                break
            x = y
    return c


def _log2_ratio_charge(num, den):
    """``log2_ratio``'s charge: a shift and a compare per step of the search
    while num << k <= den, bitlen(den // num) steps per positive num, and
    two multiplies and a compare per element."""
    num, den = np.broadcast_arrays(num, den)
    steps = sum((d // v).bit_length() for v, d in zip(num.ravel().tolist(), den.ravel().tolist())
                if v > 0)
    return {"shifts": steps, "compares": steps + num.size, "muls": 2 * num.size}

# per public method: (its args from a mix's two operands, its charge)
_CHARGES = {
    "add": (lambda a, b: (a, b), lambda a, b: {"adds": _n(a, b)}),
    "sub": (lambda a, b: (a, b), lambda a, b: {"adds": _n(a, b)}),
    "mul": (lambda a, b: (a, b), lambda a, b: {"muls": _n(a, b)}),
    "floordiv": (lambda a, b: (a, b), lambda a, b: {"divs": _n(a, b)}),
    "rshift": (lambda a, b: (a, b), lambda a, b: {"shifts": _n(a, b)}),
    "lshift": (lambda a, b: (a, b), lambda a, b: {"shifts": _n(a, b)}),
    "minimum": (lambda a, b: (a, b), lambda a, b: {"compares": _n(a, b)}),
    "maximum": (lambda a, b: (a, b), lambda a, b: {"compares": _n(a, b)}),
    "abs": (lambda a, b: (a,), lambda a: {"compares": _n(a), "adds": _n(a)}),
    "sign": (lambda a, b: (a,), lambda a: {"compares": 2 * _n(a)}),
    # bounds are not charged, even when they are the larger operand
    "clip": (lambda a, b: (a, b, 50), lambda a, lo, hi: {"compares": 2 * _n(a)}),
    "sum": (lambda a, b: (a,), lambda a: {"adds": _rows(a)}),
    "max": (lambda a, b: (a,), lambda a: {"compares": _rows(a)}),
    "matmul": (lambda a, b: (np.atleast_2d(a), np.atleast_2d(a).T),
               lambda a, b: {"muls": a.shape[0] * b.shape[1] * a.shape[1],
                             "adds": a.shape[0] * b.shape[1] * (a.shape[1] - 1)}),
    "rshift_round": (lambda a, b: (a, 2), lambda a, k: {"adds": _n(a), "shifts": _n(a)}),
    # the zero point's add is folded into the rounding constant, but charged
    "rshift_round_add": (lambda a, b: (a, 2, 5),
                         lambda a, k, c: {"adds": 2 * _n(a), "shifts": _n(a)}),
    # every operand of the mixes lies within 2^9 - 1
    "floordiv_rows": (lambda a, b: (a, b, 9), lambda a, b, bits: {"divs": _n(a, b)}),
    # the table's stage charges per code; the table itself is not charged
    "lookup": (lambda a, b: (_AFFINE, a), lambda t, a: {"muls": _n(a), "adds": _n(a)}),
    # charged per element by what it does: the seed's bits and the Newton
    # steps each element takes (see _isqrt_charge)
    "isqrt": (lambda a, b: (a, 12, "shift"), _isqrt_charge),
    # num an array of the result's shape, zeros included, and den one per
    # row at or above the row's numerators, as the softmax's row sums
    "log2_ratio": (lambda a, b: (np.atleast_1d(np.minimum(a, b) - 1),
                                 np.atleast_1d(np.maximum(a, b)).max(axis=-1, keepdims=True)),
                   _log2_ratio_charge),
}


class TestCharges:
    """Every public ``KernelMath`` method charges the same counts for each
    operand mix, and refuses a real operand in any position without
    charging or writing anything."""

    def test_every_public_method_is_pinned(self):
        public = {name for name in vars(KernelMath)
                  if not name.startswith("_") and callable(getattr(KernelMath, name))}
        assert public - {"within"} == set(_CHARGES)

    @pytest.mark.parametrize("mix", _MIXES)
    @pytest.mark.parametrize("name", _CHARGES)
    def test_charge(self, name, mix):
        make_args, charge = _CHARGES[name]
        args = make_args(*_MIXES[mix])
        km = KernelMath()
        getattr(km, name)(*args)
        want = {**OpCounter().as_dict(), **charge(*args)}
        want["total"] = sum(want[k] for k in ("adds", "muls", "divs", "shifts", "compares"))
        assert km.counter.as_dict() == want

    def test_rshift_round_by_a_nonpositive_shift_charges_the_left_shift(self):
        km = KernelMath()
        km.rshift_round(_GRID, -3)
        assert km.counter.as_dict() == {**OpCounter().as_dict(), "shifts": 256, "total": 256}

    def test_rshift_round_add_by_a_nonpositive_shift_charges_the_left_shift_and_the_add(self):
        km = KernelMath()
        got = km.rshift_round_add(_GRID, -3, 7)
        assert got.tolist() == ((_GRID << 3) + 7).tolist()
        assert km.counter.as_dict() == {**OpCounter().as_dict(), "shifts": 256, "adds": 256,
                                        "total": 512}

    @pytest.mark.parametrize("bits", [9, 31])
    def test_floordiv_rows_charges_one_div_per_element_on_the_reciprocal_path(self, bits):
        # a call past RECIP_MIN_SIZE divides by reciprocals where bits <= 31
        a = np.resize(_GRID - 128, (128, 64))
        b = np.arange(1, 129, dtype=np.int64).reshape(128, 1)
        km = KernelMath()
        with mock.patch.object(tensor_mod, "reciprocal_floordiv",
                               wraps=tensor_mod.reciprocal_floordiv) as recip:
            got = km.floordiv_rows(a, b, bits)
        assert recip.call_count == 1 and a.size >= tensor_mod.RECIP_MIN_SIZE
        assert got.tolist() == np.floor_divide(a, b).tolist()
        assert km.counter.as_dict() == {**OpCounter().as_dict(), "divs": a.size,
                                        "total": a.size}

    REALS = {"float_array": _GRID.astype(np.float64), "float": 2.0,
             "float32_scalar": np.float32(2.0), "zero_d_float": np.array(2.0)}

    @staticmethod
    def _refuses(name, real, make_km):
        args = _CHARGES[name][0](_GRID, _LOW)
        takes_out = "out" in inspect.signature(getattr(KernelMath, name)).parameters
        for i in range(len(args)):
            km = make_km()
            out = np.full(_GRID.shape, 99, dtype=km.dtype)
            bad = (*args[:i], real, *args[i + 1:])
            with pytest.raises(IntegerViolation):
                getattr(km, name)(*bad, **({"out": out} if takes_out else {}))
            assert km.counter.float_violations == 1 and km.counter.total() == 0
            assert (out == 99).all()

    @pytest.mark.parametrize("real", REALS)
    @pytest.mark.parametrize("name", _CHARGES)
    def test_real_operand_in_any_position_is_refused(self, name, real):
        self._refuses(name, self.REALS[real], KernelMath)

    # an int32 instance, which only ``within`` makes: every mix fits 31 bits
    @staticmethod
    def _int32():
        return KernelMath.within(None, (1 << 31) - 1)

    @pytest.mark.parametrize("name", _CHARGES)
    def test_an_int32_instance_computes_and_charges_as_int64(self, name):
        make_args, _ = _CHARGES[name]
        for mix in _MIXES.values():
            args = make_args(*mix)
            want_km, got_km = KernelMath(), self._int32()
            want = getattr(want_km, name)(*args)
            got = getattr(got_km, name)(*args)
            # a lookup gives its table's dtype, int64 for _AFFINE
            assert got.dtype == (np.int64 if name in ("sum", "lookup") else np.int32)
            assert got.tolist() == want.tolist()
            assert got_km.counter.as_dict() == want_km.counter.as_dict()

    @pytest.mark.parametrize("name", _CHARGES)
    def test_an_int32_instance_refuses_a_real_operand_in_any_position(self, name):
        for real in self.REALS.values():
            self._refuses(name, real, self._int32)


def _counter_writes(path) -> list:
    """Lines of ``path`` that assign to an ``OpCounter`` field by name:
    ``x.adds = ...``, ``x.adds += ...`` or ``setattr(x, "adds", ...)``."""
    fields = {"adds", "muls", "divs", "shifts", "compares", "float_violations"}
    lines = []
    for node in ast.walk(ast.parse(Path(path).read_text())):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        if any(isinstance(t, ast.Attribute) and t.attr in fields for t in targets):
            lines.append(node.lineno)
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
                and len(node.args) > 1 and getattr(node.args[1], "value", None) in fields):
            lines.append(node.lineno)
    return lines


def test_only_the_tensor_module_charges_ops():
    # one cost model: every other module charges through KernelMath's methods
    src = Path(tensor_mod.__file__).parent
    writes = {p.name: _counter_writes(p) for p in sorted(src.glob("*.py"))}
    assert writes.pop("tensor.py")
    assert {name: lines for name, lines in writes.items() if lines} == {}


def _log2_ratio_exact(num: int, den: int) -> int:
    if num == 0:
        return 63
    k = (den // num).bit_length() - 1
    return k + (den * den >= num * num << (2 * k + 1))


def _log2_ratio_squares(km, num, den):
    """Reference: ``log2_ratio`` as it was first written, charging ``km``'s
    counter the same way. k = floor(log2(den/num)) is j or j - 1 for
    j = bitlen(den) - bitlen(num), rounded up where den^2 >= num^2 2^(2k+1),
    in int64 squares, and set to 63 where num is 0."""
    dtype, size = km.dtype, num.size
    den = np.asarray(den, dtype=dtype)
    pos = num > 0
    safe_num = np.maximum(num, 1, dtype=dtype)
    k = _bit_length(safe_num).astype(dtype)
    k = np.maximum(_bit_length(den).astype(dtype) - k, 0)
    k = np.maximum(k - (np.left_shift(safe_num, k) > den), 0) * pos
    steps = int(k.sum()) + int(np.count_nonzero(pos))
    km.counter.shifts += steps
    km.counter.compares += steps + size
    km.counter.muls += 2 * size
    sq = safe_num.astype(np.int64) ** 2
    den = den.astype(np.int64)
    k = (k + (den * den >= sq << (2 * k.astype(np.int64) + 1))).astype(dtype)
    k[~pos] = 63
    return k


def _assert_log2_ratio_is_the_reference(make, num, den):
    want_km, got_km = make(), make()
    want = _log2_ratio_squares(want_km, num, den)
    got = got_km.log2_ratio(num, den)
    assert got.dtype == want.dtype == got_km.dtype
    assert got.tolist() == want.tolist()
    assert got_km.counter.as_dict() == want_km.counter.as_dict()


# (instance, numerator dtype): int32 as the int32 front stage runs it, and
# int64 instances, one of them fed the int32 numerators of an exponential table
_LOG2_RATIO_INSTANCES = [(lambda: KernelMath.within(None, (1 << 31) - 1), np.int32),
                         (KernelMath, np.int64), (KernelMath, np.int32)]


class TestSquareRootAndLog2Ratio:
    """The two multi-step methods: LayerNorm's square root and the log2
    tail of log2_softmax. Their charges are pinned in ``_CHARGES``."""

    @pytest.mark.parametrize("name, args", [
        ("isqrt", (np.array([4.0]), 12, "shift")), ("isqrt", (np.array([4.0]), 12, "poly")),
        ("log2_ratio", (np.array([[1.0, 2.0]]), np.array([[3]]))),
        ("log2_ratio", (np.array([[1, 2]]), np.array([[3.0]]))),
    ])
    def test_a_float_array_is_refused_uncharged(self, name, args):
        km = KernelMath()
        with pytest.raises(IntegerViolation):
            getattr(km, name)(*args)
        assert km.counter.float_violations == 1 and km.counter.total() == 0

    @pytest.mark.parametrize("bound", [(1 << 31) - 1, 1 << 31])
    def test_log2_ratio_rounds_half_up_in_each_dtype(self, bound):
        rng = np.random.default_rng(5)
        den = rng.integers(1, 1 << 30, size=(64, 1))
        den[:4] = [[1], [2], [3], [(1 << 31) - 1]]
        num = np.minimum(rng.integers(0, 1 << 31, size=(64, 16)) >> rng.integers(0, 31, (64, 16)),
                         den)
        num[:, 0], num[:, 1] = 0, den[:, 0]
        km = KernelMath.within(None, bound)
        got = km.log2_ratio(num.astype(km.dtype), den)
        assert got.dtype == km.dtype
        assert got.tolist() == [[_log2_ratio_exact(v, int(d[0])) for v in row]
                                for row, d in zip(num.tolist(), den.tolist())]

    def test_log2_ratio_refuses_a_den_whose_square_overflows(self):
        km = KernelMath()
        with pytest.raises(KernelOverflowError):
            km.log2_ratio(np.array([[1, 2]]), np.array([[1 << 31]]))
        assert km.counter.total() == 0

    @pytest.mark.parametrize("make, num_dtype", _LOG2_RATIO_INSTANCES)
    def test_log2_ratio_is_the_squares_formula_on_every_small_pair(self, make, num_dtype):
        # every 0 <= num <= den <= 80, den = 0 and 1 included
        den = np.arange(81).reshape(-1, 1)
        num = np.minimum(np.arange(81), den)
        _assert_log2_ratio_is_the_reference(make, num.astype(num_dtype), den)

    @pytest.mark.parametrize("make, num_dtype", _LOG2_RATIO_INSTANCES)
    @pytest.mark.parametrize("den", [275807, 2013265952, (1 << 31) - 1])
    def test_log2_ratio_round_up_edge(self, make, num_dtype, den):
        # num around den / sqrt 2, where k rounds up or not; 275807 / sqrt 2
        # = 195024.99999872 and 2013265952 / sqrt 2 = 1423594006.991 lie
        # just below an integer, which a short product for 1 / sqrt 2 misses
        r = math.isqrt(den * den >> 1)
        num = np.array([[r - 1, r, r + 1, r + 2, (r + 1) >> 1, r >> 1, den, 0]])
        _assert_log2_ratio_is_the_reference(make, num.astype(num_dtype), np.array([[den]]))

    @pytest.mark.parametrize("make, num_dtype", _LOG2_RATIO_INSTANCES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_log2_ratio_is_the_squares_formula(self, make, num_dtype, data):
        # rows of numerators up to their den, with zeros, num == den and
        # den at 2^31 - 1 among the draws; None: one row of each edge
        top = (1 << 31) - 1
        if data is None:
            den = np.array([[top], [top], [1], [0], [(1 << 30) + 1]])
            num = np.array([[0, 1, top, top >> 1, (top >> 1) + 1, 1 << 30],
                            [top - 1, 3, 7, 0, 0, top],
                            [0, 1, 1, 0, 1, 0], [0] * 6, [1 << 29, 1, 0, 3, 1 << 30, 5]])
        else:
            edge = st.sampled_from([0, 1, 2, 3, top - 1, top, 1 << 30, (1 << 30) + 1])
            den = np.array(data.draw(st.lists(edge | st.integers(0, top), min_size=1,
                                              max_size=6)))[:, None]
            cols = data.draw(st.integers(1, 12))
            num = np.array([[data.draw(st.sampled_from([0, d, d >> 1, 1]) | st.integers(0, d))
                             for _ in range(cols)] for d in den[:, 0].tolist()])
        num = np.minimum(num, den)
        _assert_log2_ratio_is_the_reference(make, num.astype(num_dtype), den)

    @pytest.mark.parametrize("seed", ["shift", "poly"])
    def test_isqrt_in_each_dtype(self, seed):
        n = np.array([[0, 1, 2, 3, 99, (1 << 31) - 1]], dtype=np.int64)
        for km in (KernelMath(), KernelMath.within(None, (1 << 31) - 1)):
            got = km.isqrt(n.astype(km.dtype), 40, seed)
            assert got.dtype == km.dtype and got.shape == n.shape
            assert got.ravel().tolist() == [math.isqrt(v) for v in n.ravel().tolist()]

    def test_isqrt_refuses_an_unknown_seed_uncharged(self):
        km = KernelMath()
        with pytest.raises(ValueError, match="seed"):
            km.isqrt(np.array([4]), 12, "newton")
        assert km.counter.total() == 0

    @pytest.mark.parametrize("seed, n", [("shift", [-1, -5]), ("poly", [-4]),
                                         ("shift", [[9, 0], [4, -1]])])
    def test_isqrt_refuses_a_negative_element_uncharged(self, seed, n):
        # a negative element has no square root, and a Newton step on it divides by 0
        for km in (KernelMath(), KernelMath.within(None, (1 << 31) - 1)):
            with pytest.raises(ValueError, match="negative"):
                km.isqrt(np.array(n, dtype=km.dtype), 12, seed)
            assert km.counter.total() == 0


class TestCodeTable:
    def test_a_lookup_is_its_stage_on_every_code(self):
        codes = np.arange(-9, 5, dtype=np.int64).reshape(2, 7)
        want_km, got_km = KernelMath(), KernelMath()
        want = _affine(codes, want_km.counter)
        got = got_km.lookup(code_table(_affine, -9, 4, np.int64), codes)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert got_km.counter == want_km.counter

    def test_it_is_cached_by_value_and_read_only(self):
        def shifted(codes, counter, shifts):
            km = KernelMath(counter)
            return km.add(km.rshift(codes, shifts[0]), km.rshift(codes, shifts[1]))
        t = code_table(shifted, -3, 3, np.dtype(np.int32), (1, 2))
        assert code_table(shifted, -3, 3, np.dtype(np.int32), tuple([1, 2])) is t
        assert t.values.dtype == np.int32 and not t.values.flags.writeable
        assert t.charge == (("adds", 1), ("shifts", 2))

    @pytest.mark.parametrize("lo, hi", [(-9, 4), (0, 256), (-300, 0)])
    def test_its_peak_is_its_largest_magnitude(self, lo, hi):
        t = code_table(_affine, lo, hi, np.int64)
        assert t.peak == max(abs(3 * c + 1) for c in range(lo, hi + 1))

    def test_a_stage_whose_guard_fires_on_one_code_has_no_table_and_is_refused(self):
        # the shift's guard passes codes 0 and 1 and fires on code 2 alone,
        # so that domain has no table, and the result is cached like one;
        # tabulated refuses the stage even on codes its guard passes, and
        # charges nothing
        def shifted(codes, counter):
            return KernelMath(counter).lshift(codes, 62)
        assert code_table(shifted, 0, 1, np.int64) is not None
        hits = code_table.cache_info().hits
        assert code_table(shifted, 0, 2, np.int64) is None
        counter = OpCounter()
        with pytest.raises(KernelOverflowError, match=r"shifted .* \[0, 2\]"):
            tabulated(shifted, np.zeros(3, dtype=np.int64), counter, 0, 2, np.int64)
        assert code_table.cache_info().hits == hits + 1
        assert counter.total() == 0

    def test_a_stage_that_does_not_charge_per_code_is_refused(self):
        def row_sum(codes, counter):
            return np.broadcast_to(KernelMath(counter).sum(codes), codes.shape)
        with pytest.raises(ValueError, match="per code"):
            code_table(row_sum, 0, 7, np.int64)

    def test_values_past_the_dtype_are_refused(self):
        def huge(codes, counter):
            return KernelMath(counter).lshift(codes, 40)
        with pytest.raises(OverflowError, match="past int32"):
            code_table(huge, 0, 3, np.int32)


_INT31 = (1 << 31) - 1


@st.composite
def _row_divisions(draw):
    """(a, b, bits): numerators within 2^bits - 1, the extremes and zero
    among them, and one divisor >= 1 per row: 1, powers of two, their
    neighbours, values past 2^bits and any other."""
    bits = draw(st.integers(1, 62))
    top = (1 << bits) - 1
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    a = draw(arrays(np.int64, (rows, cols), elements=st.one_of(
        st.integers(-top, top), st.sampled_from([-top, top, 0, -1, 1]))))
    b = draw(arrays(np.int64, (rows, 1), elements=st.one_of(
        st.just(1), st.integers(0, 62).map(lambda k: 1 << k),
        st.integers(1, 62).map(lambda k: (1 << k) + 1),
        st.integers(2, 62).map(lambda k: (1 << k) - 1), st.integers(1, INT64_MAX))))
    return a, b, bits


class TestRowDivision:
    """KernelMath.floordiv_rows is np.floor_divide on both of its paths:
    the exact reciprocals where the numerators fit 31 bits and the call is
    large, floor_divide itself otherwise."""

    @settings(max_examples=400, deadline=None)
    @given(_row_divisions())
    @example((np.array([[-_INT31, _INT31, -_INT31 + 1, 0]]), np.array([[1]]), 31))
    @example((np.array([[-_INT31, _INT31, -1, 1]]), np.array([[1 << 30]]), 31))
    @example((np.array([[-_INT31, _INT31, -2, 2]]), np.array([[_INT31]]), 31))
    @example((np.array([[-_INT31, _INT31, -3, 3]]), np.array([[1 << 31]]), 31))
    @example((np.array([[-_INT31, _INT31, -3, 3, 0]]), np.array([[(1 << 31) + 1]]), 31))
    @example((np.array([[-_INT31, _INT31, -3, 3, 0]]), np.array([[INT64_MAX]]), 31))
    @example((np.array([[-(1 << 40), 1 << 40, -1]]), np.array([[3]]), 41))
    def test_reciprocal_division_is_floor_division(self, case):
        a, b, bits = case
        want = np.floor_divide(a, b)
        if bits <= 31:
            assert tensor_mod.reciprocal_floordiv(a, b, bits).tolist() == want.tolist()
        # tiled past RECIP_MIN_SIZE, the method takes its reciprocal path
        # where bits <= 31 and divides past it
        reps = -(-tensor_mod.RECIP_MIN_SIZE // a.size)
        big_a, big_b = np.tile(a, (reps, 1)), np.tile(b, (reps, 1))
        km = KernelMath()
        with mock.patch.object(tensor_mod, "reciprocal_floordiv",
                               wraps=tensor_mod.reciprocal_floordiv) as recip:
            got = km.floordiv_rows(big_a, big_b, bits)
        assert recip.call_count == (bits <= 31)
        assert got.tolist() == np.floor_divide(big_a, big_b).tolist()
        assert km.counter.divs == km.counter.total() == big_a.size

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_int32_numerators_and_out_buffers(self, dtype):
        a = np.arange(-_INT31, _INT31, 1 << 19, dtype=np.int64)[:8192].reshape(128, 64)
        b = np.arange(1, 129, dtype=np.int64).reshape(128, 1) ** 3
        want = np.floor_divide(a, b)
        km = KernelMath.within(None, _INT31 if dtype == np.int32 else 1 << 31)
        out = a.astype(dtype)
        got = km.floordiv_rows(out, b.astype(dtype), 31, out=out)
        assert got is out and got.dtype == dtype and got.tolist() == want.tolist()

    def test_a_small_call_divides(self):
        a, b = _GRID - 128, np.arange(1, 9, dtype=np.int64).reshape(8, 1)
        with mock.patch.object(tensor_mod, "reciprocal_floordiv",
                               side_effect=AssertionError) as recip:
            got = KernelMath().floordiv_rows(a, b, 9)
        assert not recip.called and got.tolist() == np.floor_divide(a, b).tolist()


class TestBitLength:
    def test_matches_int_bit_length(self):
        values = [0, 1, 2, 3, INT64_MAX] + [(1 << k) + d for k in range(2, 63)
                                            for d in (-1, 0, 1)]
        got = _bit_length(np.array(values, dtype=np.int64))
        assert got.tolist() == [v.bit_length() for v in values]

    def test_negatives_are_zero(self):
        # documented: 0 for elements <= 0, unlike int.bit_length
        values = np.array([-1, -2, -(1 << 40), INT64_MIN], dtype=np.int64)
        assert _bit_length(values).tolist() == [0, 0, 0, 0]

    def test_leaves_its_input_alone(self):
        n = np.array([[5, -3], [1 << 40, 0]], dtype=np.int64)
        n.setflags(write=False)
        assert _bit_length(n).tolist() == [[3, 0], [41, 0]]


    def test_matches_int_bit_length_at_every_edge(self):
        # 0 for elements <= 0; int.bit_length otherwise, up to the 63 powers
        values = ([0, -1, -5, INT64_MIN, INT64_MAX, (1 << 62) - 1, 1 << 62]
                  + [(1 << k) + d for k in range(1, 63) for d in (-1, 0)])
        got = _bit_length(np.array(values, dtype=np.int64))
        assert got.tolist() == [max(v, 0).bit_length() for v in values]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_int_bit_length_for_each_dtype(self, dtype):
        # int32 takes frexp's exponent, int64 the table search; both are
        # int.bit_length for n >= 1 and 0 for n <= 0
        info = np.iinfo(dtype)
        width = info.bits - 1
        values = ([0, 1, info.max, -1, -2, -info.max, info.min]
                  + [(1 << k) + d for k in range(1, width) for d in (-1, 0, 1)]
                  + [-(1 << k) for k in range(width)])
        got = _bit_length(np.array(values, dtype=dtype))
        assert got.dtype == np.int64
        assert got.tolist() == [max(v, 0).bit_length() for v in values]

    def test_int32_input_gives_a_fresh_int64_result(self):
        values = [0, -3, 1, (1 << 31) - 1, -(1 << 31)] + [1 << k for k in range(31)]
        n = np.array(values, dtype=np.int32)
        got = _bit_length(n)
        assert got.dtype == np.int64 and got.flags.writeable and not np.shares_memory(got, n)
        assert got.tolist() == [max(v, 0).bit_length() for v in values]


class TestInt32KernelMath:
    """An int32 KernelMath, which only ``within`` makes, computes in int32."""

    _A32 = np.array([-(1 << 24) - 3, -7, -1, 0, 1, 5, 1 << 24], dtype=np.int64)
    _S32 = np.array([-9, -3, -1, 0, 1, 2, 8], dtype=np.int64)

    @pytest.mark.parametrize("name, args", [
        ("add", (_A32, 3)), ("sub", (_A32, _S32)), ("mul", (_A32, 3)),
        ("floordiv", (_A32, 7)), ("rshift", (_A32, np.arange(7))), ("lshift", (_S32, 9)),
        ("minimum", (_A32, 0)), ("maximum", (_A32, -2)), ("clip", (_A32, -5, 1 << 20)),
        ("rshift_round", (_A32, 5)), ("rshift_round_add", (_A32, 5, 9)),
        ("floordiv_rows", (_A32.reshape(7, 1) * 3, _S32.reshape(7, 1) % 4 + 1, 27)),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_int32_matches_int64(self, name, args):
        want_km, got_km = KernelMath(), KernelMath.within(OpCounter(), (1 << 31) - 1)
        want = getattr(want_km, name)(*args)
        got = getattr(got_km, name)(*args)
        out = np.full(np.shape(want), 99, dtype=np.int32)
        assert getattr(got_km, name)(*args, out=out) is out
        assert got.dtype == np.int32 and want.dtype == np.int64
        assert got.tolist() == out.tolist() == want.tolist()
        assert got_km.counter.total() == 2 * want_km.counter.total()

    def test_python_constant_past_int32_is_refused(self):
        out = np.array([11, 12], dtype=np.int32)
        with pytest.raises(OverflowError):
            KernelMath.within(OpCounter(), 1 << 30).add(np.array([1, 2], dtype=np.int32),
                                                        1 << 40, out=out)
        assert out.tolist() == [11, 12]

    def test_default_computes_in_int64(self):
        a = np.array([1, 2], dtype=np.int32)
        assert KernelMath().add(a, a).dtype == np.int64

    @pytest.mark.parametrize("bound, dtype", [((1 << 31) - 1, np.int32), (1 << 31, np.int64)],
                             ids=["int32", "int64"])
    def test_abs_sign_and_max_keep_the_dtype(self, bound, dtype):
        # an int32 chain through them stays int32 instead of widening
        a = np.array([[-(1 << 24) - 3, 7, 0], [-1, 5, -9]], dtype=np.int64)
        km = KernelMath.within(None, bound)
        for got, want in ((km.abs(a), np.abs(a)), (km.sign(a), np.sign(a)),
                          (km.max(a), a.max(axis=-1, keepdims=True))):
            assert got.dtype == dtype and got.tolist() == want.tolist()
        assert km.counter.as_dict() == {**OpCounter().as_dict(), "adds": 6,
                                        "compares": 6 + 12 + 4, "total": 28}


class TestStaticBounds:
    """KernelMath.within: the width and the guards follow a stage's static
    bound; matmul's static magnitudes pick its BLAS path."""

    @pytest.mark.parametrize("bound, dtype, static", [
        (0, np.int32, True), ((1 << 31) - 1, np.int32, True), (1 << 31, np.int64, True),
        ((1 << 63) - 1, np.int64, True), (1 << 63, np.int64, False)])
    def test_width_and_guards_follow_the_bound(self, bound, dtype, static):
        c = OpCounter()
        km = KernelMath.within(c, bound)
        assert km.counter is c and km.dtype == dtype
        assert km.bound == (bound if static else None)
        assert KernelMath.within(None, bound).counter.as_dict() == OpCounter().as_dict()

    def test_a_bounded_stage_does_not_scan_its_operands(self):
        a = np.array([3, -40000, 5], dtype=np.int64)
        km = KernelMath.within(OpCounter(), mul_bound(40000, 40000))
        with mock.patch.object(tensor_mod, "magnitude", side_effect=AssertionError):
            got = km.mul(a, a)
            km.lshift(got, 2, out=got)
        assert got.dtype == np.int64 and got.tolist() == [36, 6400000000, 100]
        assert km.counter.muls == 3 and km.counter.shifts == 3

    def test_without_a_fitting_bound_the_runtime_guard_refuses(self):
        big = np.array([1 << 40], dtype=np.int64)
        for km in (KernelMath.within(OpCounter(), 1 << 63), KernelMath()):
            with pytest.raises(KernelOverflowError):
                km.mul(big, big)
            with pytest.raises(KernelOverflowError):
                km.matmul(big.reshape(1, 1), big.reshape(1, 1), mags=(1 << 40, 1 << 40))

    def test_stage_bound_covers_the_guard_envelopes(self):
        b = StageBound(5)
        assert b.mul(5, 3) == 15 and b.bound == mul_bound(5, 3) == 31
        assert b.lshift(3, 4) == 48 and b.bound == 63
        assert b.rshift_round(100, 3) == 13
        assert b.rshift_round(3, -2) == 12 and b.bound == 104
        # the zero point rides on the rounding constant: 100 + 4 + (7 << 3)
        assert b.rshift_round_add(100, 3, 7) == 20 and b.bound == 160
        assert b.rshift_round_add(3, -2, 7) == 19 and b.bound == 160

    # 3 * 455 * 12291 = 2^24 - 1 and 4 * 2^11 * 2^11 = 2^24 around
    # EXACT_FLOAT32; 24 + 25 + 3 = 52 and 24 + 26 + 3 = 53 bits around
    # EXACT_FLOAT_BITS; 29 + 30 + 3 = 62 bits, the most admitted
    @pytest.mark.parametrize("k, ma, mb, path", [
        (258, 255, 255, np.float32), (259, 255, 255, np.float64),
        (16, 1 << 20, 1 << 20, np.float64), (4, (1 << 29) - 1, (1 << 29) - 1, np.int64),
        (3, 455, 12291, np.float32), (4, 1 << 11, 1 << 11, np.float64),
        (4, (1 << 24) - 1, (1 << 25) - 1, np.float64), (4, (1 << 24) - 1, (1 << 26) - 1, np.int64),
        (4, (1 << 29) - 1, (1 << 30) - 1, np.int64)])
    def test_matmul_path_from_static_magnitudes(self, k, ma, mb, path):
        # every product at its largest, so the partial sums reach k*ma*mb
        a = np.full((2, k), ma, dtype=np.int64)
        b = np.full((k, 3), -mb, dtype=np.int64)
        seen = []
        real = np.matmul

        def matmul(x, y):
            seen.append(x.dtype)
            return real(x, y)
        for mags in ((ma, mb), None):
            seen.clear()
            with mock.patch.object(tensor_mod.np, "matmul", matmul):
                out = KernelMath.within(OpCounter(), k * ma * mb).matmul(a, b, mags=mags)
            assert seen == [path]
            assert out.tolist() == np.matmul(a.astype(object), b.astype(object)).tolist()


class TestGuardDtypes:
    @pytest.mark.parametrize("dtype", list(np.typecodes["AllInteger"]))
    def test_integer_dtypes_accepted(self, dtype):
        km = KernelMath()
        out = km.add(np.array([0, 1, 7], dtype=dtype), 0)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [0, 1, 7])
        assert km.counter.float_violations == 0

    @pytest.mark.parametrize("dtype", [np.bool_, np.float16, np.float32, np.float64,
                                       np.complex64, np.complex128, object])
    def test_other_dtypes_rejected(self, dtype):
        km = KernelMath()
        with pytest.raises(IntegerViolation):
            km.add(np.array([0, 1], dtype=dtype), 0)
        assert km.counter.float_violations == 1


@st.composite
def _gemm_operands(draw):
    """Integer operands whose bit budget bitlen(max|a|) + bitlen(max|b|) +
    bitlen(k) is drawn from both sides of the 52-bit exact-float bound and
    past the 62-bit overflow limit; one element of each operand sits at
    the top of its bit length, so the budget is exact."""
    batch = draw(st.lists(st.integers(1, 3), max_size=2))
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    kb = k.bit_length()
    total = draw(st.integers(kb + 2, 66))
    ba = draw(st.integers(max(1, total - kb - 63), min(63, total - kb - 1)))
    bb = total - kb - ba

    def operand(shape, bits):
        top = (1 << bits) - 1
        x = draw(arrays(np.int64, shape, elements=st.integers(-top, top)))
        i = draw(st.integers(0, x.size - 1))
        x.flat[i] = draw(st.sampled_from([1, -1])) * draw(st.integers(1 << (bits - 1), top))
        return x

    a = operand((*batch, m, k), ba)
    b = operand((*draw(st.sampled_from([batch, []])), k, n), bb)
    return a, b, total


class TestMatmul:
    @settings(max_examples=300, deadline=None)
    @given(_gemm_operands())
    def test_exact_against_python_ints(self, operands):
        a, b, total = operands
        km = KernelMath()
        if total > 62:
            with pytest.raises(KernelOverflowError):
                km.matmul(a, b)
            return
        out = km.matmul(a, b)
        want = np.matmul(a.astype(object), b.astype(object))
        assert out.dtype == np.int64
        assert out.shape == want.shape
        assert out.tolist() == want.tolist()
        k = a.shape[-1]
        assert km.counter.muls == out.size * k
        assert km.counter.adds == out.size * (k - 1)

    @pytest.mark.parametrize("total", [50, 51, 52, 53, 62])
    def test_all_max_operands_at_the_bounds(self, total):
        # every product at its largest, so each partial sum is the largest
        # the bit budget allows
        k = 7
        ba = (total - k.bit_length()) // 2
        bb = total - k.bit_length() - ba
        a = np.full((2, 3, k), (1 << ba) - 1, dtype=np.int64)
        b = np.full((k, 4), -((1 << bb) - 1), dtype=np.int64)
        b[0, 0] = (1 << bb) - 1
        out = KernelMath().matmul(a, b)
        assert out.tolist() == np.matmul(a.astype(object), b.astype(object)).tolist()

    def test_float_operand_still_rejected(self):
        km = KernelMath()
        with pytest.raises(IntegerViolation):
            km.matmul(np.ones((2, 2)), np.ones((2, 2), dtype=np.int64))
        assert km.counter.float_violations == 1


def _full_operands(k, ma, mb):
    """(2, k) and (k, 3) operands at ma and -mb, so that every partial sum
    of their product reaches k * ma * mb in magnitude."""
    return np.full((2, k), ma, dtype=np.int64), np.full((k, 3), -mb, dtype=np.int64)


def _matmul_recorded(a, b, mags):
    """``matmul(a, b, mags=mags)`` on an int64 instance with a static
    bound: the dtype of each ``np.matmul`` call's operands, the number of
    ``magnitude`` scans it made and its counter."""
    seen, scans = [], []
    real_matmul, real_magnitude = np.matmul, tensor_mod.magnitude

    def matmul(x, y):
        seen.append((x.dtype, y.dtype))
        return real_matmul(x, y)

    def magnitude(x):
        scans.append(1)
        return real_magnitude(x)
    km = KernelMath.within(OpCounter(), 1 << 62)
    with mock.patch.object(tensor_mod.np, "matmul", matmul), \
            mock.patch.object(tensor_mod, "magnitude", magnitude):
        out = km.matmul(a, b, mags=mags)
    assert out.dtype == km.dtype
    assert out.tolist() == np.matmul(a.astype(object), b.astype(object)).tolist()
    assert all(x == y for x, y in seen)
    return [x for x, _ in seen], len(scans), km.counter


class TestMatmulPathChoice:
    """When :meth:`KernelMath.matmul` scans its operands: static magnitudes
    are taken as given unless they fail the 62-bit guard, and then the
    operands' own pick the path or the refusal. The paths at each boundary
    are pinned in ``TestStaticBounds``."""

    @pytest.mark.parametrize("k, ma, mb, path", [
        (3, 455, 12291, np.float32), (4, (1 << 24) - 1, (1 << 26) - 1, np.int64)])
    def test_stated_magnitudes_are_not_scanned(self, k, ma, mb, path):
        a, b = _full_operands(k, ma, mb)
        assert _matmul_recorded(a, b, (ma, mb))[:2] == ([path], 0)
        assert _matmul_recorded(a, b, None)[:2] == ([path], 2)

    def test_magnitudes_that_fail_the_guard_are_rescanned(self):
        # stated magnitudes past 62 bits are not refused on their word: the
        # operands are scanned, and their own magnitudes pick float32
        a, b = _full_operands(3, 5, 7)
        paths, scans, counter = _matmul_recorded(a, b, (1 << 40, 1 << 40))
        assert (paths, scans) == ([np.float32], 2)
        assert (counter.muls, counter.adds) == (2 * 3 * 3, 2 * 3 * 2)

    def test_understated_magnitudes_are_taken_as_given(self):
        # within the guard nothing is scanned: the magnitudes are the
        # caller's promise, and they pick the path
        a, b = _full_operands(4, 1 << 11, 1 << 11)
        assert _matmul_recorded(a, b, (1, 1))[:2] == ([np.float32], 0)

    @pytest.mark.parametrize("mags", [None, (1 << 40, 1 << 40)])
    def test_refused_past_62_bits_uncharged(self, mags):
        # 29 + 31 + 3 = 63 bits, scanned or stated
        a, b = _full_operands(4, (1 << 29) - 1, (1 << 31) - 1)
        km = KernelMath()
        with pytest.raises(KernelOverflowError):
            km.matmul(a, b, mags=mags)
        assert km.counter.total() == 0


class TestGuardScalars:
    """What :meth:`KernelMath._guard` takes for a scalar operand: an int of
    any kind is an integer, a real of any kind is refused."""

    class Flag(IntEnum):
        ON = 3

    class Real(float):
        pass

    @pytest.mark.parametrize("scalar, want", [
        (True, [2, 3]), (Flag.ON, [4, 5]), (np.int64(3), [4, 5]), (np.int32(-1), [0, 1]),
        (7, [8, 9])])
    def test_integer_scalars_are_accepted(self, scalar, want):
        km = KernelMath()
        assert km.add(np.array([1, 2]), scalar).tolist() == want
        assert km.counter.adds == 2 and km.counter.float_violations == 0

    @pytest.mark.parametrize("scalar", [Real(1.0), np.float64(1.0), 1.5, np.float32(2.0)])
    def test_real_scalars_are_refused(self, scalar):
        km = KernelMath()
        with pytest.raises(IntegerViolation):
            km.add(np.array([1, 2]), scalar)
        assert km.counter.float_violations == 1 and km.counter.total() == 0


def test_tensor_validates_dims():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 2)), dtype="real64")


def test_tensor_data_is_row_major_flat():
    t = Tensor(np.array([[1, 2], [3, 4]], dtype=np.int32))
    np.testing.assert_array_equal(t.data, [1, 2, 3, 4])
