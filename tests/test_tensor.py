import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from intquant.tensor import (IntegerViolation, KernelMath, KernelOverflowError,
                             OpCounter, Tensor, TensorFormatError, bit_length,
                             rng_tensor, tensor_read, tensor_write)

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
            x = km.asarray(np.arange(-8, 8))
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
}


class TestOutBuffers:
    """``out=`` gives the values and the op charge of the allocating call,
    and a method that raises writes nothing."""

    @staticmethod
    def _method(case):
        name = case.split("_")[0]
        return "rshift_round" if case.startswith("rshift_round") else name

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

    @pytest.mark.parametrize("case", [c for c in _OUT_CASES
                                      if c not in ("add_scalar_first", "sub_row")])
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
    ], ids=["mul", "mul_scalar_past_int64", "lshift", "rshift_round"])
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


class TestBitLength:
    def test_matches_int_bit_length(self):
        values = [0, 1, 2, 3, INT64_MAX] + [(1 << k) + d for k in range(2, 63)
                                            for d in (-1, 0, 1)]
        got = bit_length(np.array(values, dtype=np.int64))
        assert got.tolist() == [v.bit_length() for v in values]

    def test_negatives_are_zero(self):
        # documented: 0 for elements <= 0, unlike int.bit_length
        values = np.array([-1, -2, -(1 << 40), INT64_MIN], dtype=np.int64)
        assert bit_length(values).tolist() == [0, 0, 0, 0]

    def test_leaves_its_input_alone(self):
        n = np.array([[5, -3], [1 << 40, 0]], dtype=np.int64)
        n.setflags(write=False)
        assert bit_length(n).tolist() == [[3, 0], [41, 0]]


    def test_matches_int_bit_length_at_every_edge(self):
        # 0 for elements <= 0; int.bit_length otherwise, up to the 63 powers
        values = ([0, -1, -5, INT64_MIN, INT64_MAX, (1 << 62) - 1, 1 << 62]
                  + [(1 << k) + d for k in range(1, 63) for d in (-1, 0)])
        got = bit_length(np.array(values, dtype=np.int64))
        assert got.tolist() == [max(v, 0).bit_length() for v in values]

    def test_int32_input_gives_a_fresh_int64_result(self):
        values = [0, -3, 1, (1 << 31) - 1, -(1 << 31)] + [1 << k for k in range(31)]
        n = np.array(values, dtype=np.int32)
        got = bit_length(n)
        assert got.dtype == np.int64 and got.flags.writeable and not np.shares_memory(got, n)
        assert got.tolist() == [max(v, 0).bit_length() for v in values]


class TestInt32KernelMath:
    """An int32 KernelMath computes in int32, and its overflow guards check
    against 31 bits."""

    _A32 = np.array([-(1 << 24) - 3, -7, -1, 0, 1, 5, 1 << 24], dtype=np.int64)
    _S32 = np.array([-9, -3, -1, 0, 1, 2, 8], dtype=np.int64)

    @pytest.mark.parametrize("name, args", [
        ("add", (_A32, 3)), ("sub", (_A32, _S32)), ("mul", (_A32, 3)),
        ("floordiv", (_A32, 7)), ("rshift", (_A32, np.arange(7))), ("lshift", (_S32, 9)),
        ("minimum", (_A32, 0)), ("maximum", (_A32, -2)), ("clip", (_A32, -5, 1 << 20)),
        ("rshift_round", (_A32, 5)),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_int32_matches_int64(self, name, args):
        want_km, got_km = KernelMath(), KernelMath(dtype=np.int32)
        want = getattr(want_km, name)(*args)
        got = getattr(got_km, name)(*args)
        out = np.full(np.shape(want), 99, dtype=np.int32)
        assert getattr(got_km, name)(*args, out=out) is out
        assert got.dtype == np.int32 and want.dtype == np.int64
        assert got.tolist() == out.tolist() == want.tolist()
        assert got_km.counter.total() == 2 * want_km.counter.total()

    def test_int32_mul_needing_32_bits_raises_and_leaves_out_untouched(self):
        km = KernelMath(dtype=np.int32)
        a = np.array([46341, 3], dtype=np.int32)    # 46341^2 = 2^31 + 4633
        out = np.array([11, 12], dtype=np.int32)
        with pytest.raises(KernelOverflowError, match="32-bit"):
            km.mul(a, a, out=out)
        assert out.tolist() == [11, 12] and km.counter.total() == 0
        # the same product fits int64
        assert KernelMath().mul(a, a).tolist() == [46341 ** 2, 9]

    def test_int32_lshift_guard(self):
        km = KernelMath(dtype=np.int32)
        a = np.array([1 << 20, 1], dtype=np.int64)
        out = np.array([11, 12], dtype=np.int32)
        with pytest.raises(KernelOverflowError, match="32-bit"):
            km.lshift(a, 11, out=out)
        assert out.tolist() == [11, 12]
        assert km.lshift(a, 10, out=out).tolist() == [1 << 30, 1 << 10]

    def test_python_constant_past_int32_is_refused(self):
        out = np.array([11, 12], dtype=np.int32)
        with pytest.raises(OverflowError):
            KernelMath(dtype=np.int32).add(np.array([1, 2], dtype=np.int32), 1 << 40, out=out)
        assert out.tolist() == [11, 12]

    @pytest.mark.parametrize("dtype", [np.int16, np.uint32, np.float64])
    def test_other_dtypes_are_refused(self, dtype):
        with pytest.raises(TypeError, match="int32 or int64"):
            KernelMath(dtype=dtype)

    def test_default_computes_in_int64(self):
        a = np.array([1, 2], dtype=np.int32)
        assert KernelMath().add(a, a).dtype == np.int64


class TestGuardDtypes:
    @pytest.mark.parametrize("dtype", list(np.typecodes["AllInteger"]))
    def test_integer_dtypes_accepted(self, dtype):
        km = KernelMath()
        out = km.asarray(np.array([0, 1, 7], dtype=dtype))
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [0, 1, 7])
        assert km.counter.float_violations == 0

    @pytest.mark.parametrize("dtype", [np.bool_, np.float16, np.float32, np.float64,
                                       np.complex64, np.complex128, object])
    def test_other_dtypes_rejected(self, dtype):
        km = KernelMath()
        with pytest.raises(IntegerViolation):
            km.asarray(np.array([0, 1], dtype=dtype))
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


def test_tensor_validates_dims():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 2)), dtype="real64")


def test_tensor_data_is_row_major_flat():
    t = Tensor(np.array([[1, 2], [3, 4]], dtype=np.int32))
    np.testing.assert_array_equal(t.data, [1, 2, 3, 4])
