"""Dense tensor container, deterministic RNG, binary tensor file format,
and instrumented integer arithmetic for the kernel path.

The instrumentation exists to make "integer-only" a checkable claim: the
kernel path's arithmetic flows through the :class:`KernelMath` array
facade, which counts operations and records a violation the moment a
floating-point value shows up. It is the one place that charges ops: even
LayerNorm's Newton square root (:meth:`KernelMath.isqrt`) and the
bit-length tail of ``softmax.log2_softmax_codes``
(:meth:`KernelMath.log2_ratio`) are its methods. Their int32 bit lengths
come from the exponent of ``np.frexp``, exact as float64 holds every int32.

Kernels run their elementwise chains in place: the first op of a chain
allocates one result and each later op writes into it through ``out=``. The
buffer rule is that ``out=`` must be an array of the ``KernelMath``'s dtype
that the caller owns, that is one it allocated itself, and that a kernel
never writes into an array it was handed: input codes, edge arrays and
weights stay as they were.

Static bounds: the LayerNorm kernel, the softmax stages around the
exponential and each compiled step split their chains into stages and
give each a static magnitude bound, from its input codes' interval
[0, qmax] and its constants, written once as a mirror of the stage on
magnitudes (:class:`StageBound`). :meth:`KernelMath.within` makes the
stage's ``KernelMath``, and is the only maker of an int32 one: int32 where
the bound fits 31 bits, and with the ``mul``, ``lshift`` and
``rshift_round_add`` overflow guards decided by the bound instead of a
max/min scan of the operands;
:meth:`KernelMath.matmul` takes its operands' static magnitudes the same
way and picks float32, float64 or int64 from them. Where no bound fits, the
stage runs in int64 under the runtime guards. A kernel's input codes must
lie in [0, qmax] of their parameters: the exported kernels refuse other
codes once per call (:func:`quantize.checks_codes`), and the program's own
paths, whose codes are clipped there, run the kernel bodies unchecked.

Code tables: an elementwise stage that is a function of one bounded code
(a softmax exponential of the max-subtracted code, a GELU kernel of its
input code) runs only from its table. Its chain runs once over its whole
code domain, in int64 under the runtime guards, into a :class:`CodeTable`
(:func:`code_table`). That build is its check: a stage whose guard fires
on any code of the domain has no table, and every call of it is refused
with :class:`KernelOverflowError` (:func:`tabulated`). Requests gather from
a table with :meth:`KernelMath.lookup`, which charges the chain's per-code
counts times the number of codes, so the ``OpCounter`` charges are those
of the chain. The tabulated stages have no static bounds of their own: the
stage after a lookup takes its bound from the table's peak.

Fewer passes, the same charges: a ``KernelMath`` method may compute its
result in fewer numpy passes than the scalar operations it charges, but
never with other values. ``clip`` is numpy's clip ufunc, one pass for its
two compares. ``rshift_round_add`` adds a constant after a rounding shift
by folding it into the rounding constant, (x + 2^(k-1) + (c << k)) >> k,
which equals the shift followed by the add for arithmetic shifts; it is
charged both adds, and :func:`quantize.requantize` ends with it. Division
is ``floordiv``, elementwise, or ``floordiv_rows``, by one divisor per row,
as LayerNorm divides each row by its std: where the numerators' static
bound fits 31 bits and the call holds at least ``RECIP_MIN_SIZE``
elements, it multiplies by each row's exact reciprocal
(:func:`reciprocal_floordiv`, Granlund and Montgomery) instead, the same
quotients for one div charged per element; smaller calls, for which the
reciprocals cost more to set up than they save, and wider numerators
divide. The same holds the other way round where numpy's fixed cost per
call is the larger: an :meth:`KernelMath.isqrt` operand of at most
``ISQRT_INT_MAX_SIZE`` elements, as a batch-1 request's LayerNorm rows,
steps each element in Python ints, by the same recurrence and with the
same charges as the vectorized loop that larger operands run.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

MAGIC = b"IPTQ"
FORMAT_VERSION = 1

_DTYPE_BY_CODE = {0: "real32", 1: "int32"}
_CODE_BY_DTYPE = {v: k for k, v in _DTYPE_BY_CODE.items()}
_NP_BY_DTYPE = {"real32": np.dtype("<f4"), "int32": np.dtype("<i4")}

EXACT_FLOAT_BITS = 52  # integers below 2^52 survive float64 sums exactly
EXACT_FLOAT32 = 1 << 24  # and integers below 2^24 survive float32 sums exactly
_INT32, _INT64 = np.dtype(np.int32), np.dtype(np.int64)
# the clip ufunc itself: np.clip's Python wrapper costs about 5 us a call
_clip = np._core.umath.clip


class TensorFormatError(ValueError):
    """Raised when a tensor file does not conform to the on-disk format."""


class IntegerViolation(RuntimeError):
    """A floating-point value reached the integer-only kernel path."""


class KernelOverflowError(OverflowError):
    """An intermediate on the integer kernel path would exceed 64 signed
    bits; or a kernel's input codes lie outside [0, qmax] of their
    parameters, the interval its static bounds are taken from."""


class Tensor:
    """Dense n-dimensional array, row-major, dtype real32 or int32.

    Instances are immutable after construction and safe to share across
    threads.
    """

    __slots__ = ("_values", "dtype")

    def __init__(self, values, dtype: str | None = None):
        if dtype is None:
            arr = np.asarray(values)
            dtype = "int32" if np.issubdtype(arr.dtype, np.integer) else "real32"
        if dtype not in _NP_BY_DTYPE:
            raise ValueError(f"unsupported dtype {dtype!r}")
        arr = np.ascontiguousarray(values, dtype=_NP_BY_DTYPE[dtype])
        if arr.ndim < 1:
            arr = arr.reshape(1)
        if any(e < 1 for e in arr.shape):
            raise ValueError(f"every extent must be >= 1, got {arr.shape}")
        arr.setflags(write=False)
        self._values = arr
        self.dtype = dtype

    @property
    def dims(self) -> tuple[int, ...]:
        return self._values.shape

    @property
    def values(self) -> np.ndarray:
        """Shaped read-only view of the elements."""
        return self._values

    @property
    def data(self) -> np.ndarray:
        """Flat row-major element buffer."""
        return self._values.reshape(-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.dtype == other.dtype
            and self.dims == other.dims
            and bool(np.array_equal(self._values, other._values))
        )

    def __repr__(self) -> str:
        return f"Tensor(dims={list(self.dims)}, dtype={self.dtype!r})"


def tensor_write(t: Tensor, path) -> None:
    """Write ``t`` in the binary tensor format (little-endian, no padding)."""
    header = bytearray()
    header += MAGIC
    header += struct.pack("<BBB", FORMAT_VERSION, _CODE_BY_DTYPE[t.dtype], len(t.dims))
    for extent in t.dims:
        header += struct.pack("<I", extent)
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(t.data.astype(_NP_BY_DTYPE[t.dtype]).tobytes())


def tensor_read(path) -> Tensor:
    """Read a tensor file, reproducing dims/dtype/data bit-exactly."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 7:
        raise TensorFormatError(f"truncated header at byte offset {len(blob)}")
    if blob[:4] != MAGIC:
        raise TensorFormatError(f"bad magic {blob[:4]!r} at byte offset 0")
    if blob[4] != FORMAT_VERSION:
        raise TensorFormatError(f"unknown format version {blob[4]} at byte offset 4")
    if blob[5] not in _DTYPE_BY_CODE:
        raise TensorFormatError(f"unknown dtype code {blob[5]} at byte offset 5")
    dtype = _DTYPE_BY_CODE[blob[5]]
    rank = blob[6]
    if rank < 1:
        raise TensorFormatError("rank must be >= 1 at byte offset 6")
    offset = 7
    if len(blob) < offset + 4 * rank:
        raise TensorFormatError(f"truncated extents at byte offset {len(blob)}")
    dims = struct.unpack_from(f"<{rank}I", blob, offset)
    offset += 4 * rank
    if any(e < 1 for e in dims):
        raise TensorFormatError(f"zero extent in dims at byte offset {offset - 4 * rank}")
    count = math.prod(dims)  # Python ints: a product of u32 extents can pass 2^63
    need = count * 4
    if len(blob) - offset != need:
        raise TensorFormatError(
            f"payload is {len(blob) - offset} bytes, expected {need},"
            f" at byte offset {offset}"
        )
    flat = np.frombuffer(blob, dtype=_NP_BY_DTYPE[dtype], count=count, offset=offset)
    return Tensor(flat.reshape(dims), dtype=dtype)


def rng_tensor(seed: int, dims, dist: str, *args) -> Tensor:
    """Deterministic random tensor.

    The generator is PCG64 (numpy's default 128-bit LCG with output
    permutation), seeded directly; the same (seed, dims, dist) triple always
    yields the same tensor.

    dist is either ``"uniform"`` with bounds (a, b), a <= b, or ``"normal"``
    with (mu, sigma), sigma >= 0.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"every extent must be >= 1, got {dims}")
    if dist == "uniform":
        a, b = args
        if a > b:
            raise ValueError(f"uniform bounds must satisfy a <= b, got ({a}, {b})")
        vals = gen.uniform(a, b, size=dims) if a < b else np.full(dims, float(a))
    elif dist == "normal":
        mu, sigma = args
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        vals = gen.normal(mu, sigma, size=dims)
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    return Tensor(vals, dtype="real32")


_SQRT_HALF_Q32 = 3037000500   # ceil(2^31.5): 1 / sqrt 2 on a 2^-32 grid, rounded up
_POWERS_OF_TWO = np.left_shift(1, np.arange(63, dtype=np.int64))   # 2^0 .. 2^62


def _bit_length(n: np.ndarray) -> np.ndarray:
    """Bit length of each element of an int32 or int64 array, as int64; 0
    for elements <= 0.

    For int32, that is the exponent of ``np.frexp`` of the element, whose
    float64 cast is exact. float64 cannot hold every int64, so for int64,
    n >= 1, it is the number of powers 2^0, 2^1, ... at or below n, which
    one binary search over them counts exactly, in integers.
    """
    if n.dtype == np.int32:
        e = np.frexp(n)[1]
        np.multiply(e, n > 0, out=e)
        return e.astype(np.int64)
    return np.searchsorted(_POWERS_OF_TWO, n, side="right").astype(np.int64, copy=False)


# fewest elements a KernelMath.floordiv_rows call divides by reciprocals:
# below about 5,000, one floor_divide pass costs less than the reciprocals'
# dozen numpy calls (measured on 64-element rows of int64)
RECIP_MIN_SIZE = 5000

# most elements a KernelMath.isqrt call steps one by one in Python ints: up
# to 32, that costs less than the vectorized loop's half-dozen numpy calls
# per Newton step for both seeds (operands in [2^16, 2^24), 12 steps allowed,
# 2-vCPU VM: 8 elements 9-11 us against 31-35 us, 32 elements 23-34 us
# against 29-36 us; the poly seed crosses over near 36 elements, the shift
# seed near 48)
ISQRT_INT_MAX_SIZE = 32


def reciprocal_floordiv(a, b, bits: int, out=None, dtype=_INT64):
    """``a // b`` by exact reciprocals, for every |a| < 2^bits, bits <= 31,
    and divisors b >= 1 that broadcast against ``a``, in ``dtype``.

    Granlund and Montgomery (PLDI 1994, theorem 4.2): with l = bitlen(b - 1)
    and m = floor(2^(bits + l) / b) + 1, floor(u / b) = (u * m) >> (bits + l)
    for every 0 <= u < 2^bits, and u * m < 2^(2 bits + 1) fits int64. A
    negative a goes through ~a = -a - 1, in [0, 2^bits): floor(a / b) =
    ~floor(~a / b). A divisor past 2^bits gives what 2^bits gives, 0 or -1,
    so it is capped there, which keeps bits + l within 62. Narrower ``a``
    is widened to int64 once, at entry, so that no pass mixes widths: on
    256x64 int32 numerators that takes 61.5 to 55.8 us per call, the int64
    numerators' time (2-vCPU VM)."""
    b = np.minimum(b, 1 << bits, dtype=np.int64)
    shift = _bit_length(b - 1)
    shift += bits
    m = np.left_shift(1, shift)
    m //= b
    m += 1
    a = np.asarray(a, dtype=np.int64)
    sign = np.right_shift(a, bits)           # 0 where a >= 0, -1 where a < 0
    u = np.bitwise_xor(a, sign, out=out if out is not None and out.dtype == _INT64 else None)
    np.multiply(u, m, out=u)
    np.right_shift(u, shift, out=u)
    if out is None and dtype == _INT64:
        out = u
    return np.bitwise_xor(u, sign, out=out, dtype=dtype)


def magnitude(x) -> int:
    """Largest absolute value in ``x``, an integer array or scalar, as a
    Python int (0 for an empty array), from its extremes: ``np.abs``
    allocates a copy and wraps INT64_MIN onto itself."""
    if isinstance(x, np.ndarray):
        return max(int(x.max()), -int(x.min())) if x.size else 0
    return abs(int(x))


@dataclass
class OpCounter:
    """Integer-operation counts for one measurement scope.

    Counts are monotonically nondecreasing within a scope. A counter is not
    thread-safe, so concurrent scopes each need their own.
    """

    adds: int = 0
    muls: int = 0
    divs: int = 0
    shifts: int = 0
    compares: int = 0
    float_violations: int = 0

    def total(self) -> int:
        return self.adds + self.muls + self.divs + self.shifts + self.compares

    def as_dict(self) -> dict:
        return {**asdict(self), "total": self.total()}


_KINDS = ("adds", "muls", "divs", "shifts", "compares")


@dataclass(frozen=True, eq=False)
class CodeTable:
    """A kernel stage evaluated once over every code of its domain
    (:func:`code_table`): ``values[c]`` is its output at code c, negative
    codes counting from the end, read-only; ``peak`` is the largest
    magnitude among them, and ``charge`` what the stage charges per code,
    as (kind, count) pairs."""

    values: np.ndarray
    peak: int
    charge: tuple[tuple[str, int], ...]


@lru_cache(maxsize=64)
def code_table(stage, lo: int, hi: int, dtype, *args) -> CodeTable | None:
    """The table of ``stage(codes, counter, *args)`` over the codes lo..hi,
    lo <= 0 <= hi, in ``dtype``, which must hold its every value; None
    where a runtime overflow guard of the stage fires on some code of the
    domain, so that :func:`tabulated` refuses the stage.

    It is cached by value, None included, so ``stage`` is a module-level
    function and ``args`` are values (ints, tuples, frozen dataclasses),
    never a partial, which hashes by identity. The stage runs on the whole
    domain with a fresh :class:`OpCounter`, so it must compute on plain
    int64 ``KernelMath`` instances, under the runtime guards, and be
    elementwise in its charges: that run must charge each kind exactly n
    times what a run on the one code lo does.
    """
    def run(codes):
        counter = OpCounter()
        return stage(codes, counter, *args), counter
    try:
        _, one = run(np.array([lo], dtype=np.int64))
        values, whole = run(np.arange(lo, hi + 1, dtype=np.int64))
    except KernelOverflowError:
        return None
    n = hi - lo + 1
    if any(getattr(whole, k) != n * getattr(one, k) for k in _KINDS):
        raise ValueError(f"{stage.__name__} does not charge per code")
    cast = values.astype(dtype)
    if not np.array_equal(cast, values):
        raise OverflowError(f"{stage.__name__} has values past {np.dtype(dtype)}")
    table = np.roll(cast, lo)
    table.setflags(write=False)
    return CodeTable(table, magnitude(values),
                     tuple((k, getattr(one, k)) for k in _KINDS if getattr(one, k)))


def tabulated(stage, codes: np.ndarray, counter: OpCounter | None, lo: int, hi: int, dtype,
              *args) -> tuple[np.ndarray, int]:
    """``stage(codes, counter, *args)`` on codes in [lo, hi], looked up in
    its :func:`code_table` in ``dtype``, and the largest magnitude it can
    give: the table's peak. A stage that has no table is refused with
    :class:`KernelOverflowError`: it never runs on a call's codes."""
    table = code_table(stage, lo, hi, dtype, *args)
    if table is None:
        raise KernelOverflowError(f"{stage.__name__} overflows 64 signed bits on some code"
                                  f" of [{lo}, {hi}], so it has no table")
    return KernelMath(counter).lookup(table, codes), table.peak


def mul_bound(a: int, b: int) -> int:
    """Largest product of magnitudes up to a and b that the guard of
    :meth:`KernelMath.mul` admits, so that a stage bound which covers it,
    and fits the stage's width, passes that guard."""
    return (1 << (a.bit_length() + b.bit_length())) - 1


def buffer_for(km: KernelMath, x: np.ndarray) -> np.ndarray | None:
    """``x`` as the ``out=`` of a ``km`` call where it holds ``km``'s dtype,
    else None, so that the call allocates one result of that dtype; ``x``
    must be the caller's own array (the buffer rule)."""
    return x if x.dtype == km.dtype else None


class StageBound:
    """Static magnitude bound of one kernel stage: its transfer function
    replays the stage's ``KernelMath`` calls on the largest magnitudes
    their operands can take, and ``bound`` collects the largest value any
    call can give, with the guard envelope of each ``mul`` and ``lshift``.
    That is the bound :meth:`KernelMath.within` takes for the stage.

    Every method returns the magnitude bound of the call's result;
    ``add`` serves subtraction too."""

    __slots__ = ("bound",)

    def __init__(self, *inputs: int):
        self.bound = max(inputs, default=0)

    def value(self, v: int) -> int:
        self.bound = max(self.bound, v)
        return v

    def add(self, a: int, b: int) -> int:
        return self.value(a + b)

    def mul(self, a: int, b: int) -> int:
        self.value(mul_bound(a, b))
        return a * b

    def lshift(self, a: int, k: int) -> int:
        self.value((1 << (a.bit_length() + k)) - 1 if a else 0)
        return a << k

    def rshift_round(self, a: int, k: int) -> int:
        if k <= 0:
            return self.lshift(a, -k)
        return self.add(a, 1 << (k - 1)) >> k

    def rshift_round_add(self, a: int, k: int, c: int) -> int:
        if k <= 0:
            return self.add(self.lshift(a, -k), c)
        return self.add(a, (1 << (k - 1)) + (c << k)) >> k

    def matmul(self, k: int, a: int, b: int) -> int:
        return self.value(k * a * b)


class KernelMath:
    """Instrumented integer array arithmetic for vectorized kernels.

    Every method checks that array operands carry an integer dtype (a real
    dtype records a float violation and raises) and charges the counter by
    the number of scalar operations performed. Right shifts on negative
    values are arithmetic, i.e. floor-division semantics.

    The elementwise methods compute in ``dtype``, int64 or int32, with
    their operands cast to it, and take an optional ``out=``, an array of
    that dtype the caller owns (never one it was handed) with the result's
    shape; it may be one of the operands. Every check runs before anything
    is written, so a method that raises leaves ``out`` as it was, and the
    charge is the same with or without ``out=``. Without it, a method
    allocates one result.

    The overflow guards of ``mul``, ``lshift`` and ``rshift_round_add``
    check against 63 signed bits: from ``bound`` where the instance has one
    (see :meth:`within`), else from a max/min scan of the operands. An instance made without a
    bound computes in int64. Only :meth:`within` makes an int32 one, and
    nothing guards its other methods or its operand casts: its bound is the
    promise that every value of the chain fits. Constants on an int32 chain
    are Python ints, which numpy refuses rather than wraps when they do not
    fit.
    """

    __slots__ = ("counter", "dtype", "bound")

    def __init__(self, counter: OpCounter | None = None):
        self.counter = counter if counter is not None else OpCounter()
        self.dtype = _INT64
        self.bound = None

    @classmethod
    def within(cls, counter: OpCounter | None, bound: int) -> "KernelMath":
        """The ``KernelMath`` of a stage whose every value, and the guard
        envelope of each of its multiplies and left shifts, lies within
        ``bound`` in magnitude (a :class:`StageBound`), charging ``counter``
        (a fresh one where it is None).

        It computes in int32 where the bound fits 31 bits, else in int64,
        and where the bound fits 63 bits the ``mul``, ``lshift`` and
        ``rshift_round_add`` guards pass without scanning their operands,
        since the bound shows they would. A bound past 63 bits gives a
        plain int64 instance under the runtime guards."""
        km = cls.__new__(cls)
        km.counter = counter if counter is not None else OpCounter()
        km.dtype = _INT32 if bound < 1 << 31 else _INT64
        km.bound = bound if bound < 1 << 63 else None
        return km

    def _guard(self, *xs) -> int:
        """Refuse real operands, recording a float violation, and return
        the call's charge size: the largest array operand's size, at least 1."""
        n = 1
        for x in xs:
            if type(x) is int:   # the commonest operand after arrays, and never real
                continue
            if isinstance(x, np.ndarray):
                if x.dtype.kind not in "iu":
                    self.counter.float_violations += 1
                    raise IntegerViolation(
                        f"array with dtype {x.dtype} on the integer kernel path"
                    )
                if x.size > n:
                    n = x.size
            elif isinstance(x, (float, np.floating)):
                self.counter.float_violations += 1
                raise IntegerViolation("real scalar on the integer kernel path")
        return n

    def add(self, a, b, out=None):
        self.counter.adds += self._guard(a, b)
        return np.add(a, b, out=out, dtype=self.dtype)

    def sub(self, a, b, out=None):
        self.counter.adds += self._guard(a, b)
        return np.subtract(a, b, out=out, dtype=self.dtype)

    def mul(self, a, b, out=None):
        n = self._guard(a, b)
        if self.bound is None:
            # cheap magnitude check: products must stay inside the signed
            # width, and a zero operand does not excuse a scalar that it
            # cannot hold
            ma = magnitude(a)
            mb = ma if b is a else magnitude(b)
            bits = ma.bit_length() + mb.bit_length() if ma and mb else max(ma, mb).bit_length()
            if bits > 63:
                raise KernelOverflowError(f"product magnitudes up to {ma} * {mb} may exceed"
                                          " 64-bit signed range")
        self.counter.muls += n
        return np.multiply(a, b, out=out, dtype=self.dtype)

    def floordiv(self, a, b, out=None):
        self.counter.divs += self._guard(a, b)
        return np.floor_divide(a, b, out=out, dtype=self.dtype)

    def floordiv_rows(self, a, b, bits: int, out=None):
        """``a // b``, charged as :meth:`floordiv`, for ``a`` within
        2^bits - 1 in magnitude (a static bound: nothing scans it) and ``b``
        one divisor >= 1 per row of ``a``, its last axis of length 1.

        Where bits <= 31 and ``a`` has at least ``RECIP_MIN_SIZE``
        elements, each row divides by its exact reciprocal
        (:func:`reciprocal_floordiv`): a few passes of multiplies, shifts
        and xors instead of one of divisions. Smaller calls, whose
        reciprocals would cost more to set up than they save, and wider
        ``a`` divide."""
        self.counter.divs += self._guard(a, b, bits)
        if bits <= 31 and np.size(a) >= RECIP_MIN_SIZE:
            return reciprocal_floordiv(a, b, bits, out=out, dtype=self.dtype)
        return np.floor_divide(a, b, out=out, dtype=self.dtype)

    def rshift(self, a, k, out=None):
        self.counter.shifts += self._guard(a, k)
        return np.right_shift(a, k, out=out, dtype=self.dtype)

    def lshift(self, a, k, out=None):
        n = self._guard(a, k)
        if self.bound is None:
            ma = magnitude(a)
            if isinstance(k, np.ndarray):
                mk = int(k.max()) if k.size else 0
            else:
                mk = int(k)
            if ma and ma.bit_length() + mk > 63:
                raise KernelOverflowError("left shift may exceed 64-bit signed range")
        self.counter.shifts += n
        return np.left_shift(a, k, out=out, dtype=self.dtype)

    def minimum(self, a, b, out=None):
        self.counter.compares += self._guard(a, b)
        return np.minimum(a, b, out=out, dtype=self.dtype)

    def maximum(self, a, b, out=None):
        self.counter.compares += self._guard(a, b)
        return np.maximum(a, b, out=out, dtype=self.dtype)

    def abs(self, a):
        n = self._guard(a)
        self.counter.compares += n
        self.counter.adds += n
        return np.abs(a).astype(self.dtype, copy=False)

    def sign(self, a):
        self.counter.compares += 2 * self._guard(a)
        return np.sign(a).astype(self.dtype, copy=False)

    def clip(self, a, lo, hi, out=None):
        """``a`` clipped onto [lo, hi] in one pass, charged as the two
        compares it replaces; the bounds are not charged."""
        self._guard(lo, hi)
        self.counter.compares += 2 * self._guard(a)
        return _clip(a, lo, hi, out=out, dtype=self.dtype)

    def sum(self, a, axis=-1, keepdims=True):
        """Row sums, accumulated in int64 whatever the dtype."""
        self._guard(a)
        n = a.shape[axis] if isinstance(a, np.ndarray) and a.ndim else 1
        self.counter.adds += max(n - 1, 0) * (a.size // max(n, 1))
        return np.add.reduce(a, axis=axis, dtype=np.int64, keepdims=keepdims)

    def max(self, a, axis=-1, keepdims=True):
        self._guard(a)
        n = a.shape[axis] if isinstance(a, np.ndarray) and a.ndim else 1
        self.counter.compares += max(n - 1, 0) * (a.size // max(n, 1))
        out = np.maximum.reduce(a, axis=axis, keepdims=keepdims)
        return out if out.dtype == self.dtype else out.astype(self.dtype)

    def matmul(self, a, b, mags: tuple[int, int] | None = None):
        """Integer matrix product, exact, in this instance's dtype.

        Every partial sum is bounded by ``k * max|a| * max|b|``, taken from
        ``mags``, the operands' static magnitudes, where they are given and
        pass the guard, else from a scan of the operands. Past 2^62 the
        product is refused. Under 2^24 every partial sum is an integer that
        float32 holds exactly in any summation order, and under 2^52 float64
        does, so the product runs on float32 or float64 BLAS and is cast
        back; otherwise on int64. Only integer operands are accepted either
        way. The bit budget bitlen(max|a|) + bitlen(max|b|) + bitlen(k) is
        summed once per magnitudes taken, and both the guard and the path
        read it.
        """
        a, b = np.asarray(a), np.asarray(b)
        self._guard(a, b)
        k = a.shape[-1]
        ma, mb = mags if mags is not None else (magnitude(a), magnitude(b))
        bits = ma.bit_length() + mb.bit_length() + k.bit_length() if ma and mb else 0
        if bits > 62 and mags is not None:   # static magnitudes past the guard: scan
            ma, mb = magnitude(a), magnitude(b)
            bits = ma.bit_length() + mb.bit_length() + k.bit_length() if ma and mb else 0
        if bits > 62:
            raise KernelOverflowError("accumulated matmul may exceed 64-bit signed range")
        if k * ma * mb < EXACT_FLOAT32:
            out = np.matmul(a.astype(np.float32), b.astype(np.float32)).astype(self.dtype)
        elif bits <= EXACT_FLOAT_BITS:
            out = np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(self.dtype)
        else:
            out = np.matmul(a.astype(np.int64), b.astype(np.int64)).astype(self.dtype, copy=False)
        self.counter.muls += out.size * k
        self.counter.adds += out.size * max(k - 1, 0)
        return out

    def lookup(self, table: CodeTable, codes):
        """``table``'s stage at each of ``codes``, in the table's dtype,
        by one gather, charged what the stage charges per code times the
        call's charge size: the same counts as running the stage on
        ``codes``. The codes must lie in the table's domain, as a kernel's
        lie in [0, qmax]: only those past [-n, n), n the table's length,
        raise IndexError."""
        n = self._guard(table, codes)
        for kind, count in table.charge:
            setattr(self.counter, kind, getattr(self.counter, kind) + count * n)
        return np.take(table.values, codes)

    def rshift_round(self, a, k: int, out=None):
        """Right shift with round-half-up, used to rescale after multiplies."""
        n = self._guard(a, k)
        if k <= 0:
            return self.lshift(a, -k, out=out)
        self.counter.adds += n
        self.counter.shifts += n
        out = np.add(a, 1 << (k - 1), out=out, dtype=self.dtype)
        return np.right_shift(out, k, out=out if isinstance(out, np.ndarray) else None)

    def rshift_round_add(self, a, k: int, c: int, out=None):
        """``rshift_round(a, k) + c``, charged as those two calls. For k > 0
        it is one add and one shift: c << k rides on the rounding constant,
        since (x + (c << k)) >> k = (x >> k) + c for arithmetic shifts.
        Where the instance has no bound, that folded sum is guarded against
        63 signed bits by a scan of ``a``."""
        n = self._guard(a, k, c)
        if k <= 0:
            out = self.lshift(a, -k, out=out)
            return self.add(out, c, out=out if isinstance(out, np.ndarray) else None)
        const = (1 << (k - 1)) + (c << k)
        if self.bound is None and magnitude(a) + abs(const) >= 1 << 63:
            raise KernelOverflowError("rounding shift may exceed 64-bit signed range")
        self.counter.adds += 2 * n
        self.counter.shifts += n
        out = np.add(a, const, out=out, dtype=self.dtype)
        return np.right_shift(out, k, out=out if isinstance(out, np.ndarray) else None)

    def isqrt(self, n, steps: int, seed: str):
        """Floor square root of each element of ``n`` >= 0 (a negative one
        is refused uncharged), in this instance's dtype, by at most
        ``steps`` Newton steps x = min(x, (x + n // x) >> 1) in int64, each
        charged only to the elements still moving, so that a row's count is
        its own. The ``"shift"`` seed 2^ceil(bitlen(n)/2) is charged a shift
        per bit, as a shift-until-zero loop spends; the ``"poly"`` seed
        ((m*m >> 9) + (m >> 3) + 4) * 2^e >= sqrt(m * 4^e), on the mantissa
        m < 64 left by e quarterings, a shift per quartering.

        An operand of at most ``ISQRT_INT_MAX_SIZE`` elements steps one
        element at a time in Python ints (:meth:`_isqrt_ints`), with the
        same roots and charges: for so few elements the vectorized loop's
        half-dozen numpy calls per step cost more than the steps."""
        self._guard(n, steps, seed)
        if seed not in ("shift", "poly"):
            raise ValueError(f"unknown square-root seed {seed!r}")
        if np.size(n) <= ISQRT_INT_MAX_SIZE:
            return self._isqrt_ints(n, steps, seed)
        if np.any(np.less(n, 0)):
            raise ValueError("isqrt of a negative element")
        c, shape = self.counter, np.shape(n)
        n = np.asarray(n, dtype=np.int64).ravel()
        zero, size = n == 0, n.size
        n = np.where(zero, 1, n)  # keep Newton's divisor away from zero
        if seed == "shift":
            bl = _bit_length(n)
            c.shifts += int(bl.sum())
            x = np.int64(1) << ((bl + 1) >> 1)
        else:
            e = np.maximum(_bit_length(n) - 5, 0) >> 1
            m = n >> (2 * e)
            c.shifts += int(e.sum()) + 3 * size
            c.muls += size
            c.adds += 2 * size
            x = (((m * m) >> 9) + (m >> 3) + 4) << e
        x = np.maximum(x, 1)
        y, live = np.empty_like(x), size   # live: elements still stepping
        for _ in range(steps):
            if not live:
                break
            np.floor_divide(n, x, out=y)
            np.right_shift(np.add(y, x, out=y), 1, out=y)
            c.divs += live
            c.adds += live
            c.shifts += live
            c.compares += live
            live = int(np.count_nonzero(y < x))
            np.minimum(x, y, out=x)
        return np.where(zero, 0, x).reshape(shape).astype(self.dtype, copy=False)

    def _isqrt_ints(self, n, steps: int, seed: str):
        """:meth:`isqrt` one element at a time in Python ints: the same
        seeds, Newton steps and stopping test, so the same roots, and each
        element charged what the vectorized loop charges it, its seed and
        one step for each step it takes, the one that stops it included."""
        values = np.ravel(n).tolist()
        if values and min(values) < 0:
            raise ValueError("isqrt of a negative element")
        roots, shifts, taken = [], 0, 0   # taken: Newton steps, over all elements
        for v in values:
            w = v or 1   # keep Newton's divisor away from zero
            bl = w.bit_length()
            if seed == "shift":
                shifts += bl
                x = 1 << ((bl + 1) >> 1)
            else:
                e = max(bl - 5, 0) >> 1
                m = w >> 2 * e
                shifts += e
                x = (((m * m) >> 9) + (m >> 3) + 4) << e
            for _ in range(steps):   # both seeds are >= 1
                taken += 1
                y = (x + w // x) >> 1
                if y >= x:
                    break
                x = y
            roots.append(x if v else 0)
        c, size = self.counter, len(values)
        if seed == "poly":
            shifts += 3 * size
            c.muls += size
            c.adds += 2 * size
        c.shifts += shifts + taken
        c.divs += taken
        c.adds += taken
        c.compares += taken
        return np.array(roots, dtype=_INT64).reshape(np.shape(n)).astype(self.dtype, copy=False)

    def log2_ratio(self, num, den):
        """round(log2(den / num)), half upward in log space, per element of
        the array ``num``, 0 <= num <= den (``den`` broadcasts), and 63
        where num is 0, in this instance's dtype. It is charged as the
        shift-compare search it replaces, k + 1 shifts and compares per
        positive num for k = floor(log2(den/num)), and two multiplies and a
        compare per element, but runs in a few passes: with
        j = bitlen(den) - bitlen(num) and s = num << j, k is j or j - 1 (s >
        den), rounded up where den^2 >= 2 (num << k)^2. That test is two
        compares of s with per-row thresholds, r = isqrt(den^2 >> 1) (round
        up where s <= r) and max(den, 2r + 1) (go down where s is above
        it), so no element is squared. A zero num takes j = 62, which those
        compares turn into 63. Bit lengths are exact, int32 ones by
        ``np.frexp``. den^2 must fit int64, so den must fit 31 bits, as an
        int32 instance's bound promises and an int64 one checks."""
        self._guard(num, den)
        dtype, size = self.dtype, num.size
        if dtype != _INT32 and magnitude(den) >> 31:
            raise KernelOverflowError("log2_ratio's squares may exceed 64-bit signed range")
        den = np.asarray(den, dtype=np.int64)
        # the thresholds, per row and uncharged. r = isqrt(den^2 >> 1), which
        # is floor(den / sqrt 2), is x or x - 1 for x = den * ceil(2^31.5)
        # >> 32: the constant exceeds 2^32 / sqrt 2 by under 0.03, which
        # den < 2^31 turns into under 0.02. s < 2^31, so a threshold past
        # the int32 range compares as the range's top.
        r = np.right_shift(den * _SQRT_HALF_Q32, 32)
        r -= r * r > (den * den) >> 1
        hi = np.minimum(np.maximum(den, 2 * r + 1), np.iinfo(dtype).max).astype(dtype)
        r, bits, den = r.astype(dtype), _bit_length(den).astype(dtype), den.astype(dtype)
        # bitlen(num), 0 for 0: int32 ones are frexp's int32 exponents as they are
        k = np.frexp(num)[1] if num.dtype == _INT32 else _bit_length(num)
        k = np.subtract(bits, k, out=k if k.dtype == dtype else None, dtype=dtype)   # j
        positive = int(np.count_nonzero(num))
        if positive < size:
            np.maximum(k, np.multiply(num == 0, 62, dtype=dtype), out=k)
        shifted = np.left_shift(num, k, dtype=dtype)
        steps = (int(k.sum()) - 62 * (size - positive) + positive
                 - int(np.count_nonzero(shifted > den)))
        self.counter.shifts += steps
        self.counter.compares += steps + size
        self.counter.muls += 2 * size
        np.add(k, shifted <= r, out=k)
        return np.subtract(k, shifted > hi, out=k)
