import math
from itertools import product

import numpy as np
import pytest

from qftkit import revarith
from qftkit.circuit import CircuitBuilder
from qftkit.revarith import (
    build_adder,
    build_four_two,
    build_iterated_product,
    build_modmul,
    build_multiplier,
    build_prefix_add,
    build_subtractor,
    build_telescoping_subtract,
    build_three_two,
    precompute_powers,
)
from qftkit.sim import run_classical_bits, run_sparse


def fields(value: int, widths):
    out = []
    shift = 0
    for w in widths:
        out.append((value >> shift) & ((1 << w) - 1))
        shift += w
    return out, value >> shift


# every reference kind over three wires: live, negated, constant
REFS = [0, 1, 2, ("not", 0), ("not", 1), revarith.ZERO, revarith.ONE]


def ref_value(r, bits: int) -> int:
    if r == revarith.ZERO or r == revarith.ONE:
        return int(r == revarith.ONE)
    if isinstance(r, int):
        return bits >> r & 1
    return 1 - (bits >> r[1] & 1)


class TestReferenceAlgebra:
    """The emitters on reference mixes, aliases and constants included, at every wire input."""

    @staticmethod
    def check(emit, op, arity):
        for refs in product(REFS, repeat=arity):
            b = CircuitBuilder(4)
            revarith.xor_into(b, 3, emit(b, *refs))
            c = b.build()
            for bits in range(8):
                out = run_classical_bits(c, bits)
                assert out & 0b111 == bits, f"{refs} changed its inputs at {bits:03b}"
                want = op([ref_value(r, bits) for r in refs])
                assert out >> 3 & 1 == want, f"{refs} at {bits:03b}"

    def test_and(self):
        self.check(revarith.emit_and, lambda v: v[0] & v[1], 2)

    def test_majority(self):
        self.check(revarith.emit_maj, lambda v: int(sum(v) >= 2), 3)


class TestAdderSubtractor:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adder_exhaustive(self, n):
        c = build_adder(n)
        for packed in range(1 << (2 * n)):
            (x0, y0), _ = fields(packed, [n, n])
            (x, y), junk = fields(run_classical_bits(c, packed), [n, n])
            assert junk == 0, "ancillas must return to zero"
            assert x == x0
            assert y == (x0 + y0) & ((1 << n) - 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_subtractor_inverts_adder(self, n):
        add, sub = build_adder(n), build_subtractor(n)
        for packed in range(1 << (2 * n)):
            assert run_classical_bits(sub, run_classical_bits(add, packed)) == packed

    def test_adder_depth_logarithmic(self):
        # carry lookahead: doubling the width should add O(1) tree levels
        d4, d16 = build_adder(4).depth, build_adder(16).depth
        assert d16 < 2 * d4


class TestCarrySave:
    @pytest.mark.parametrize("n", [1, 2])
    def test_three_two_preserves_sum(self, n):
        c = build_three_two(n)
        for packed in range(1 << (3 * n)):
            out = run_classical_bits(c, packed)
            (x, y, z, s, carry), junk = fields(out, [n, n, n, n, n + 1])
            assert junk == 0
            assert (x, y, z) == tuple(fields(packed, [n, n, n])[0])
            assert s + carry == x + y + z

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_four_two_preserves_sum(self, n):
        c = build_four_two(n)
        for packed in range(1 << (4 * n)):
            out = run_classical_bits(c, packed)
            (x, y, z, w, s, carry), junk = fields(out, [n, n, n, n, n + 1, n + 2])
            assert junk == 0
            assert s + carry == x + y + z + w

    def test_public_counters_run_the_live_emitters(self, monkeypatch):
        # the exhaustive checks above certify the counters the multiplier and
        # the prefix adder call, not a copy of them
        calls = {"three_two": 0, "four_two": 0}

        def counted(name, emit):
            def wrapped(*args):
                calls[name] += 1
                return emit(*args)

            return wrapped

        for name in calls:
            emitter = f"_emit_{name}_refs"
            monkeypatch.setattr(revarith, emitter, counted(name, getattr(revarith, emitter)))
        build_three_two(2)
        assert calls == {"three_two": 1, "four_two": 0}
        build_four_two(2)
        assert calls == {"three_two": 3, "four_two": 1}

    def test_three_two_depth_constant_in_width(self):
        # no carry chain: the depth must not grow with n
        assert build_three_two(8).depth == build_three_two(2).depth


class TestPrefixAdd:
    @pytest.mark.parametrize("k,n", [(2, 2), (3, 2), (4, 1)])
    def test_prefix_sums_exhaustive(self, k, n):
        c = build_prefix_add(k, n)
        mask = (1 << n) - 1
        for packed in range(1 << (k * n)):
            regs, _ = fields(packed, [n] * k)
            out = run_classical_bits(c, packed)
            sums, junk = fields(out, [n] * k)
            assert junk == 0
            assert sums == [sum(regs[: j + 1]) & mask for j in range(k)]

    def test_telescoping_is_inverse(self):
        k, n = 3, 2
        fwd, back = build_prefix_add(k, n), build_telescoping_subtract(k, n)
        for packed in range(1 << (k * n)):
            assert run_classical_bits(back, run_classical_bits(fwd, packed)) == packed

    def test_depth_sublinear_in_register_count(self):
        d2 = build_prefix_add(2, 2).depth
        d8 = build_prefix_add(8, 2).depth
        assert d8 < 4 * d2, "prefix tree should not grow linearly with k"


class TestMultipliers:
    @pytest.mark.parametrize("nx,ny,n_out", [(2, 2, 4), (2, 3, 5)])
    def test_multiplier_exhaustive(self, nx, ny, n_out):
        c = build_multiplier(nx, ny, n_out)
        for packed in range(1 << (nx + ny)):
            (x, y, out), junk = fields(run_classical_bits(c, packed), [nx, ny, n_out])
            assert junk == 0
            assert out == (x * y) % (1 << n_out)

    @pytest.mark.parametrize("modulus", [3, 5, 7])
    def test_modmul_exhaustive(self, modulus):
        c = build_modmul(modulus)
        nb = modulus.bit_length()
        for u in range(modulus):
            for v in range(modulus):
                (_, _, out), junk = fields(run_classical_bits(c, u | (v << nb)), [nb, nb, nb])
                assert junk == 0
                assert out == (u * v) % modulus


class TestIteratedProduct:
    def test_matches_modular_exponentiation(self):
        powers = precompute_powers(7, 15, 8)
        c = build_iterated_product(15, powers)
        for x in range(256):
            out = run_classical_bits(c, x)
            (ctrl, prod), junk = fields(out, [8, 4])
            assert junk == 0
            assert ctrl == x
            assert prod == pow(7, x, 15)

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_odd_factor_count_carries_the_last_leaf_up(self, m):
        c = build_iterated_product(15, precompute_powers(7, 15, m))
        for x in range(1 << m):
            (ctrl, prod), junk = fields(run_classical_bits(c, x), [m, 4])
            assert (ctrl, prod, junk) == (x, pow(7, x, 15), 0)

    def test_precompute_powers_oracle(self, rng):
        for _ in range(200):
            modulus = int(rng.integers(3, 4096)) | 1
            a = int(rng.integers(1, modulus))
            if math.gcd(a, modulus) != 1:
                continue
            count = int(rng.integers(1, 12))
            assert precompute_powers(a, modulus, count) == [
                pow(a, 1 << j, modulus) for j in range(count)
            ]


class TestFourierDomain:
    def test_subtractor_adds_in_the_fourier_basis(self):
        """A computational-basis subtraction acts as addition on phase registers."""
        n, m = 3, 8
        c = build_subtractor(n)
        omega = np.exp(2j * np.pi / m)
        phase = lambda a: omega ** (a * np.arange(m)) / math.sqrt(m)
        for a, b in ((1, 2), (3, 7), (5, 5), (0, 4)):
            initial = {
                x | (y << n): phase(a)[x] * phase(b)[y] for x in range(m) for y in range(m)
            }
            final = run_sparse(c, initial=initial).amplitudes
            expected = {
                x | (y << n): phase((a + b) % m)[x] * phase(b)[y]
                for x in range(m)
                for y in range(m)
            }
            err = sum(abs(final.get(k, 0) - v) ** 2 for k, v in expected.items())
            assert math.sqrt(err) < 1e-10
