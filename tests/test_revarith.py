import math
from itertools import product

import numpy as np
import pytest

from qftkit import qft_pow2, revarith
from qftkit.circuit import CircuitBuilder
from qftkit.revarith import (
    build_carry_save,
    build_iterated_product,
    build_modmul,
    build_multiplier,
    build_prefix_add,
    build_telescoping_subtract,
    precompute_powers,
)
from qftkit.sim import run_classical_batch, run_sparse


def fields(value: int, widths):
    out = []
    shift = 0
    for w in widths:
        out.append((value >> shift) & ((1 << w) - 1))
        shift += w
    return out, value >> shift


# every reference kind over three wires: live, negated, constant
REFS = [0, 1, 2, ~0, ~1, revarith.ZERO, revarith.ONE]


def ref_value(r, bits: int) -> int:
    if r == revarith.ZERO or r == revarith.ONE:
        return int(r == revarith.ONE)
    if r >= 0:
        return bits >> r & 1
    return 1 - (bits >> ~r & 1)


class TestReferenceAlgebra:
    """The emitters on reference mixes, aliases and constants included, at every wire input."""

    @staticmethod
    def check(emit, op, arity):
        for refs in product(REFS, repeat=arity):
            b = CircuitBuilder(4)
            revarith.xor_into(b, 3, emit(b, *refs))
            outs = run_classical_batch(b.build(), range(8))
            for bits, out in enumerate(outs):
                assert out & 0b111 == bits, f"{refs} changed its inputs at {bits:03b}"
                want = op([ref_value(r, bits) for r in refs])
                assert out >> 3 & 1 == want, f"{refs} at {bits:03b}"

    def test_and(self):
        self.check(revarith.emit_and, lambda v: v[0] & v[1], 2)

    def test_majority(self):
        self.check(revarith.emit_maj, lambda v: int(sum(v) >= 2), 3)


class TestAdderSubtractor:
    """The in-place adder and subtractor are the prefix builders at k = 2."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adder_exhaustive(self, n):
        outs = run_classical_batch(build_prefix_add(2, n), range(1 << (2 * n)))
        for packed, out in enumerate(outs):
            (x0, y0), _ = fields(packed, [n, n])
            (x, y), junk = fields(out, [n, n])
            assert junk == 0, "ancillas must return to zero"
            assert x == x0
            assert y == (x0 + y0) & ((1 << n) - 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_subtractor_inverts_adder(self, n):
        add, sub = build_prefix_add(2, n), build_telescoping_subtract(2, n)
        inputs = list(range(1 << (2 * n)))
        assert run_classical_batch(sub, run_classical_batch(add, inputs)) == inputs

    def test_adder_depth_logarithmic(self):
        # carry lookahead: each doubling of the width adds O(1) tree levels
        d4, d16 = build_prefix_add(2, 4).depth, build_prefix_add(2, 16).depth
        assert d16 < 2 * d4


def write_only_ancillas(circ):
    """Ancillas that are flip targets and never read by any gate."""
    read, hit = set(), set()
    for g in circ.all_gates():
        qs = g.qubits()
        if g.family == "flip":
            read.update(qs[:-1])
            hit.add(qs[-1])
        else:
            read.update(qs)
    return sorted(w for w in hit - read if w >= circ.n_qubits)


class TestCarryNetwork:
    """_emit_carries builds only carries that can be set and are read."""

    @pytest.mark.parametrize("carry_in", [False, True])
    @pytest.mark.parametrize("w", [1, 2, 3, 5, 8])
    def test_returns_one_carry_per_position(self, w, carry_in):
        b = CircuitBuilder(2 * w)
        p, carries = revarith._emit_carries(b, list(range(w)), list(range(w, 2 * w)), carry_in)
        assert len(p) == len(carries) == w

    @pytest.mark.parametrize("carry_in", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_adds_every_constant_exhaustively(self, n, carry_in):
        # every c, so every length of the zero run below c's lowest set bit
        mask = (1 << n) - 1
        for c in range(1 << n):
            b = CircuitBuilder(2 * n)
            xs, outs = list(range(n)), list(range(n, 2 * n))
            revarith._emit_addsub_core(b, xs, revarith.const_bits(c, n), outs, carry_in)
            for x, out in enumerate(run_classical_batch(b.build(), range(1 << n))):
                (x_out, s), junk = fields(out, [n, n])
                assert junk == 0, "ancillas must return to zero"
                assert (x_out, s) == (x, (x + c + carry_in) & mask), (x, c)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_prefix_add(3, 4),
            lambda: build_prefix_add(8, 16),
            lambda: build_prefix_add(4, 64),
            lambda: qft_pow2.copy_fourier(3, 5),
        ],
        ids=["prefix_add(3,4)", "prefix_add(8,16)", "prefix_add(4,64)", "copy_fourier(3,5)"],
    )
    def test_no_ancilla_is_only_written(self, build):
        assert write_only_ancillas(build()) == []


class TestCarrySave:
    """build_carry_save(rows, n): the Wallace tree at the width that holds the sum."""

    @staticmethod
    def check_exact_sum(rows, n):
        w = n + (rows - 1).bit_length()
        outs = run_classical_batch(build_carry_save(rows, n), range(1 << (rows * n)))
        for packed, out in enumerate(outs):
            (*regs, s, carry), junk = fields(out, [n] * rows + [w, w])
            assert junk == 0, "ancillas must return to zero"
            assert regs == fields(packed, [n] * rows)[0]
            assert s + carry == sum(regs)

    @pytest.mark.parametrize("n", [1, 2])
    def test_three_two_preserves_sum(self, n):
        self.check_exact_sum(3, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_four_two_preserves_sum(self, n):
        self.check_exact_sum(4, n)

    @pytest.mark.parametrize("rows, n", [(5, 2), (6, 1)])
    def test_deeper_trees_preserve_sum(self, rows, n):
        self.check_exact_sum(rows, n)

    def test_public_counters_run_the_live_emitters(self, monkeypatch):
        # the exhaustive checks above certify the tree the copy and the
        # prefix adder call, not a copy of it
        calls = []

        def counted(b, rows, width):
            calls.append(len(rows))
            return emit(b, rows, width)

        emit = revarith._emit_wallace
        monkeypatch.setattr(revarith, "_emit_wallace", counted)
        monkeypatch.setattr(qft_pow2, "_emit_wallace", counted)
        build_carry_save(5, 2)
        assert calls == [5]
        calls.clear()
        qft_pow2.copy_fourier(2, 4)
        assert calls == [3, 3, 3]
        calls.clear()
        build_prefix_add(3, 2)
        assert calls == [4, 4]

    def test_three_two_depth_constant_in_width(self):
        # no carry chain: the depth must not grow with n
        assert build_carry_save(3, 8).depth == build_carry_save(3, 2).depth

    @pytest.mark.parametrize("rows, n", [(3, 0), (0, 3)])
    def test_empty_shape_is_refused(self, rows, n):
        with pytest.raises(ValueError, match="need rows >= 1 and n >= 1"):
            build_carry_save(rows, n)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_a_cut_level_emits_no_carry_at_the_width(self, n):
        # n sums and n - 1 majorities: the carry into position n is never built
        b = CircuitBuilder(3 * n)
        revarith._emit_wallace(b, [range(j * n, (j + 1) * n) for j in range(3)], n)
        assert b.build().n_ancilla == 2 * n - 1


class TestPrefixAdd:
    @pytest.mark.parametrize("k,n", [(2, 2), (3, 2), (4, 1)])
    def test_prefix_sums_exhaustive(self, k, n):
        mask = (1 << n) - 1
        outs = run_classical_batch(build_prefix_add(k, n), range(1 << (k * n)))
        for packed, out in enumerate(outs):
            regs, _ = fields(packed, [n] * k)
            sums, junk = fields(out, [n] * k)
            assert junk == 0
            assert sums == [sum(regs[: j + 1]) & mask for j in range(k)]

    @pytest.mark.parametrize("builder", [build_prefix_add, build_telescoping_subtract])
    @pytest.mark.parametrize("k,n", [(0, 3), (2, 0)])
    def test_empty_shape_is_refused(self, builder, k, n):
        with pytest.raises(ValueError, match="need k >= 1 and n >= 1"):
            builder(k, n)

    def test_telescoping_is_inverse(self):
        k, n = 3, 2
        fwd, back = build_prefix_add(k, n), build_telescoping_subtract(k, n)
        inputs = list(range(1 << (k * n)))
        assert run_classical_batch(back, run_classical_batch(fwd, inputs)) == inputs

    def test_depth_sublinear_in_register_count(self):
        d2 = build_prefix_add(2, 2).depth
        d8 = build_prefix_add(8, 2).depth
        assert d8 < 4 * d2, "prefix tree should not grow linearly with k"


class TestMultipliers:
    @pytest.mark.parametrize("shape", [(2, 2, 0), (0, 2, 2)])
    def test_empty_multiplier_is_refused(self, shape):
        with pytest.raises(ValueError, match="need nx, ny and n_out >= 1"):
            build_multiplier(*shape)

    @pytest.mark.parametrize("nx,ny,n_out", [(2, 2, 4), (2, 3, 5)])
    def test_multiplier_exhaustive(self, nx, ny, n_out):
        outs = run_classical_batch(build_multiplier(nx, ny, n_out), range(1 << (nx + ny)))
        for bits in outs:
            (x, y, out), junk = fields(bits, [nx, ny, n_out])
            assert junk == 0
            assert out == (x * y) % (1 << n_out)

    @pytest.mark.parametrize("modulus", range(3, 32, 2))
    def test_modmul_exhaustive(self, modulus):
        # every odd modulus up to 31: 5,455 (u, v) pairs over the fifteen cases
        nb = modulus.bit_length()
        pairs = list(product(range(modulus), repeat=2))
        outs = run_classical_batch(build_modmul(modulus), [u | (v << nb) for u, v in pairs])
        for (u, v), out in zip(pairs, outs):
            (u_out, v_out, prod), junk = fields(out, [nb, nb, nb])
            assert junk == 0
            assert (u_out, v_out, prod) == (u, v, (u * v) % modulus)

    @pytest.mark.parametrize("modulus", [63, 65, 127, 129, 187, 255])
    def test_modmul_wide_moduli(self, modulus):
        # 7 and 8 bits: nb = 7 or 8 reduction steps, past the exhaustive range
        nb = modulus.bit_length()
        pairs = np.random.default_rng(modulus).integers(0, modulus, size=(256, 2)).tolist()
        outs = run_classical_batch(build_modmul(modulus), [u | v << nb for u, v in pairs])
        for (u, v), out in zip(pairs, outs):
            (u_out, v_out, prod), junk = fields(out, [nb, nb, nb])
            assert junk == 0
            assert (u_out, v_out, prod) == (u, v, (u * v) % modulus)

    @pytest.mark.parametrize(
        "modulus, counts", [(15, (332, 115, 116)), (187, (1_662, 345, 493))], ids=["15", "187"]
    )
    def test_modmul_runs_one_carry_network_per_step(self, monkeypatch, modulus, counts):
        # nb + 1 networks: one sums the 2nb-bit product, then each of the nb
        # reduction steps gives both its compare flag and its difference; a
        # reduction pads one ZERO position, whose carry in is the flag
        widths = []

        def counted(b, a_bits, b_bits):
            widths.append(len(a_bits))
            return emit(b, a_bits, b_bits)

        emit = revarith._emit_carries
        monkeypatch.setattr(revarith, "_emit_carries", counted)
        c = build_modmul(modulus)
        nb = modulus.bit_length()
        assert widths == [2 * nb] + list(range(2 * nb + 1, nb + 1, -1))
        assert (c.size, c.depth, c.width) == counts


UNITS = [(n, a) for n in (9, 15, 21) for a in range(2, n) if math.gcd(a, n) == 1]


def never_fired(circuit, xs) -> int:
    """How many flip gates of ``circuit`` find their controls all set on none of the inputs ``xs``.

    The same layer walk as ``run_classical_batch`` (an X is padded with the
    row held at 1, so it always fires), recording each gate's firing.
    """
    xs = list(xs)
    state = np.zeros((circuit.width + 1, len(xs)), dtype=bool)
    state[: circuit.n_qubits] = [[x >> w & 1 for x in xs] for w in range(circuit.n_qubits)]
    state[circuit.width] = True
    idle = 0
    for a, b, t in circuit.flip_layers:
        fire = state[a] & state[b]
        idle += int(np.count_nonzero(~fire.any(axis=1)))
        state[t] ^= fire
    return idle


class TestLookup:
    """``_emit_lookup`` on seeded random tables, every input of the window."""

    @staticmethod
    def monomials_built(table, w):
        """The monomials of two or more bits the lookup must build: each one the
        ANF of some output bit reads, and the prefixes it is built from."""
        anf = [0] * (1 << w)
        for s in range(1 << w):
            for t in range(1 << w):
                if t & s == t:  # the Moebius transform, subset by subset
                    anf[s] ^= table[t]
        built = set()
        for s in (s for s in range(1 << w) if anf[s]):
            while s.bit_count() >= 2 and s not in built:
                built.add(s)
                s ^= 1 << (s.bit_length() - 1)
        return built

    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
    def test_random_tables_on_every_input(self, rng, w):
        for nb in range(1, 9):
            table = [int(v) for v in rng.integers(0, 1 << nb, size=1 << w)]
            b = CircuitBuilder(w + nb)
            start = b.mark()
            refs = revarith._emit_lookup(b, list(range(w)), table, nb)
            stop = b.mark()
            for out, r in zip(range(w, w + nb), refs, strict=True):
                revarith.xor_into(b, out, r)
            b.uncompute(start, stop)
            c = b.build()
            for x, out in enumerate(run_classical_batch(c, range(1 << w))):
                assert out == x | table[x] << w, f"w={w} nb={nb} x={x:0{w}b}"
            # one AND per monomial, computed once and uncomputed once
            toffolis = c.gate_histogram().get("ccx", 0)
            assert toffolis == 2 * len(self.monomials_built(table, w))
            assert toffolis <= 2 * ((1 << w) - w - 1)

    def test_windows_give_the_fewest_multiplier_levels(self):
        for leaves in range(1, 65):
            w = revarith._window_bits(leaves)
            levels = (-(-leaves // w) - 1).bit_length()  # of the pairwise tree over the windows
            fewest = next(k for k in range(7) if leaves <= revarith.LARGEST_WINDOW << k)
            assert w <= revarith.LARGEST_WINDOW and levels == fewest, leaves
            # as even as one width allows: a bit less per window would need another level
            assert w == 1 or -(-leaves // (w - 1)) > 1 << fewest, leaves
        assert revarith._window_bits(0) == 1

    def test_a_one_leaf_window_costs_no_gate(self):
        # factors[j] if x_j else 1: each bit is a constant, x_j or NOT x_j
        b = CircuitBuilder(1)
        refs = revarith._emit_lookup(b, [0], [1, 0b0110], 4)
        assert refs == [~0, 0, 0, revarith.ZERO]
        assert b.mark() == 0


class TestIteratedProduct:
    @pytest.mark.parametrize("modulus, a", UNITS, ids=[f"{n}-{a}" for n, a in UNITS])
    def test_matches_modular_exponentiation(self, modulus, a):
        # every unit of 15 has a power of 1 among its six, so identity leaves occur
        nb = modulus.bit_length()
        outs = run_classical_batch(build_iterated_product(modulus, precompute_powers(a, modulus, 6)), range(64))
        for x, out in enumerate(outs):
            (ctrl, prod), junk = fields(out, [6, nb])
            assert (ctrl, prod, junk) == (x, pow(a, x, modulus), 0)

    @pytest.mark.parametrize("modulus", [65, 119])
    def test_order_circuit_tree_on_every_input(self, modulus):
        # the order circuit's product tree at nb = 7 (2 * nb factors of 2), every input:
        # a reduction step that can subtract reads carries above bit 8 only from nb = 6 on
        nb = modulus.bit_length()
        c = build_iterated_product(modulus, precompute_powers(2, modulus, 2 * nb))
        outs = run_classical_batch(c, range(1 << (2 * nb)))
        for x, out in enumerate(outs):
            (ctrl, prod), junk = fields(out, [2 * nb, nb])
            assert (ctrl, prod, junk) == (x, pow(2, x, modulus), 0)

    @pytest.mark.parametrize("a", [a for a in range(2, 21) if math.gcd(a, 21) == 1])
    def test_every_unit_of_21_on_every_input(self, a):
        c = build_iterated_product(21, precompute_powers(a, 21, 10))
        for x, out in enumerate(run_classical_batch(c, range(1 << 10))):
            (ctrl, prod), junk = fields(out, [10, 5])
            assert (ctrl, prod, junk) == (x, pow(a, x, 21), 0)

    def test_odd_window_count_carries_the_last_window_up(self, rng):
        # 25 leaves (no power of 2 mod 21 is 1) make seven windows of 4, 4, 4, 4, 4, 4 and 1
        # bits: the first level pairs six and carries the seventh up unpaired
        m = 25
        assert -(-m // revarith._window_bits(m)) == 7
        c = build_iterated_product(21, precompute_powers(2, 21, m))
        xs = [0, (1 << m) - 1, 1 << (m - 1)] + [int(x) for x in rng.integers(0, 1 << m, size=61)]
        for x, out in zip(xs, run_classical_batch(c, xs)):
            (ctrl, prod), junk = fields(out, [m, 5])
            assert (ctrl, prod, junk) == (x, pow(2, x, 21), 0)

    @pytest.mark.parametrize("a", [a for a in range(2, 15) if math.gcd(a, 15) == 1])
    def test_every_gate_of_the_n15_trees_fires(self, a):
        # the order circuit's tree at N = 15: at most two powers differ from 1,
        # so it is one lookup, in which every gate flips its target on some input
        c = build_iterated_product(15, precompute_powers(a, 15, 8))
        assert never_fired(c, range(1 << 8)) == 0

    def test_the_census_sees_a_gate_that_never_fires(self):
        b = CircuitBuilder(3)
        b.toffoli(0, 1, 2)
        b.x(2)
        assert never_fired(b.build(), [0b001, 0b010]) == 1
        assert never_fired(b.build(), [0b011]) == 0

    @pytest.mark.parametrize("factors", [[], [1, 1, 1]], ids=["empty", "ones"])
    def test_empty_product_is_one(self, factors):
        m = len(factors)
        c = build_iterated_product(15, factors)
        assert (c.size, c.width) == (1, m + 4)
        for x, out in enumerate(run_classical_batch(c, range(1 << m))):
            (ctrl, prod), junk = fields(out, [m, 4])
            assert (ctrl, prod, junk) == (x, 1, 0)

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_odd_factor_count_carries_the_last_leaf_up(self, m):
        # 2 has order 6 mod 21 and 6 divides no 2^j, so no factor is 1 and all m are leaves
        factors = precompute_powers(2, 21, m)
        assert 1 not in factors
        outs = run_classical_batch(build_iterated_product(21, factors), range(1 << m))
        for x, out in enumerate(outs):
            (ctrl, prod), junk = fields(out, [m, 5])
            assert (ctrl, prod, junk) == (x, pow(2, x, 21), 0)

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
        c = build_telescoping_subtract(2, n)
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
