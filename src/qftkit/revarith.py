"""Reversible arithmetic built from X/CNOT/Toffoli gates.

Everything here works over *bit references*: a reference is a wire index
``w >= 0``, its virtual negation ``~w`` (the negative int ``-w - 1``), or a
constant ``ZERO``/``ONE``.  Constant folding on references is what keeps the
emitted circuits small; an AND with a known-zero bit emits nothing, an XOR
with a single live input is just an alias.  The carry-save reducer's one 3-2
cell, stated in ``_emit_wallace``, builds a full adder's carry from the sum's
x XOR y in two Toffolis and folds repeated, complementary, negated and
constant inputs.

Carry computation uses the generate/propagate pair (g, p) per position with
the combine ``G = g_hi XOR (p_hi AND g_lo)``, ``P = p_hi AND p_lo``; the XOR
form is exact because g and p of one position are never both set.  All
prefixes are computed with a Brent-Kung recursion (about 2k combines, 2 log k
combine levels), which also drives the register-level prefix networks.

Cleanup convention: every public builder returns a circuit whose ancillas
end at |0> on all inputs (compute / copy out / uncompute).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .circuit import Circuit, CircuitBuilder
from .errors import StructuralError

ZERO = "zero"
ONE = "one"
BitRef = int | str


def bnot(r: BitRef) -> BitRef:
    if r == ZERO:
        return ONE
    if r == ONE:
        return ZERO
    return ~r


def xor_into(b: CircuitBuilder, target: int, r: BitRef) -> None:
    """target ^= r: a CNOT from r's wire if it has one, then an X if r is negated (ONE negates no wire)."""
    if r == ZERO:
        return
    if r != ONE:
        b.cnot(r if r >= 0 else ~r, target)
    if r == ONE or r < 0:
        b.x(target)


def _and_fold(x: BitRef, y: BitRef) -> BitRef | None:
    if x == ZERO or y == ZERO:
        return ZERO
    if x == ONE:
        return y
    if y == ONE:
        return x
    if x == y:
        return x
    if x == ~y:
        return ZERO  # w AND ~w
    return None


def and_into(b: CircuitBuilder, target: int, x: BitRef, y: BitRef) -> None:
    """target ^= x AND y."""
    folded = _and_fold(x, y)
    if folded is not None:
        xor_into(b, target, folded)
        return
    # wires u, v negated by m, n: (u ^ m)(v ^ n) = m·n ^ n·u ^ m·v ^ uv
    u, v = (x if x >= 0 else ~x), (y if y >= 0 else ~y)
    if x < 0 and y < 0:
        b.x(target)
    if y < 0:
        b.cnot(u, target)
    if x < 0:
        b.cnot(v, target)
    b.toffoli(u, v, target)


def emit_and(b: CircuitBuilder, x: BitRef, y: BitRef) -> BitRef:
    """AND of two references, folded to a constant or an alias when it can be."""
    folded = _and_fold(x, y)
    if folded is not None:
        return folded
    t = b.new_ancilla()
    and_into(b, t, x, y)
    return t


def emit_xor(b: CircuitBuilder, refs: Sequence[BitRef]) -> BitRef:
    """XOR of references, folded to an alias when at most one wire survives."""
    parity = 0
    live: dict[int, int] = {}
    for r in refs:
        if r == ONE:
            parity ^= 1
        elif r != ZERO:
            if r < 0:
                r = ~r
                parity ^= 1
            live[r] = live.get(r, 0) ^ 1
    wires = [w for w, alive in live.items() if alive]
    if not wires:
        return ONE if parity else ZERO
    if len(wires) == 1:
        return ~wires[0] if parity else wires[0]
    t = b.new_ancilla()
    if parity:
        b.x(t)
    for w in wires:
        b.cnot(w, t)
    return t


# --- generate/propagate carries ---------------------------------------------


class GP(NamedTuple):
    g: BitRef
    p: BitRef


def _gp_combine(b: CircuitBuilder, hi: GP, lo: GP) -> GP:
    term = _and_fold(hi.p, lo.g)
    if term is not None:
        g = emit_xor(b, [hi.g, term])
    else:
        t = b.new_ancilla()
        xor_into(b, t, hi.g)
        and_into(b, t, hi.p, lo.g)
        g = t
    return GP(g, emit_and(b, hi.p, lo.p))


def _brent_kung(items: list, combine: Callable) -> list:
    """All prefixes of an associative op, lowest index first."""
    k = len(items)
    if k == 1:
        return list(items)
    pairs = [combine(items[2 * i + 1], items[2 * i]) for i in range(k // 2)]
    sub = _brent_kung(pairs, combine)
    out: list = [None] * k
    out[0] = items[0]
    for i in range(k // 2):
        out[2 * i + 1] = sub[i]
    for i in range(1, (k + 1) // 2):
        out[2 * i] = combine(items[2 * i], sub[i - 1])
    return out


def _emit_carries(
    b: CircuitBuilder, a_bits: Sequence[BitRef], b_bits: Sequence[BitRef], carry_in: bool = False
) -> tuple[list[BitRef], list[BitRef]]:
    """Carry-lookahead network of a+b(+carry_in), left for the caller's uncompute.

    Returns the half sums p_i = a_i XOR b_i and the carries c_0..c_{w-1}
    into the w positions, so sum bit i is p_i XOR c_i.  Three folds keep out
    what no gate reads: the top position's generate is not built, since only
    a carry out reads it (a caller that wants one pads a ZERO position); with
    no carry-in every leaf below the first generate that does not fold to
    ZERO enters the network as GP(ZERO, ZERO), since every carry there is 0;
    and that first live leaf enters with propagate ZERO, since a combine
    reads it only against the all-ZERO prefix below it.
    """
    if len(a_bits) != len(b_bits):
        raise StructuralError("addend widths differ")
    pairs = list(zip(a_bits, b_bits))
    leaves = [GP(emit_and(b, x, y), emit_xor(b, [x, y])) for x, y in pairs[:-1]]
    half_sums = [leaf.p for leaf in leaves] + [emit_xor(b, [x, y]) for x, y in pairs[-1:]]
    if not carry_in:
        live = next((i for i, leaf in enumerate(leaves) if leaf.g != ZERO), len(leaves))
        leaves[:live] = [GP(ZERO, ZERO)] * live
        if live < len(leaves):
            leaves[live] = GP(leaves[live].g, ZERO)
    seed = GP(ONE if carry_in else ZERO, ZERO)
    prefixes = _brent_kung([seed] + leaves, lambda hi, lo: _gp_combine(b, hi, lo))
    return half_sums, [pre.g for pre in prefixes]


def _emit_addsub_core(
    b: CircuitBuilder,
    a_bits: Sequence[BitRef],
    b_bits: Sequence[BitRef],
    outs: Sequence[int],
    carry_in: bool = False,
) -> None:
    """outs ^= the low sum bits of a+b(+carry_in); the carry network uncomputes itself."""
    out_refs = {*outs, *(~w for w in outs)}
    if any(r in out_refs for r in [*a_bits, *b_bits]):
        raise StructuralError("sum outputs overlap the addend wires")
    start = b.mark()
    p, carries = _emit_carries(b, a_bits, b_bits, carry_in)
    stop = b.mark()
    for i, out in enumerate(outs):
        xor_into(b, out, p[i])
        xor_into(b, out, carries[i])
    b.uncompute(start, stop)


def const_bits(value: int, width: int) -> list[BitRef]:
    return [ONE if (value >> i) & 1 else ZERO for i in range(width)]


# --- carry-save reduction ------------------------------------------------------


def _negated(r: BitRef) -> bool:
    return r == ONE or (r != ZERO and r < 0)


def _emit_cell(b: CircuitBuilder, x: BitRef, y: BitRef, z: BitRef, carry: bool) -> tuple[BitRef, BitRef]:
    """(sum, carry) references of x + y + z: the 3-2 cell that ``_emit_wallace`` states.

    With ``carry`` false no carry gate is emitted, and the carry reference is
    not to be read.
    """
    refs = [x, y, z]
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        if refs[i] == refs[j]:  # w + w + r = r + 2w
            return refs[k], refs[i]
        if refs[i] == bnot(refs[j]):  # w + ~w + r = ~r + 2r
            return bnot(refs[k]), refs[k]
    flip = sum(map(_negated, refs)) >= 2
    if flip:
        refs = [bnot(r) for r in refs]
    x, y, z = sorted(refs, key=lambda r: (r == ZERO, _negated(r)))
    t = b.new_ancilla()
    for r in (x, y):
        b.cnot(r if r >= 0 else ~r, t)
    c: BitRef = ZERO
    if carry:
        c = b.new_ancilla()
        and_into(b, c, t, z)
        and_into(b, c, x, y)
    if z not in (ZERO, ONE):
        b.cnot(z if z >= 0 else ~z, t)
    s = ~t if any(map(_negated, (x, y, z))) else t
    return (bnot(s), bnot(c)) if flip else (s, c)


def _emit_wallace(
    b: CircuitBuilder, rows: Sequence[Sequence[BitRef]], width: int
) -> tuple[list[BitRef], list[BitRef]]:
    """Wallace tree of 3-2 steps: two rows whose sum is that of ``rows`` mod 2^width.

    Every row is padded with ZERO or cut to ``width`` on entry.  Each level
    drops the rows that are all ZERO, orders the rest by their lowest
    non-ZERO position (a stable sort, so rows that skipped a level stay
    ahead of the new ones, being ready sooner), groups them in threes and
    keeps the leftover one or two.  Every position of a group is one cell,
    ``_emit_cell``, on its references (x, y, z); the carry of the top
    position is not built, so no carry at or above ``width`` is computed.
    The cell:

    * a repeated reference w + w + r gives (r, w), and a complementary pair
      w + ~w + r gives (~r, r), with no gate (ZERO and ONE are a pair);
    * with two or three negated references (ONE counts as a negated ZERO) it
      runs on their complements and negates both results;
    * otherwise it takes z to be the constant or the negated reference, if
      there is one, and x, y to be wires.  It sets a fresh t = x ^ y (two
      CNOTs), then, below the top position, c ^= t·z and c ^= x·y on a fresh
      c (two Toffolis, ``and_into``), and last t ^= z.  The carry is
      maj(x, y, z) = x·y ^ z·(x ^ y); with z = ~w the t·z term is a CNOT and a
      Toffoli, with z = ONE a CNOT, and with z = ZERO it vanishes (there x or
      y may be negated, and t = x ^ y up to that negation).  The sum is t, or
      ~t when a reference was negated.

    A cell on three plain wires is three CNOTs and two Toffolis; the t·z
    Toffoli comes first so that the x·y one shares a layer with the closing
    CNOT.  The tree is left behind for the caller's uncompute.
    """
    rows = [(list(row) + [ZERO] * width)[:width] for row in rows]
    while True:
        live = [row for row in rows if any(r != ZERO for r in row)]
        rows = sorted(live, key=lambda row: next(j for j, r in enumerate(row) if r != ZERO))
        if len(rows) <= 2:
            break
        nxt = rows[len(rows) - len(rows) % 3 :]
        for xs, ys, zs in zip(rows[0::3], rows[1::3], rows[2::3]):
            cells = [_emit_cell(b, xs[j], ys[j], zs[j], j < width - 1) for j in range(width)]
            nxt.append([s for s, _ in cells])
            nxt.append([ZERO] + [c for _, c in cells[:-1]])
        rows = nxt
    rows += [[ZERO] * width] * (2 - len(rows))
    return rows[0], rows[1]


def build_carry_save(rows: int, n: int) -> Circuit:
    """Carry-save sum on [rows x n | s(w) | c(w)], w = n + (rows - 1).bit_length().

    s ^= sum row, c ^= carry row of the Wallace tree over the ``rows``
    registers, the tree the multiplier, the prefix adder and the Fourier copy
    run: compute, copy out, uncompute.  w bits hold the whole sum, so s + c
    equals it exactly.
    """
    if rows < 1 or n < 1:
        raise ValueError(f"need rows >= 1 and n >= 1, got ({rows}, {n})")
    w = n + (rows - 1).bit_length()
    b = CircuitBuilder(rows * n + 2 * w)
    regs = [list(range(j * n, (j + 1) * n)) for j in range(rows)]
    start = b.mark()
    s, c = _emit_wallace(b, regs, w)
    stop = b.mark()
    for out, r in zip(range(rows * n, rows * n + 2 * w), s + c, strict=True):
        xor_into(b, out, r)
    b.uncompute(start, stop)
    return b.build(metadata={"kind": "carry_save", "rows": rows, "n": n})


# --- register prefix networks --------------------------------------------------


def build_prefix_add(k: int, n: int) -> Circuit:
    """In-place prefix sums mod 2^n over k registers, in logarithmic depth.

    Register rows travel the prefix tree in carry-save form (two reference
    rows per node, combined 4->2 by the Wallace tree), are
    canonicalized by carry-lookahead taps into fresh registers, and the
    original registers are erased by parallel subtract taps before the final
    swap.  Ancillas all return to zero.
    """
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got ({k}, {n})")
    b = CircuitBuilder(k * n)
    _emit_prefix_add(b, [list(range(j * n, (j + 1) * n)) for j in range(k)])
    return b.build(metadata={"kind": "prefix_add", "k": k, "n": n})


def _emit_prefix_add(b: CircuitBuilder, regs: Sequence[Sequence[int]]) -> None:
    """In-place prefix sums mod 2^n over the k n-wire registers ``regs``."""
    k, n = len(regs), len(regs[0])
    start = b.mark()
    rows: list[tuple[list[BitRef], list[BitRef]]] = [
        (list(regs[j]), [ZERO] * n) for j in range(k)
    ]
    prows = _brent_kung(rows, lambda hi, lo: _emit_wallace(b, [*hi, *lo], n))
    stop = b.mark()
    qs = []
    for j in range(k):
        q = b.new_ancillas(n)
        _emit_addsub_core(b, *prows[j], outs=q)
        qs.append(q)
    b.uncompute(start, stop)
    # erase the original registers: regs[j] ^= q_j - q_{j-1}.  Each subtract
    # core reads a scratch copy of q_{j-1} so neighbouring cores touch
    # disjoint wires and all run in parallel.
    cps = []
    for j in range(k - 1):
        cp = b.new_ancillas(n)
        for i in range(n):
            b.cnot(qs[j][i], cp[i])
        cps.append(cp)
    for i in range(n):
        b.cnot(qs[0][i], regs[0][i])
    for j in range(1, k):
        _emit_addsub_core(b, qs[j], [~w for w in cps[j - 1]], outs=regs[j], carry_in=True)
    for j in range(k - 1):
        for i in range(n):
            b.cnot(qs[j][i], cps[j][i])
    for j in range(k):
        for i in range(n):
            b.cnot(qs[j][i], regs[j][i])
            b.cnot(regs[j][i], qs[j][i])


def build_telescoping_subtract(k: int, n: int) -> Circuit:
    """Exact inverse of ``build_prefix_add``: regs[j] -= regs[j-1] for all j."""
    circ = build_prefix_add(k, n).inverse()
    circ.metadata.update({"kind": "telescoping_subtract", "k": k, "n": n})
    return circ


# --- multipliers ---------------------------------------------------------------


def _partial_products(
    b: CircuitBuilder, xs: Sequence[BitRef], ys: Sequence[BitRef], n_out: int
) -> list[list[BitRef]]:
    """The rows (x AND y_j) << j of x*y, each cut to n_out bits."""
    return [
        [ZERO] * j + [emit_and(b, xs[i], ys[j]) for i in range(min(len(xs), n_out - j))]
        for j in range(min(len(ys), n_out))
    ]


def build_multiplier(nx: int, ny: int, n_out: int) -> Circuit:
    """out ^= (x*y) mod 2^n_out on [x(nx) | y(ny) | out(n_out)]: a Wallace tree and one carry network."""
    if min(nx, ny, n_out) < 1:
        raise ValueError(f"need nx, ny and n_out >= 1, got ({nx}, {ny}, {n_out})")
    b = CircuitBuilder(nx + ny + n_out)
    xs = list(range(nx))
    ys = list(range(nx, nx + ny))
    outs = list(range(nx + ny, nx + ny + n_out))
    start = b.mark()
    s, c = _emit_wallace(b, _partial_products(b, xs, ys, n_out), n_out)
    stop = b.mark()
    _emit_addsub_core(b, s, c, outs=outs)
    b.uncompute(start, stop)
    return b.build(metadata={"kind": "multiplier", "nx": nx, "ny": ny, "n_out": n_out})


# --- modular products ------------------------------------------------------------


def _emit_modmul_garbage(
    b: CircuitBuilder, us: Sequence[BitRef], vs: Sequence[BitRef], modulus: int
) -> list[BitRef]:
    """References to (u*v) mod modulus, given u, v < modulus, leaving garbage for the caller.

    T = u*v is the Wallace tree's two rows summed by one carry network.
    Reduction is by nb conditional subtractions, j = nb - 1 down to 0;
    since T <= (N - 1)^2 < N*2^nb, T < N*2^(j+1) before step j.  At step j
    one carry network adds comp = 2^W - N*2^j to the W tracked bits of T,
    both padded with one ZERO position so that the carry into it,
    carries[W], is the carry out: the flag 'T >= N*2^j'.  Bit i of
    T - flag*N*2^j is T_i XOR (flag AND (comp_i XOR c_i)), since the sum
    differs from T exactly there.  The tracked width shrinks by one bit per step, and the
    j low zeros of comp give no generate, so the network emits no gate there.
    """
    nb = modulus.bit_length()
    p, carries = _emit_carries(b, *_emit_wallace(b, _partial_products(b, us, vs, 2 * nb), 2 * nb))
    t_refs = [emit_xor(b, [p_i, c_i]) for p_i, c_i in zip(p, carries)]
    for j in range(nb - 1, -1, -1):
        w = len(t_refs)
        comp = const_bits((1 << w) - (modulus << j), w)
        _, carries = _emit_carries(b, t_refs + [ZERO], comp + [ZERO])
        flag = carries[w]
        t_refs = [
            emit_xor(b, [t_refs[i], emit_and(b, flag, emit_xor(b, [comp[i], carries[i]]))])
            for i in range(nb + j)
        ]
    return t_refs


def build_modmul(modulus: int) -> Circuit:
    """out ^= (u*v) mod modulus on [u | v | out].

    Precondition: u, v < modulus.  The reduction runs nb conditional
    subtractions, enough for u*v < modulus * 2^nb; outside the precondition
    ``out`` need not receive (u*v) mod modulus.
    """
    if modulus < 2:
        raise StructuralError("modulus must be at least 2")
    nb = modulus.bit_length()
    b = CircuitBuilder(3 * nb)
    us = list(range(nb))
    vs = list(range(nb, 2 * nb))
    outs = list(range(2 * nb, 3 * nb))
    start = b.mark()
    res = _emit_modmul_garbage(b, us, vs, modulus)
    stop = b.mark()
    for i in range(nb):
        xor_into(b, outs[i], res[i])
    b.uncompute(start, stop)
    return b.build(metadata={"kind": "modmul", "modulus": modulus})


def build_iterated_product(modulus: int, factors: Sequence[int]) -> Circuit:
    """out ^= prod_j factors[j]^{x_j} mod modulus, controls x on the data wires.

    A factor of 1 gives no leaf.  The other leaves, in order, are cut into
    windows of ``_window_bits`` consecutive control bits; a window's product
    is a function of its bits alone, written by one table lookup
    (``_emit_lookup``).  Window values are multiplied pairwise up a binary
    tree of modular multipliers; the root (1 if no leaf is left) is copied
    out and the tree uncomputed.
    """
    if modulus < 2:
        raise StructuralError("modulus must be at least 2")
    nb = modulus.bit_length()
    m = len(factors)
    for f in factors:
        if not 1 <= f < modulus:
            raise StructuralError(f"factor {f} not in [1, modulus)")
    b = CircuitBuilder(m + nb)
    _emit_iterated_product(b, list(range(m)), list(range(m, m + nb)), modulus, factors)
    return b.build(metadata={"kind": "iterated_product", "modulus": modulus, "m": m})


# Largest window.  Of windows capped at 5, 6 or 7 bits (cut by _window_bits)
# and of fixed widths 1 to 7, a cap of 6 gave build_order_circuit(N, 2) the
# least geometric-mean depth over N = 21 ... 2491 (ROADMAP item 19's table).
LARGEST_WINDOW = 6


def _window_bits(leaves: int) -> int:
    """Bits per window, for the fewest multiplier levels that windows of at most ``LARGEST_WINDOW`` bits allow.

    A level of modular multipliers is far deeper than a lookup.  So the
    window count is the least power of two 2^k with leaves <= 2^k times
    ``LARGEST_WINDOW``, and the windows are as narrow as that count allows.
    """
    windows = 1
    while -(-leaves // windows) > LARGEST_WINDOW:
        windows *= 2
    return max(1, -(-leaves // windows))


def _emit_lookup(b: CircuitBuilder, bits: Sequence[BitRef], table: Sequence[int], nb: int) -> list[BitRef]:
    """References to the nb bits of table[k], k the number whose bit i is ``bits[i]``.

    Each output bit is the XOR of its algebraic normal form's monomials (the
    Moebius transform of the table over GF(2), done on whole entries at
    once, since it is bitwise).  A monomial is built at most once, as the AND
    of the monomial without its top bit and that bit, and shared by every
    output bit that reads it, so a window of w bits costs at most
    2^w - w - 1 ANDs; constant folding makes a one-literal output an alias.
    """
    anf = list(table)
    for i in range(len(bits)):
        for k in range(len(anf)):
            if k >> i & 1:
                anf[k] ^= anf[k ^ 1 << i]
    monomials: dict[int, BitRef] = {0: ONE}

    def monomial(s: int) -> BitRef:
        if s not in monomials:
            top = s.bit_length() - 1
            monomials[s] = emit_and(b, monomial(s ^ 1 << top), bits[top])
        return monomials[s]

    return [emit_xor(b, [monomial(s) for s, c in enumerate(anf) if c >> o & 1]) for o in range(nb)]


def _emit_iterated_product(
    b: CircuitBuilder, xs: Sequence[int], outs: Sequence[int], modulus: int, factors: Sequence[int]
) -> None:
    """outs ^= prod_j factors[j]^{x_j} mod modulus, with one control wire per factor in ``xs``.

    The leaves (factors other than 1) are cut into windows of
    ``_window_bits`` consecutive control bits.  A window's table holds the
    product of its factors for every setting of its bits, and one lookup
    writes it; a window of one leaf reads factors[j] if x_j else 1, so each
    bit is a constant, x_j or NOT x_j and costs no gate.  The window values
    are multiplied pairwise up a tree of ``_emit_modmul_garbage``, and the
    root is copied out before the whole tree is uncomputed.
    """
    nb = len(outs)
    leaves = [(x, f) for x, f in zip(xs, factors, strict=True) if f != 1]
    w = _window_bits(len(leaves))
    start = b.mark()
    vals: list[list[BitRef]] = []
    for i in range(0, len(leaves), w):
        window = leaves[i : i + w]
        table = [1]
        for _, f in window:
            table += [t * f % modulus for t in table]
        vals.append(_emit_lookup(b, [x for x, _ in window], table, nb))
    while len(vals) > 1:
        pairs = [_emit_modmul_garbage(b, u, v, modulus) for u, v in zip(vals[0::2], vals[1::2])]
        vals = pairs + vals[len(vals) - len(vals) % 2 :]
    stop = b.mark()
    for out, r in zip(outs, vals[0] if vals else const_bits(1, nb)):
        xor_into(b, out, r)
    b.uncompute(start, stop)


def precompute_powers(a: int, modulus: int, count: int) -> list[int]:
    """[a^(2^j) mod modulus for j in range(count)] by repeated squaring."""
    return [pow(a, 1 << j, modulus) for j in range(count)]
