"""Reversible arithmetic built from X/CNOT/Toffoli gates.

Everything here works over *bit references*: a reference is either a wire
index, a constant (``ZERO``/``ONE``), or a virtual negation ``("not", w)``.
Constant folding on references is what keeps the emitted circuits small;
an AND with a known-zero bit emits nothing, an XOR with a single live input
is just an alias.

Carry computation uses the generate/propagate pair (g, p) per position with
the combine ``G = g_hi XOR (p_hi AND g_lo)``, ``P = p_hi AND p_lo``; the XOR
form is exact because g and p of one position are never both set.  All
prefixes are computed with a Brent-Kung recursion (about 2k combines, 2 log k
combine levels), which also drives the register-level prefix networks.

Cleanup convention: every public builder returns a circuit whose ancillas
end at |0> on all inputs (compute / copy out / uncompute).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, Union

from .circuit import Circuit, CircuitBuilder
from .errors import StructuralError

ZERO = "zero"
ONE = "one"
BitRef = Union[int, str, tuple]


def bnot(r: BitRef) -> BitRef:
    if r == ZERO:
        return ONE
    if r == ONE:
        return ZERO
    if isinstance(r, int):
        return ("not", r)
    return r[1]


def _is_const(r: BitRef) -> bool:
    return r == ZERO or r == ONE


def _wire_of(r: BitRef) -> int:
    return r if isinstance(r, int) else r[1]


def xor_into(b: CircuitBuilder, target: int, r: BitRef) -> None:
    """target ^= r."""
    if r == ZERO:
        return
    if r == ONE:
        b.x(target)
        return
    if isinstance(r, int):
        b.cnot(r, target)
        return
    b.cnot(r[1], target)
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
    if _wire_of(x) == _wire_of(y):
        return ZERO  # w AND (not w)
    return None


def and_into(b: CircuitBuilder, target: int, x: BitRef, y: BitRef) -> None:
    """target ^= x AND y."""
    folded = _and_fold(x, y)
    if folded is not None:
        xor_into(b, target, folded)
        return
    xneg, yneg = not isinstance(x, int), not isinstance(y, int)
    wx, wy = _wire_of(x), _wire_of(y)
    if not xneg and not yneg:
        b.toffoli(wx, wy, target)
    elif xneg and yneg:
        # (not u)(not v) = 1 ^ u ^ v ^ uv
        b.x(target)
        b.cnot(wx, target)
        b.cnot(wy, target)
        b.toffoli(wx, wy, target)
    else:
        # w AND (not u) = w ^ wu
        w, u = (wx, wy) if yneg else (wy, wx)
        b.cnot(w, target)
        b.toffoli(w, u, target)


def emit_xor(b: CircuitBuilder, refs: Sequence[BitRef]) -> BitRef:
    """XOR of references, folded to an alias when at most one wire survives."""
    parity = 0
    live: dict[int, int] = {}
    for r in refs:
        if r == ONE:
            parity ^= 1
        elif r == ZERO:
            continue
        else:
            live[_wire_of(r)] = live.get(_wire_of(r), 0) ^ 1
            if not isinstance(r, int):
                parity ^= 1
    wires = [w for w, alive in live.items() if alive]
    if not wires:
        return ONE if parity else ZERO
    if len(wires) == 1:
        return ("not", wires[0]) if parity else wires[0]
    t = b.new_ancilla()
    if parity:
        b.x(t)
    for w in wires:
        b.cnot(w, t)
    return t


def emit_or(b: CircuitBuilder, x: BitRef, y: BitRef) -> BitRef:
    if x == ONE or y == ONE:
        return ONE
    if x == ZERO:
        return y
    if y == ZERO:
        return x
    if x == y:
        return x
    if _wire_of(x) == _wire_of(y):
        return ONE
    t = b.new_ancilla()
    xor_into(b, t, x)
    xor_into(b, t, y)
    and_into(b, t, x, y)
    return t


def emit_maj(b: CircuitBuilder, x: BitRef, y: BitRef, z: BitRef) -> BitRef:
    """Majority of three references (the carry of a 1-bit 3-2 step)."""
    refs = [x, y, z]
    for i in range(3):
        for j in range(i + 1, 3):
            if refs[i] == refs[j]:
                return refs[i]
            if not _is_const(refs[i]) and not _is_const(refs[j]) and _wire_of(refs[i]) == _wire_of(refs[j]):
                return refs[3 - i - j]  # maj(w, not w, z) = z
    if ZERO in refs:
        rest = [r for r in refs if r != ZERO] + [ZERO, ZERO]
        u, v = rest[0], rest[1]
        folded = _and_fold(u, v)
        if folded is not None:
            return folded
        t = b.new_ancilla()
        and_into(b, t, u, v)
        return t
    if ONE in refs:
        rest = [r for r in refs if r != ONE] + [ONE, ONE]
        return emit_or(b, rest[0], rest[1])
    t = b.new_ancilla()
    and_into(b, t, x, y)
    and_into(b, t, x, z)
    and_into(b, t, y, z)
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
    p = _and_fold(hi.p, lo.p)
    if p is None:
        t = b.new_ancilla()
        and_into(b, t, hi.p, lo.p)
        p = t
    return GP(g, p)


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


def _emit_addsub_core(
    b: CircuitBuilder,
    a_bits: Sequence[BitRef],
    b_bits: Sequence[BitRef],
    outs: Sequence[int] | None,
    carry_in: bool = False,
    keep_dag: bool = False,
) -> BitRef | None:
    """Carry-lookahead core: XOR the sum bits of a+b(+carry_in) into outs.

    With ``keep_dag`` the internal carry network is left behind (garbage for
    an enclosing uncompute) and the carry-out reference is returned;
    otherwise the core uncomputes itself and only the taps into ``outs``
    remain.
    """
    if len(a_bits) != len(b_bits):
        raise StructuralError("addend widths differ")
    if outs is not None:
        out_set = set(outs)
        for r in list(a_bits) + list(b_bits):
            if not _is_const(r) and _wire_of(r) in out_set:
                raise StructuralError("sum outputs overlap the addend wires")
    mark = b.mark()
    leaves = []
    for x, y in zip(a_bits, b_bits):
        g = _and_fold(x, y)
        if g is None:
            t = b.new_ancilla()
            and_into(b, t, x, y)
            g = t
        p = emit_xor(b, [x, y])
        leaves.append(GP(g, p))
    seed = GP(ONE if carry_in else ZERO, ZERO)
    prefixes = _brent_kung([seed] + leaves, lambda hi, lo: _gp_combine(b, hi, lo))
    dag = b.gates_since(mark)
    if outs is not None:
        for i, out in enumerate(outs):
            xor_into(b, out, leaves[i].p)
            xor_into(b, out, prefixes[i].g)
    if keep_dag:
        return prefixes[len(leaves)].g
    b.emit_inverse(dag)
    return None


def const_bits(value: int, width: int) -> list[BitRef]:
    return [ONE if (value >> i) & 1 else ZERO for i in range(width)]


# --- adders ------------------------------------------------------------------


def build_adder(n: int) -> Circuit:
    """In-place modular add: (x, y) -> (x, y + x mod 2^n) on wires [x | y]."""
    b = CircuitBuilder(2 * n)
    x = list(range(n))
    y = list(range(n, 2 * n))
    s = b.new_ancillas(n)
    _emit_addsub_core(b, y, x, outs=s)
    _emit_addsub_core(b, s, [bnot(w) for w in x], outs=y, carry_in=True)
    # y is now zero, so two CNOTs move s into y and clear s
    for i in range(n):
        b.cnot(s[i], y[i])
        b.cnot(y[i], s[i])
    return b.build(metadata={"kind": "adder", "n": n})


def build_subtractor(n: int) -> Circuit:
    """In-place modular subtract: (x, y) -> (x, y - x mod 2^n)."""
    circ = build_adder(n).inverse()
    circ.metadata.update({"kind": "subtractor", "n": n})
    return circ


# --- carry-save counters ------------------------------------------------------


def build_three_two(n: int) -> Circuit:
    """3-2 counter on wires [x | y | z | s(n) | c(n+1)]: s ^= x^y^z, c ^= carries.

    Constant depth: every bit position is handled independently.
    """
    b = CircuitBuilder(3 * n + (n) + (n + 1))
    x = list(range(n))
    y = list(range(n, 2 * n))
    z = list(range(2 * n, 3 * n))
    s = list(range(3 * n, 4 * n))
    c = list(range(4 * n, 5 * n + 1))
    for i in range(n):
        b.cnot(x[i], s[i])
        b.cnot(y[i], s[i])
        b.cnot(z[i], s[i])
        b.toffoli(x[i], y[i], c[i + 1])
        b.toffoli(x[i], z[i], c[i + 1])
        b.toffoli(y[i], z[i], c[i + 1])
    return b.build(metadata={"kind": "three_two", "n": n})


def _pad(row: Sequence[BitRef], width: int) -> list[BitRef]:
    return list(row) + [ZERO] * (width - len(row))


def _emit_three_two_refs(
    b: CircuitBuilder, xs: Sequence[BitRef], ys: Sequence[BitRef], zs: Sequence[BitRef]
) -> tuple[list[BitRef], list[BitRef]]:
    """Carry-save step on reference rows; returns (sum row, carry row)."""
    width = max(len(xs), len(ys), len(zs))
    xs, ys, zs = _pad(xs, width), _pad(ys, width), _pad(zs, width)
    s = [emit_xor(b, [xs[i], ys[i], zs[i]]) for i in range(width)]
    c: list[BitRef] = [ZERO] + [emit_maj(b, xs[i], ys[i], zs[i]) for i in range(width)]
    return s, c


def build_four_two(n: int) -> Circuit:
    """4-2 counter on [x | y | z | w | s(n+1) | c(n+2)] with x+y+z+w = s+c."""
    b = CircuitBuilder(4 * n + (n + 1) + (n + 2))
    regs = [list(range(j * n, (j + 1) * n)) for j in range(4)]
    s = list(range(4 * n, 5 * n + 1))
    c = list(range(5 * n + 1, 6 * n + 3))
    mark = b.mark()
    s1, c1 = _emit_three_two_refs(b, regs[0], regs[1], regs[2])
    stage1 = b.gates_since(mark)
    w = _pad(regs[3], len(s))
    s1p, c1p = _pad(s1, len(s)), _pad(c1, len(s))
    for i in range(len(s)):
        xor_into(b, s[i], s1p[i])
        xor_into(b, s[i], c1p[i])
        xor_into(b, s[i], w[i])
        # maj(a, b, c) = ab ^ ac ^ bc, accumulated straight into the output
        # so stage 2 leaves no scratch of its own
        and_into(b, c[i + 1], s1p[i], c1p[i])
        and_into(b, c[i + 1], s1p[i], w[i])
        and_into(b, c[i + 1], c1p[i], w[i])
    b.emit_inverse(stage1)
    return b.build(metadata={"kind": "four_two", "n": n})


# --- register prefix networks --------------------------------------------------


def build_prefix_add(k: int, n: int) -> Circuit:
    """In-place prefix sums mod 2^n over k registers, in logarithmic depth.

    Register rows travel the prefix tree in carry-save form (two reference
    rows per node, combined 4->2 by a pair of counter steps), are
    canonicalized by carry-lookahead taps into fresh registers, and the
    original registers are erased by parallel subtract taps before the final
    swap.  Ancillas all return to zero.
    """
    b = CircuitBuilder(k * n)
    regs = [list(range(j * n, (j + 1) * n)) for j in range(k)]
    mark = b.mark()
    rows: list[tuple[list[BitRef], list[BitRef]]] = [
        (list(regs[j]), [ZERO] * n) for j in range(k)
    ]

    def row_combine(hi, lo):
        s1, c1 = _emit_three_two_refs(b, hi[0], hi[1], lo[0])
        s2, c2 = _emit_three_two_refs(b, s1[:n], c1[:n], lo[1])
        return (s2[:n], c2[:n])

    prows = _brent_kung(rows, row_combine)
    tree = b.gates_since(mark)
    qs = []
    for j in range(k):
        q = b.new_ancillas(n)
        _emit_addsub_core(b, _pad(prows[j][0], n)[:n], _pad(prows[j][1], n)[:n], outs=q)
        qs.append(q)
    b.emit_inverse(tree)
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
        _emit_addsub_core(b, qs[j], [bnot(w) for w in cps[j - 1]], outs=regs[j], carry_in=True)
    for j in range(k - 1):
        for i in range(n):
            b.cnot(qs[j][i], cps[j][i])
    for j in range(k):
        for i in range(n):
            b.cnot(qs[j][i], regs[j][i])
            b.cnot(regs[j][i], qs[j][i])
    return b.build(metadata={"kind": "prefix_add", "k": k, "n": n})


def build_telescoping_subtract(k: int, n: int) -> Circuit:
    """Exact inverse of ``build_prefix_add``: regs[j] -= regs[j-1] for all j."""
    circ = build_prefix_add(k, n).inverse()
    circ.metadata.update({"kind": "telescoping_subtract", "k": k, "n": n})
    return circ


# --- multipliers ---------------------------------------------------------------


def _emit_multiplier(
    b: CircuitBuilder,
    xs: Sequence[BitRef],
    ys: Sequence[BitRef],
    outs: Sequence[int],
) -> None:
    """outs ^= (x*y) mod 2^len(outs) via a Wallace 3-2 reduction tree."""
    n_out = len(outs)
    mark = b.mark()
    rows: list[list[BitRef]] = []
    for j in range(len(ys)):
        if j >= n_out:
            break
        row: list[BitRef] = [ZERO] * j
        for i in range(len(xs)):
            if i + j >= n_out:
                break
            pp = _and_fold(xs[i], ys[j])
            if pp is None:
                t = b.new_ancilla()
                and_into(b, t, xs[i], ys[j])
                pp = t
            row.append(pp)
        rows.append(row)
    while len(rows) > 2:
        nxt = []
        i = 0
        while i + 3 <= len(rows):
            s, c = _emit_three_two_refs(b, rows[i], rows[i + 1], rows[i + 2])
            nxt.append(s[:n_out])
            nxt.append(c[:n_out])
            i += 3
        nxt.extend(rows[i:])
        rows = nxt
    if not rows:
        return
    if len(rows) == 1:
        rows.append([ZERO] * n_out)
    tree = b.gates_since(mark)
    _emit_addsub_core(b, _pad(rows[0], n_out)[:n_out], _pad(rows[1], n_out)[:n_out], outs=outs)
    b.emit_inverse(tree)


def build_multiplier(nx: int, ny: int, n_out: int) -> Circuit:
    """out ^= (x*y) mod 2^n_out on wires [x(nx) | y(ny) | out(n_out)]."""
    b = CircuitBuilder(nx + ny + n_out)
    xs = list(range(nx))
    ys = list(range(nx, nx + ny))
    outs = list(range(nx + ny, nx + ny + n_out))
    _emit_multiplier(b, xs, ys, outs)
    return b.build(metadata={"kind": "multiplier", "nx": nx, "ny": ny, "n_out": n_out})


# --- modular products ------------------------------------------------------------


def _emit_modmul_garbage(
    b: CircuitBuilder, us: Sequence[BitRef], vs: Sequence[BitRef], modulus: int
) -> list[int]:
    """Emit wires holding (u*v) mod modulus, leaving garbage for the caller.

    Reduction is by conditional subtraction: at step j the flag 'T >= N*2^j'
    is the carry of T + (2^W - N*2^j), and the subtract is a fresh-target add
    of the flag-gated two's-complement constant.  The tracked width shrinks
    by one bit per step.
    """
    nb = modulus.bit_length()
    w_full = 2 * nb
    t_wires = b.new_ancillas(w_full)
    _emit_multiplier(b, us, vs, t_wires)
    t_refs: list[BitRef] = list(t_wires)
    for j in range(w_full - nb, -1, -1):
        w_cur = min(nb + j + 1, len(t_refs))
        cur = t_refs[:w_cur]
        comp = (1 << w_cur) - (modulus << j)
        flag = _emit_addsub_core(b, cur, const_bits(comp, w_cur), outs=None, keep_dag=True)
        gated = [flag if bit == ONE else ZERO for bit in const_bits(comp, w_cur)]
        new_t = b.new_ancillas(nb + j)
        _emit_addsub_core(b, cur, gated, outs=new_t, keep_dag=True)
        t_refs = list(new_t)
    return [_wire_of(r) for r in t_refs]


def build_modmul(modulus: int) -> Circuit:
    """out ^= (u*v) mod modulus on [u | v | out], given u, v < modulus."""
    if modulus < 2:
        raise StructuralError("modulus must be at least 2")
    nb = modulus.bit_length()
    b = CircuitBuilder(3 * nb)
    us = list(range(nb))
    vs = list(range(nb, 2 * nb))
    outs = list(range(2 * nb, 3 * nb))
    mark = b.mark()
    res = _emit_modmul_garbage(b, us, vs, modulus)
    seg = b.gates_since(mark)
    for i in range(nb):
        xor_into(b, outs[i], res[i])
    b.emit_inverse(seg)
    return b.build(metadata={"kind": "modmul", "modulus": modulus})


def build_iterated_product(modulus: int, factors: Sequence[int]) -> Circuit:
    """out ^= prod_j factors[j]^{x_j} mod modulus, controls x on the data wires.

    Leaf registers are initialized to 1 and flipped to factors[j] under
    control x_j, then multiplied pairwise up a binary tree of modular
    multipliers; the root is copied out and the whole tree uncomputed.
    """
    if modulus < 2:
        raise StructuralError("modulus must be at least 2")
    nb = modulus.bit_length()
    m = len(factors)
    for f in factors:
        if not 1 <= f < modulus:
            raise StructuralError(f"factor {f} not in [1, modulus)")
    b = CircuitBuilder(m + nb)
    xs = list(range(m))
    outs = list(range(m, m + nb))
    mark = b.mark()
    vals: list[list[int]] = []
    for j, fac in enumerate(factors):
        leaf = b.new_ancillas(nb)
        b.x(leaf[0])
        for t in range(nb):
            if ((fac >> t) & 1) != (1 if t == 0 else 0):
                b.cnot(xs[j], leaf[t])
        vals.append(leaf)
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(_emit_modmul_garbage(b, vals[i], vals[i + 1], modulus))
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    seg = b.gates_since(mark)
    for i in range(nb):
        xor_into(b, outs[i], vals[0][i])
    b.emit_inverse(seg)
    return b.build(metadata={"kind": "iterated_product", "modulus": modulus, "m": m})


def precompute_powers(a: int, modulus: int, count: int) -> list[int]:
    """[a^(2^j) mod modulus for j in range(count)] by repeated squaring."""
    return [pow(a, 1 << j, modulus) for j in range(count)]
