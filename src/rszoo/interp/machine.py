"""A two-register counter machine with an oracle tape.

Programs are tuples of instructions over registers R0 and R1:

    ("qry",)          R1 := A(R0), one query to the oracle
    ("halt",)         stop; the output is the value of R1
    ("inc", r)        Rr := Rr + 1
    ("dec", r)        Rr := Rr - 1 (floors at 0)
    ("brz", r, t)     if Rr = 0 jump to instruction t, else fall through

Execution starts at instruction 0 with R0 = input and R1 = 0.  Falling
off the end of the program halts as well.  Every instruction costs one
step; a run is given a step budget and either halts within it or is
reported as not (yet) halting.  Because state evolves deterministically,
``phi(e, A, x, s)`` is monotone in ``s``: once a run halts its output
never changes for larger budgets.

Programs are enumerated length-lexicographically.  For a program of
length L the branch targets range over 0..L (target L = one past the
end, i.e. halt), so the per-slot alphabet has 6 + 2*(L+1) symbols and
its order is: qry, halt, inc R0, inc R1, dec R0, dec R1, brz R0 to
0..L, brz R1 to 0..L.  Index 0 is the empty program.
"""
from __future__ import annotations

from typing import Callable, Sequence

from ..lang.types import Node, node

Instruction = tuple
Program = tuple


class MachineError(Exception):
    pass


@node
class HaltsWith(Node):
    output: int
    steps: int


@node
class DidNotHalt(Node):
    budget: int


# -- enumeration -------------------------------------------------------------

def enumeration_alphabet(length: int) -> list[Instruction]:
    """Per-slot alphabet for programs of the given length, in order."""
    out: list[Instruction] = [("qry",), ("halt",),
                              ("inc", 0), ("inc", 1),
                              ("dec", 0), ("dec", 1)]
    for r in (0, 1):
        for t in range(length + 1):
            out.append(("brz", r, t))
    return out


def alphabet_size(length: int) -> int:
    return 6 + 2 * (length + 1)


def program_count(max_length: int) -> int:
    """Number of programs of length <= max_length."""
    return sum(alphabet_size(l) ** l for l in range(max_length + 1))


def decode_program(e: int) -> Program:
    """The e-th program in length-lexicographic order."""
    if e < 0:
        raise MachineError("program index must be a natural number")
    length = 0
    while True:
        block = alphabet_size(length) ** length
        if e < block:
            break
        e -= block
        length += 1
    alpha = enumeration_alphabet(length)
    base = len(alpha)
    digits = []
    for _ in range(length):
        digits.append(e % base)
        e //= base
    digits.reverse()
    return tuple(alpha[d] for d in digits)


def encode_program(prog: Sequence[Instruction]) -> int:
    """Rank of a program in the enumeration (inverse of decode_program)."""
    length = len(prog)
    alpha = enumeration_alphabet(length)
    pos = {ins: i for i, ins in enumerate(alpha)}
    base = len(alpha)
    rank = 0
    for ins in prog:
        if tuple(ins) not in pos:
            raise MachineError(f"instruction {ins!r} is not valid at "
                               f"length {length}")
        rank = rank * base + pos[tuple(ins)]
    return program_count(length - 1) + rank if length else 0


# -- execution ---------------------------------------------------------------

def run_program(prog: Sequence[Instruction], oracle: Callable[[int], int],
                x: int, budget: int) -> HaltsWith | DidNotHalt:
    """Run a program on the given input with a step budget."""
    r = [x, 0]
    pc = 0
    n = len(prog)
    for step in range(budget):
        if pc >= n:
            return HaltsWith(r[1], step)
        ins = prog[pc]
        op = ins[0]
        if op == "halt":
            return HaltsWith(r[1], step + 1)
        if op == "qry":
            r[1] = oracle(r[0])
            pc += 1
        elif op == "inc":
            r[ins[1]] += 1
            pc += 1
        elif op == "dec":
            if r[ins[1]]:
                r[ins[1]] -= 1
            pc += 1
        elif op == "brz":
            pc = ins[2] if r[ins[1]] == 0 else pc + 1
        else:
            raise MachineError(f"unknown instruction {ins!r}")
    if pc >= n:
        return HaltsWith(r[1], budget)
    return DidNotHalt(budget)


_phi_cache: dict[tuple, HaltsWith | DidNotHalt] = {}


def phi(e: int, table: tuple, x: int, budget: int) -> HaltsWith | DidNotHalt:
    """Bounded oracle computation: program e on input x within the budget,
    against the oracle with value table ``table``.

    A cell past the end of the table reads 0, as a model's ``table_fn``
    reads it.  The run is a function of ``(e, table, x, budget)``, so it
    is memoised on ``(e, table, x)`` for every caller: a cached halt
    answers any budget at least its step count, a cached non-halt any
    budget at most its own, and a halt is never overwritten.
    """
    key = (e, table, x)
    hit = _phi_cache.get(key)
    if isinstance(hit, HaltsWith):
        if hit.steps <= budget:
            return hit
    elif hit is not None and hit.budget >= budget:
        return DidNotHalt(budget)
    n = len(table)
    res = run_program(decode_program(e),
                      lambda i: table[i] if i < n else 0, x, budget)
    if not isinstance(hit, HaltsWith):
        _phi_cache[key] = res
    return res


def theta(table: tuple, budget: int, e: int) -> int:
    """The bounded diagonal run: program number ``e`` (machine index
    ``PROGRAMS.get(e, e)``) on input ``e`` against the oracle ``table``
    for at most ``budget`` steps; output+1 on halt and 0 otherwise.

    Adding one makes the value differ from the run's output whenever it
    halts.  The value is an unbounded integer; a model saturates it.
    """
    res = phi(PROGRAMS.get(e, e), table, e, budget)
    if isinstance(res, HaltsWith):
        return res.output + 1
    return 0


# The member-scan program: starting from the input, look for the first
# oracle cell holding a nonzero value v+1 and output v.  Used by the
# diagonal arguments; its enumeration index is SCAN_INDEX.
SCAN_PROGRAM: Program = (
    ("qry",),            # 0: R1 := A(R0)
    ("brz", 1, 4),       # 1: nothing here yet -> advance
    ("dec", 1),          # 2: payload v+1 -> v
    ("halt",),           # 3: output v
    ("inc", 0),          # 4: next cell
    ("brz", 1, 0),       # 5: R1 = 0 on this path, so always jumps
)

SCAN_INDEX = encode_program(SCAN_PROGRAM)

# The diagonal numbering: program number 0 is the scan, so a model's
# diagonal run reaches it below every cap; every other number is its
# machine index.  The empty program it displaces computes what
# ("halt",), index 2, computes, so every program is still numbered.
PROGRAMS = {0: SCAN_INDEX}
