"""Demo applications on top of the processor: Sudoku constraint solving via
winner-take-all competition and 8-direction avoidance decisions.

Sudoku mapping: one neuron per (cell, digit) in NPU2. Conflicting assignments
(same cell/different digit; same digit in a row, column, or box) inhibit each
other, every neuron excites itself, clue neurons receive a strong constant
stimulus, and all other neurons receive seeded noise. Boxes exist only when
the side length is a perfect square (4 -> 2x2 boxes); 2x2, 3x3 and 5x5 grids
are solved as Latin squares.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .neuron import NeuronParams
from .npu import GlobalNeuronConfig, NpuConfig
from .netio import (
    BLOCK,
    DcSource,
    NetworkDescription,
    NoiseDraws,
    NoiseSource,
    StimulusTrace,
    raster_records,
    simulate,
)
from .processor import CycleReport

# Pure-integrator neuron: drift is zero everywhere, the membrane just sums
# the synaptic current until it overflows.
INTEGRATOR = NeuronParams(a_num=0, b_num=0, v_r=0, v_t=255, v_reset=0)
# Leaky variant: strong pull toward 0 below the switch point, mild drag above.
LEAKY = NeuronParams(a_num=4, b_num=1, v_r=0, v_t=255, v_reset=0)


class NoDecisionError(ValueError):
    """Raised when a decode window contains no usable spikes."""


class PuzzleError(ValueError):
    """Invalid Sudoku puzzle: its size, a clue or a line of its text grid."""


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


# ---------------------------------------------------------------------------
# Sudoku

def check_side(n: int) -> None:
    """Reject a puzzle side outside 2..5, the sides the chip can hold."""
    if not 2 <= n <= 5:
        raise PuzzleError(f"side length must be 2..5, got {n}")


@dataclass
class SudokuPuzzle:
    n: int
    clues: list[tuple[int, int, int]]  # (row, col, digit 1..n)

    def __post_init__(self):
        """Check the clues against the network's own rule, `conflict_matrix`:
        a cell given two digits is reported at its first repeat, else the
        first pair in clue order that repeats a digit in a unit."""
        n = self.n
        check_side(n)
        for r, c, d in self.clues:
            if not (0 <= r < n and 0 <= c < n and 1 <= d <= n):
                raise PuzzleError(f"clue out of range: {(r, c, d)}")
        idx = np.array([neuron_index(n, r, c, d) for r, c, d in self.clues], dtype=np.intp)
        pairs = _conflicts(n, idx)
        if not pairs.any():
            return
        cell = idx // n
        repeats = np.tril(pairs & (cell[:, None] == cell)).any(axis=1)
        if repeats.any():
            r, c, _ = self.clues[repeats.argmax()]
            raise PuzzleError(f"conflicting clues at cell {(r, c)}")
        i, j = np.argwhere(pairs & (cell[:, None] < cell))[0]
        (r1, c1, d1), (r2, c2, _) = self.clues[i], self.clues[j]
        raise PuzzleError(f"inconsistent clues: digit {d1} at {(r1, c1)} and {(r2, c2)}")

    @classmethod
    def from_text(cls, text: str) -> "SudokuPuzzle":
        """Parse a text grid, 0 (or .) for blanks, whitespace-separated."""
        rows = [line.split() for line in text.strip().splitlines() if line.strip()]
        n = len(rows)
        clues = []
        for r, row in enumerate(rows):
            if len(row) != n:
                raise PuzzleError(f"row {r} has {len(row)} entries, expected {n}")
            for c, tok in enumerate(row):
                try:
                    d = 0 if tok == "." else int(tok)
                except ValueError:
                    raise PuzzleError(
                        f"row {r}, column {c}: expected a digit or '.', got {tok!r}"
                    ) from None
                if d:
                    clues.append((r, c, d))
        return cls(n=n, clues=clues)


def box_shape(n: int) -> tuple[int, int] | None:
    """Box dimensions (rows, cols), or None when n has no square box layout."""
    root = math.isqrt(n)
    return (root, root) if root * root == n else None


def neuron_index(n: int, r: int, c: int, d: int) -> int:
    """NPU2 address of the (cell, digit) neuron; digits are 1-based."""
    return (r * n + c) * n + (d - 1)


def conflict_matrix(n: int, kind: str = "all") -> np.ndarray:
    """Boolean (n^3, n^3) read-only adjacency of mutually exclusive
    assignments, one array shared per (n, kind).

    kind selects the subset: "cell" for same-cell/different-digit pairs,
    "unit" for same-digit row/column/box pairs, "all" for their union.
    """
    return _conflict_matrices(n)[kind]


def _conflicts(n: int, idx: np.ndarray) -> np.ndarray:
    """Which pairs of the (cell, digit) neurons `idx` exclude each other:
    `conflict_matrix(n)` restricted to their rows and columns."""
    return conflict_matrix(n)[idx[:, None], idx]


@functools.lru_cache(maxsize=16)
def _conflict_matrices(n: int) -> dict[str, np.ndarray]:
    idx = np.arange(n**3)
    r, c, d = idx // (n * n), idx // n % n, idx % n
    same_cell = (r[:, None] == r) & (c[:, None] == c)
    same_digit = d[:, None] == d
    same_unit = (r[:, None] == r) | (c[:, None] == c)
    box = box_shape(n)
    if box is not None:
        bh, bw = box
        b = r // bh * n + c // bw
        same_unit |= b[:, None] == b
    out = {"cell": same_cell & ~same_digit, "unit": same_unit & same_digit & ~same_cell}
    out["all"] = out["cell"] | out["unit"]
    for matrix in out.values():
        matrix.setflags(write=False)
    return out


# Winner-take-all tuning. Within-cell inhibition is the hard competition;
# unit (row/column/box) inhibition is the softer constraint bias; noise on
# every non-clue neuron drives the stochastic search.
INHIBIT_CELL = -8
INHIBIT_UNIT = -4
EXCITE = 2
CLUE_VALUE = 96
NOISE_LOW, NOISE_HIGH = 0, 20
SUDOKU_DECAY_A = 5
# Steps per decode window of `solve_sudoku`.
CHECK_EVERY = 200


@functools.lru_cache(maxsize=4)
def _sudoku_chip(n: int) -> NetworkDescription:
    """The puzzle-independent n x n network, built once per n: NPU configs
    and read-only weights without stimulus. Every puzzle's description is a
    copy of it, so all of them share the one chip it compiles."""
    size = n**3
    active2 = _next_pow2(size)
    npu1 = NpuConfig(
        max_neurons=32, active_neurons=1, params=[INTEGRATOR],
        global_neuron=GlobalNeuronConfig(params=INTEGRATOR),
    )
    npu2 = NpuConfig(
        max_neurons=128, active_neurons=active2, params=[INTEGRATOR] * active2,
        global_neuron=GlobalNeuronConfig(params=INTEGRATOR),
        decay_a=SUDOKU_DECAY_A,
    )
    rec = np.zeros((size, size), dtype=np.int64)
    rec[conflict_matrix(n, "unit")] = INHIBIT_UNIT
    rec[conflict_matrix(n, "cell")] = INHIBIT_CELL
    np.fill_diagonal(rec, EXCITE)
    weights1 = np.zeros((1, 2), dtype=np.int64)
    weights2 = np.zeros((npu1.total_neurons + active2, active2 + 1), dtype=np.int64)
    weights2[npu1.total_neurons : npu1.total_neurons + size, :size] = rec
    for w in (weights1, weights2):  # every puzzle's copy shares them, as conflict_matrix
        w.setflags(write=False)
    desc = NetworkDescription(npu1=npu1, npu2=npu2, weights1=weights1, weights2=weights2,
                              gs_mode="auto")
    desc.build_processor()  # compiled here, so that every copy shares the chip
    return desc


def build_sudoku_network(puzzle: SudokuPuzzle) -> tuple[NetworkDescription, None]:
    """Map a puzzle onto NPU2. All stimulus (clue drive and noise) is declared
    in the config, so there is no trace (None); the rest is shared by every
    puzzle of its size."""
    n = puzzle.n
    size = n**3
    clue_addrs = {neuron_index(n, r, c, d) for r, c, d in puzzle.clues}
    noise_addrs = [a for a in range(size) if a not in clue_addrs]
    desc = copy.copy(_sudoku_chip(n))
    desc.dc = [DcSource(npu=2, addr=a, value=CLUE_VALUE) for a in sorted(clue_addrs)]
    desc.noise = (
        [NoiseSource(npu=2, addrs=noise_addrs, low=NOISE_LOW, high=NOISE_HIGH)]
        if noise_addrs
        else []
    )
    return desc, None


def decode_counts(counts: np.ndarray, n: int) -> list[list[int]]:
    """The grid decoded from a window's spike count per (cell, digit)
    neuron, indexed by `neuron_index`: per cell, the digit that spiked most,
    the lowest on a tie."""
    cells = np.asarray(counts).reshape(n, n, n)  # (row, column, digit)
    silent = np.argwhere(cells.sum(axis=2) == 0)
    if len(silent):
        r, c = silent[0].tolist()
        raise NoDecisionError(f"no spikes for cell ({r}, {c}) in window")
    return (cells.argmax(axis=2) + 1).tolist()


def verify_sudoku(grid: list[list[int]], puzzle: SudokuPuzzle) -> bool:
    """Whether `grid` solves `puzzle`: n rows of n digits 1..n that keep
    every clue, no two of whose (cell, digit) neurons `conflict_matrix`
    excludes. With one digit per cell, that is each row, column and box
    holding each digit once."""
    n = puzzle.n
    if len(grid) != n or any(len(row) != n or not all(1 <= d <= n for d in row) for row in grid):
        return False
    if any(grid[r][c] != d for r, c, d in puzzle.clues):
        return False
    return not _conflicts(n, np.arange(0, n**3, n) + np.ravel(grid) - 1).any()


def solve_exact(puzzle: SudokuPuzzle, limit: int = 2) -> list[list[list[int]]]:
    """Backtracking solver, used to generate puzzles. It fills the empty
    cells in row-major order, digits ascending, skipping each digit whose
    neuron `conflict_matrix` excludes from one already placed. Returns up
    to `limit` solutions."""
    n = puzzle.n
    exclusive = conflict_matrix(n)
    cells = [0] * (n * n)  # digit per cell, 0 while empty
    blocked = np.zeros(n**3, dtype=np.int64)  # per neuron, the placed ones excluding it
    for r, c, d in puzzle.clues:
        cells[r * n + c] = d
        blocked += exclusive[neuron_index(n, r, c, d)]
    sols: list[list[list[int]]] = []

    def rec(i):
        if len(sols) >= limit:
            return
        if i == n * n:
            sols.append(np.reshape(cells, (n, n)).tolist())
            return
        if cells[i]:
            rec(i + 1)
            return
        for d in np.flatnonzero(blocked[i * n : (i + 1) * n] == 0).tolist():
            cells[i] = d + 1
            blocked[:] += exclusive[i * n + d]
            rec(i + 1)
            blocked[:] -= exclusive[i * n + d]
            cells[i] = 0

    rec(0)
    return sols


def random_puzzle(n: int, seed: int) -> SudokuPuzzle:
    """Seeded solvable puzzle of max(2, n*n // 3) clues: relabel the digits
    of the first full grid the exact solver finds, then keep a random subset
    of its cells as clues. Both Fisher-Yates shuffles draw from one
    NoiseDraws(seed, ...) step, digits first."""
    check_side(n)
    swaps = [(0, i) for i in range(n - 1, 0, -1)] + [(0, i) for i in range(n * n - 1, 0, -1)]
    js = iter(NoiseDraws(seed, swaps).draw(1)[0].tolist())
    base = solve_exact(SudokuPuzzle(n=n, clues=[]), limit=1)[0]
    perm = list(range(1, n + 1))
    cells = [(r, c) for r in range(n) for c in range(n)]
    for items in (perm, cells):
        for i in range(len(items) - 1, 0, -1):
            j = next(js)
            items[i], items[j] = items[j], items[i]
    clues = [(r, c, perm[base[r][c] - 1]) for r, c in cells[: max(2, n * n // 3)]]
    return SudokuPuzzle(n=n, clues=clues)


@dataclass
class SudokuResult:
    solved: bool
    steps: int
    grid: list[list[int]] | None
    cycles: CycleReport
    raster: np.ndarray  # (n, 3) int64 (t, npu, addr) records of NPU2


def solve_sudoku(puzzle: SudokuPuzzle, seed: int = 0, max_steps: int = 100_000) -> SudokuResult:
    """Run the network, decoding every `CHECK_EVERY` steps over the trailing
    window, until the decoded grid verifies or the step budget runs out.
    Each window is one block of the run loop, decoded from its per-neuron
    spike counts."""
    desc, trace = build_sudoku_network(puzzle)
    n = puzzle.n
    t1 = desc.npu1.total_neurons
    total = np.zeros((2, 5), dtype=np.int64)
    raster = [np.empty((0, 3), dtype=np.int64)]
    steps, grid = max_steps, None
    for t0, spikes, cycles in simulate(desc, trace, max_steps, seed, block=CHECK_EVERY):
        total += cycles.sum(axis=0)
        raster.append(raster_records(t0, spikes[:, t1:], 0))  # NPU2's spikes only
        if len(spikes) < CHECK_EVERY:
            break
        try:
            decoded = decode_counts(spikes[:, t1 : t1 + n**3].sum(axis=0), n)
        except NoDecisionError:
            continue
        if verify_sudoku(decoded, puzzle):
            steps, grid = t0 + CHECK_EVERY, decoded
            break
    report = CycleReport.of(total.tolist(), steps)
    return SudokuResult(grid is not None, steps, grid, report, np.concatenate(raster))


# ---------------------------------------------------------------------------
# avoidance

N_DIRECTIONS = 8
# Mutual inhibition between direction neurons.
INHIBIT_DIRECTION = -2
# Evidence per step of `make_direction_stimulus`: the dominant direction's
# channel, every other channel, and the seeded jitter bound on each.
STRONG, WEAK, JITTER = 48, 16, 6


def build_avoidance_network() -> NetworkDescription:
    """Eight direction neurons in NPU1 with mutual winner-take-all
    inhibition. Motion evidence arrives as external stimulus per direction."""
    npu1 = NpuConfig(
        max_neurons=32, active_neurons=N_DIRECTIONS,
        params=[INTEGRATOR] * N_DIRECTIONS,
        global_neuron=GlobalNeuronConfig(params=INTEGRATOR),
        decay_a=2,
    )
    npu2 = NpuConfig(
        max_neurons=128, active_neurons=1, params=[INTEGRATOR],
        global_neuron=GlobalNeuronConfig(params=INTEGRATOR),
    )
    t1 = npu1.total_neurons
    w1 = np.full((N_DIRECTIONS, t1), INHIBIT_DIRECTION, dtype=np.int64)
    np.fill_diagonal(w1, 0)
    w1[:, N_DIRECTIONS] = 0  # global neuron stays out of the competition
    return NetworkDescription(
        npu1=npu1,
        npu2=npu2,
        weights1=w1,
        weights2=np.zeros((t1 + 1, 2), dtype=np.int64),
        gs_mode="auto",
    )


def make_direction_stimulus(direction: int, steps: int, seed: int = 0) -> StimulusTrace:
    """Evidence trace with one dominant direction plus seeded jitter on all
    channels (stands in for the off-chip visual pre-processing)."""
    if not 0 <= direction < N_DIRECTIONS:
        raise ValueError(f"direction must be 0..{N_DIRECTIONS - 1}")
    draws = NoiseDraws(seed, [(-JITTER, JITTER)] * N_DIRECTIONS).draw(steps)
    base = np.where(np.arange(N_DIRECTIONS) == direction, STRONG, WEAK)
    t, d = np.indices(draws.shape).reshape(2, -1)
    value = np.clip(base + draws, -128, 127).ravel()
    return StimulusTrace(records=np.column_stack((t, np.ones_like(t), d, value)))


def decide_counts(counts: list[int], window: tuple[int, int]) -> tuple[int, bool, list[int]]:
    """The decision of the window [window[0], window[1]) from its spike
    count per direction: (direction, tie_flag, counts), the most-spiking
    direction, the lowest one on a tie."""
    if not any(counts):
        raise NoDecisionError(f"no spikes in window [{window[0]}, {window[1]})")
    best = counts.index(max(counts))  # the lowest index wins a tie
    return best, counts.count(counts[best]) > 1, counts


def decide_direction(raster: np.ndarray, window: tuple[int, int]) -> tuple[int, bool, list[int]]:
    """`decide_counts` of the NPU1 direction neurons' spikes inside
    [window[0], window[1]) among the (t, npu, addr) records of `raster`."""
    t, npu, addr = np.asarray(raster, dtype=np.int64).reshape(-1, 3).T
    keep = (npu == 1) & (window[0] <= t) & (t < window[1]) & (addr >= 0) & (addr < N_DIRECTIONS)
    return decide_counts(np.bincount(addr[keep], minlength=N_DIRECTIONS).tolist(), window)


def avoid(
    stimulus: StimulusTrace | None, windows: int, window_steps: int
) -> tuple[list[tuple[int, bool, list[int]]], CycleReport]:
    """Run the avoidance network for `windows` consecutive windows of
    `window_steps` steps, deciding each from its spike counts; returns the
    decisions in window order and the run's aggregate cycles. Every block
    of the run loop holds whole windows. The first window without a
    direction spike raises `NoDecisionError`. The network draws no noise,
    so no seed is taken."""
    if window_steps < 1:
        raise ValueError("window_steps must be >= 1")
    steps = windows * window_steps
    block = window_steps * -(-BLOCK // window_steps)
    decisions = []
    total = np.zeros((2, 5), dtype=np.int64)
    for t0, spikes, cycles in simulate(build_avoidance_network(), stimulus, steps, block=block):
        total += cycles.sum(axis=0)
        counts = spikes[:, :N_DIRECTIONS].reshape(-1, window_steps, N_DIRECTIONS).sum(axis=1)
        decisions += [decide_counts(c, (t, t + window_steps))
                      for t, c in zip(range(t0, steps, window_steps), counts.tolist())]
    return decisions, CycleReport.of(total.tolist(), steps)
