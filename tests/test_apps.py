"""Sudoku builder/decoder/verifier, avoidance decisions, behavior fixtures."""

import functools
import hashlib
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnemu.apps import (
    INTEGRATOR,
    NoDecisionError,
    PuzzleError,
    SudokuPuzzle,
    avoid,
    behavior_sweep,
    box_shape,
    build_avoidance_network,
    build_sudoku_network,
    conflict_matrix,
    decide_direction,
    decode_counts,
    default_behavior_cases,
    make_direction_stimulus,
    neuron_index,
    random_puzzle,
    solve_exact,
    solve_sudoku,
    verify_sudoku,
)
from snnemu.netio import StimulusTrace, raster_records, run
from snnemu.neuron import NeuronParams
from scalar_ref import NeuronState, delta_vm, neuron_step
from test_neuron import params_st

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def isi_signature(spikes: list[int]) -> tuple[int, int]:
    """(spike count, ISI coefficient-of-variation bucket in tenths)."""
    times = [t for t, s in enumerate(spikes) if s]
    if len(times) < 2:
        return len(times), 0
    isis = np.diff(times)
    cv = float(isis.std() / isis.mean()) if isis.mean() else 0.0
    return len(times), int(round(cv * 10))


def brute_force_conflicts(n, kind="all"):
    """Constraint-pair oracle: enumerate every pair of assignments and test
    mutual exclusivity straight from the Sudoku rules; kind "cell" keeps
    only the same-cell branch, "unit" only the same-digit one."""
    size = n**3
    out = np.zeros((size, size), dtype=bool)
    box = box_shape(n)
    for i in range(size):
        r1, c1, d1 = i // (n * n), (i // n) % n, i % n + 1
        for j in range(size):
            if i == j:
                continue
            r2, c2, d2 = j // (n * n), (j // n) % n, j % n + 1
            if (r1, c1) == (r2, c2) and d1 != d2:
                out[i, j] = kind in ("cell", "all")
            elif d1 == d2 and (r1, c1) != (r2, c2) and kind in ("unit", "all"):
                same_box = False
                if box is not None:
                    bh, bw = box
                    same_box = (r1 // bh, c1 // bw) == (r2 // bh, c2 // bw)
                if r1 == r2 or c1 == c2 or same_box:
                    out[i, j] = True
    return out


@functools.cache
def unit_conflicts(n):
    return brute_force_conflicts(n, "unit")


def loop_clue_check(n, clues):
    """Reference clue check, one clue and one pair at a time: the error
    message for in-range `clues`, or None when they are consistent. A cell
    given two digits is reported first, at its first repeat; then the first
    pair, in clue order, that puts one digit twice in a unit, its earlier
    cell first."""
    seen = {}
    for r, c, d in clues:
        if seen.setdefault((r, c), d) != d:
            return f"conflicting clues at cell {(r, c)}"
    for r1, c1, d1 in clues:
        for r2, c2, d2 in clues:
            if (r1, c1) < (r2, c2) and unit_conflicts(n)[
                    neuron_index(n, r1, c1, d1), neuron_index(n, r2, c2, d2)]:
                return f"inconsistent clues: digit {d1} at {(r1, c1)} and {(r2, c2)}"
    return None


@functools.cache
def full_grid(n):
    return solve_exact(SudokuPuzzle(n=n, clues=[]), limit=1)[0]


@st.composite
def clue_lists(draw):
    """(n, in-range clues): cells of one valid grid, which never conflict,
    mixed with arbitrary clues and repeats of earlier ones, which give
    duplicate, same-cell and same-unit clues."""
    n = draw(st.integers(2, 5))
    index = st.integers(0, n - 1)
    from_grid = st.tuples(index, index).map(lambda rc: (*rc, full_grid(n)[rc[0]][rc[1]]))
    anything = st.tuples(index, index, st.integers(1, n))
    clues = draw(st.lists(st.one_of(from_grid, from_grid, anything), max_size=2 * n))
    for _ in range(draw(st.integers(0, 3)) if clues else 0):
        clues.insert(draw(st.integers(0, len(clues))), draw(st.sampled_from(clues)))
    return n, clues


class TestClueCheck:
    @settings(max_examples=300, deadline=None)
    @given(case=clue_lists())
    def test_matches_loop_reference(self, case):
        """SudokuPuzzle accepts exactly the clue lists the reference accepts
        and rejects the others with the same message."""
        n, clues = case
        try:
            SudokuPuzzle(n=n, clues=clues)
            got = None
        except ValueError as e:
            got = str(e)
        assert got == loop_clue_check(n, clues)


class TestSudokuTopology:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_conflicts_match_rule_oracle(self, n):
        assert np.array_equal(conflict_matrix(n), brute_force_conflicts(n))
        for kind in ("cell", "unit"):
            assert np.array_equal(conflict_matrix(n, kind), brute_force_conflicts(n, kind))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_conflicts_shared_and_read_only(self, n):
        """One array per (n, kind), whichever way the kind is named, that
        no caller can write."""
        assert conflict_matrix(n) is conflict_matrix(n, "all")
        for kind in ("cell", "unit", "all"):
            matrix = conflict_matrix(n, kind)
            assert conflict_matrix(n, kind) is matrix
            assert not matrix.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = True

    def test_puzzle_matrices_read_only(self):
        """Every puzzle of a size shares one pair of matrices and one chip:
        a write into a puzzle's matrices raises, and the next puzzle's solve
        is unchanged."""
        puzzle = random_puzzle(4, seed=1)
        want = solve_sudoku(puzzle, seed=2, max_steps=2_000)
        desc, _ = build_sudoku_network(random_puzzle(4, seed=3))
        for matrix in (desc.weights1, desc.weights2):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1
        got = solve_sudoku(puzzle, seed=2, max_steps=2_000)
        assert (got.solved, got.steps, got.grid) == (want.solved, want.steps, want.grid)
        assert got.raster.tobytes() == want.raster.tobytes() and got.cycles == want.cycles

    def test_network_sizes(self):
        desc, trace = build_sudoku_network(SudokuPuzzle(n=4, clues=[]))
        assert desc.npu2.active_neurons == 64
        assert trace.records.shape == (0, 4)
        # nominal synapse budget n^6
        assert conflict_matrix(4).shape == (64, 64)
        assert 4**6 == 4096

    def test_n2_sizes(self):
        desc, _ = build_sudoku_network(SudokuPuzzle(n=2, clues=[]))
        assert desc.npu2.active_neurons == 8
        assert 2**6 == 64

    def test_inconsistent_clues_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            SudokuPuzzle(n=4, clues=[(0, 0, 1), (0, 3, 1)])

    def test_conflicting_cell_clues_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            SudokuPuzzle(n=4, clues=[(0, 0, 1), (0, 0, 2)])

    @pytest.mark.parametrize("clue", [(4, 0, 1), (0, -1, 1), (0, 0, 0), (0, 0, 5), (0, 0, 2**70)])
    def test_out_of_range_clue_reported_before_conflicts(self, clue):
        """Every clue is range-checked before any pair is compared."""
        with pytest.raises(ValueError, match=re.escape(f"clue out of range: {clue}")):
            SudokuPuzzle(n=4, clues=[(0, 0, 1), (0, 0, 2), clue])

    def test_from_text_names_bad_token(self):
        with pytest.raises(ValueError, match=r"row 1, column 0: expected a digit or '\.', got '\?'"):
            SudokuPuzzle.from_text("1 .\n? 2\n")
        assert SudokuPuzzle.from_text("1 .\n. 1\n").clues == [(0, 0, 1), (1, 1, 1)]

    def test_neuron_index_layout(self):
        assert neuron_index(4, 0, 0, 1) == 0
        assert neuron_index(4, 0, 0, 4) == 3
        assert neuron_index(4, 3, 3, 4) == 63


def spike_counts(raster, n):
    """The spike count per (cell, digit) neuron of NPU2 records."""
    counts = [0] * n**3
    for _, npu, addr in raster:
        if npu == 2:
            counts[addr] += 1
    return counts


class TestSudokuDecode:
    def test_dominant_digit_wins(self):
        raster = [(t, 2, neuron_index(2, 0, 0, 2)) for t in range(10)]
        raster += [(t, 2, neuron_index(2, r, c, 1)) for t in range(5)
                   for r in range(2) for c in range(2) if (r, c) != (0, 0)]
        assert decode_counts(spike_counts(raster, 2), 2)[0][0] == 2

    def test_empty_raster_no_decision(self):
        with pytest.raises(NoDecisionError, match=r"cell \(0, 0\)"):
            decode_counts(spike_counts([], 2), 2)

    def test_tie_goes_to_lowest_digit(self):
        raster = []
        for r in range(2):
            for c in range(2):
                d = 2 if (r, c) != (1, 1) else 1
                raster += [(t, 2, neuron_index(2, r, c, d)) for t in range(4)]
        # cell (0,0): equal counts for digits 1 and 2
        raster += [(t, 2, neuron_index(2, 0, 0, 1)) for t in range(4)]
        assert decode_counts(spike_counts(raster, 2), 2) == [[1, 2], [2, 1]]


def loop_decode(raster, window, n):
    """Reference decode: count each record in a Python loop, then pick each
    cell's most-spiking digit, the lowest on a tie; the grid or the error
    text."""
    counts = [0] * n**3
    for t, npu, addr in raster:
        if npu == 2 and window[0] <= t < window[1] and addr < n**3:
            counts[addr] += 1
    grid = []
    for r in range(n):
        grid.append([])
        for c in range(n):
            cell = counts[neuron_index(n, r, c, 1):neuron_index(n, r, c, n) + 1]
            if not sum(cell):
                return f"no spikes for cell ({r}, {c}) in window"
            grid[r].append(cell.index(max(cell)) + 1)
    return grid


def decoded(counts, n):
    try:
        return decode_counts(counts, n)
    except NoDecisionError as e:
        return str(e)


class TestDecodeForms:
    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from([2, 3]), t0=st.integers(1, 500), k=st.integers(1, 6),
           density=st.sampled_from([0.02, 0.1, 0.4]), seed=st.integers(0, 2**32 - 1))
    def test_raster_and_counts_agree(self, n, t0, k, density, seed):
        """solve_sudoku's decode of a block's spike counts and the reference
        loop over the block's raster agree: grids, ties (to the lowest
        digit) and silent cells.
        The raster also holds NPU1 records, records outside the window, and
        spikes of the padding and global neurons past n^3."""
        rng = np.random.default_rng(seed)
        spikes = (rng.random((k, (1 << (n**3 - 1).bit_length()) + 1)) < density).astype(np.uint8)
        raster = raster_records(t0, spikes, 0)  # NPU2's spikes only
        raster = np.vstack((raster, [(t0 + k, 2, 0), (t0 - 1, 2, 1), (t0, 1, 2)]))
        raster = raster[np.lexsort(raster.T[::-1])]
        window = (t0, t0 + k)
        want = loop_decode(raster, window, n)
        assert decoded(spikes[:, : n**3].sum(axis=0), n) == want


def reference_verify(grid, puzzle):
    """Reference check built from the brute-force rule alone: n rows of n
    digits 1..n, no pair of its cells that `loop_clue_check` rejects, and
    every clue kept."""
    n = puzzle.n
    if len(grid) != n or any(len(row) != n for row in grid):
        return False
    if not all(1 <= d <= n for row in grid for d in row):
        return False
    cells = [(r, c, grid[r][c]) for r in range(n) for c in range(n)]
    return loop_clue_check(n, cells) is None and all(grid[r][c] == d for r, c, d in puzzle.clues)


# 4x4: every row and column holds each digit once, but the 2x2 boxes do not.
LATIN_NOT_SUDOKU = [[1, 2, 3, 4], [2, 3, 4, 1], [3, 4, 1, 2], [4, 1, 2, 3]]


@st.composite
def verify_cases(draw):
    """(grid, puzzle): a valid grid with its digits relabelled (or, at n =
    4, the Latin square whose boxes repeat a digit), then perhaps one cell
    set to any of 0..n+1, two cells swapped, or a row made ragged; clues
    from the unchanged grid or from another valid grid."""
    n = draw(st.integers(2, 5))
    grids = solve_exact(SudokuPuzzle(n=n, clues=[]), limit=5)
    base = draw(st.sampled_from(grids + [LATIN_NOT_SUDOKU] * (n == 4)))
    perm = draw(st.permutations(range(1, n + 1)))
    grid = [[perm[d - 1] for d in row] for row in base]
    other = [[perm[d - 1] for d in row] for row in grids[draw(st.integers(0, len(grids) - 1))]]
    source = other if base is LATIN_NOT_SUDOKU else draw(st.sampled_from([grid, other]))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * n, unique=True))
    puzzle = SudokuPuzzle(n=n, clues=[(r, c, source[r][c]) for r, c in cells])
    index = st.integers(0, n - 1)
    edit = draw(st.sampled_from(["none", "set", "swap", "ragged"]))
    if edit == "set":
        r, c = draw(index), draw(index)
        grid[r][c] = draw(st.integers(0, n + 1))
    elif edit == "swap":
        (r1, c1), (r2, c2) = draw(st.tuples(index, index)), draw(st.tuples(index, index))
        grid[r1][c1], grid[r2][c2] = grid[r2][c2], grid[r1][c1]
    elif edit == "ragged":
        r = draw(index)
        if draw(st.booleans()):
            grid[r].append(draw(st.integers(1, n)))
        elif draw(st.booleans()):
            grid[r].pop()
        else:
            del grid[r]
    return grid, puzzle


class TestVerify:
    GOOD = [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]]

    @settings(max_examples=400, deadline=None)
    @given(case=verify_cases())
    def test_matches_reference(self, case):
        grid, puzzle = case
        assert verify_sudoku(grid, puzzle) is reference_verify(grid, puzzle)

    @pytest.mark.parametrize("value", [0, 5, -1, 2**70])
    def test_digit_out_of_range(self, value):
        bad = [row[:] for row in self.GOOD]
        bad[2][1] = value
        assert not verify_sudoku(bad, SudokuPuzzle(n=4, clues=[]))
        assert not reference_verify(bad, SudokuPuzzle(n=4, clues=[]))

    def test_valid_grid(self):
        assert verify_sudoku(self.GOOD, SudokuPuzzle(n=4, clues=[(0, 0, 1)]))

    def test_row_duplicate(self):
        bad = [row[:] for row in self.GOOD]
        bad[0][1] = 1
        assert not verify_sudoku(bad, SudokuPuzzle(n=4, clues=[]))

    def test_box_duplicate_detected(self):
        assert not verify_sudoku(LATIN_NOT_SUDOKU, SudokuPuzzle(n=4, clues=[]))

    def test_clue_respected(self):
        assert not verify_sudoku(self.GOOD, SudokuPuzzle(n=4, clues=[(0, 0, 2)]))

    def test_matches_exact_solver(self):
        puz = random_puzzle(4, seed=3)
        for sol in solve_exact(puz, limit=4):
            assert verify_sudoku(sol, puz)


def digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


class TestSudokuPins:
    """The generator's puzzles and the exact solver's solutions, in order,
    are pinned by digest."""

    def test_random_puzzle_clues(self):
        clues = [[list(map(list, random_puzzle(n, seed).clues)) for seed in range(100)]
                 for n in range(2, 6)]
        assert digest(clues) == "06935cad102a761661a73da7ce8cf9e27ffbcfa8f5eab9267a149f22a7b58319"

    def test_solve_exact_solutions(self):
        """Limits 1, 2 and 5 on, per side, no clue and the first one, half
        and all of the clues of eight generated puzzles."""
        def clue_sets(n):
            out = [[]]
            for seed in range(8):
                cl = random_puzzle(n, seed).clues
                out += [cl[:k] for k in (1, len(cl) // 2, len(cl))]
            return out

        sols = [[solve_exact(SudokuPuzzle(n, cl), limit) for cl in clue_sets(n)]
                for n in range(2, 6) for limit in (1, 2, 5)]
        assert digest(sols) == "d6104a4c9e3564da461b3f16feb289561bff4ab3d527981c73f4ed623d0ec1d8"


class TestSudokuEndToEnd:
    def test_generated_puzzles_solvable(self):
        for seed in range(8):
            assert solve_exact(random_puzzle(4, seed=seed), limit=1)

    def test_solver_converges(self):
        puz = random_puzzle(4, seed=0)
        result = solve_sudoku(puz, seed=42, max_steps=20_000)
        assert result.solved
        assert verify_sudoku(result.grid, puz)

    def test_clue_cells_decode_to_clue(self):
        puz = random_puzzle(4, seed=1)
        result = solve_sudoku(puz, seed=7, max_steps=20_000)
        assert result.solved
        for r, c, d in puz.clues:
            assert result.grid[r][c] == d

    @pytest.mark.parametrize("n", [1, 6, 10**6])
    def test_generated_side_out_of_range(self, n):
        """The side is checked before any work that grows with it."""
        with pytest.raises(PuzzleError, match=f"^side length must be 2..5, got {n}$"):
            random_puzzle(n, 0)

    def test_n2_puzzle(self):
        puz = SudokuPuzzle(2, random_puzzle(2, seed=5).clues[:1])
        result = solve_sudoku(puz, seed=5, max_steps=20_000)
        assert result.solved


class TestAvoidance:
    def test_eight_active_neurons(self):
        desc = build_avoidance_network()
        assert desc.npu1.active_neurons == 8

    def test_zero_stimulus_no_decision(self):
        desc = build_avoidance_network()
        raster, _, _ = run(desc, None, steps=50, seed=0)
        assert raster.shape == (0, 3)
        with pytest.raises(NoDecisionError):
            decide_direction(raster, (0, 50))

    def test_tie_resolves_to_lowest_with_flag(self):
        raster = [(t, 1, 1) for t in range(5)] + [(t, 1, 6) for t in range(5)]
        d, tie, counts = decide_direction(raster, (0, 50))
        assert d == 1 and tie
        assert counts[1] == counts[6] == 5

    def test_strict_winner(self):
        raster = [(t, 1, 3) for t in range(6)] + [(0, 1, 0)]
        d, tie, _ = decide_direction(raster, (0, 50))
        assert d == 3 and not tie

    @pytest.mark.parametrize("direction", [0, 3, 7])
    def test_biased_stimulus_decided(self, direction):
        desc = build_avoidance_network()
        stim = make_direction_stimulus(direction, steps=50, seed=direction + 10)
        raster, _, _ = run(desc, stim, steps=50, seed=direction + 10)
        d, tie, _ = decide_direction(raster, (0, 50))
        assert d == direction and not tie

    @settings(max_examples=80, deadline=None)
    @given(t0=st.integers(2, 500), k=st.integers(1, 60),
           density=st.sampled_from([0.0, 0.005, 0.05, 0.3]), seed=st.integers(0, 2**32 - 1))
    def test_decide_direction_agrees_with_loop(self, t0, k, density, seed):
        """decide_direction against a Python loop over the records: the
        raster also holds NPU2 records, records on both sides of the window
        and NPU1 addresses 8 and up (the padding and global neurons)."""
        rng = np.random.default_rng(seed)
        spikes = (rng.random((k + 4, 33 + 129)) < density).astype(np.uint8)
        raster = raster_records(t0 - 2, spikes, 33)
        window = (t0, t0 + k)
        counts = [0] * 8
        for t, npu, addr in raster.tolist():
            if npu == 1 and window[0] <= t < window[1] and addr < 8:
                counts[addr] += 1
        if not any(counts):
            msg = re.escape(f"no spikes in window [{t0}, {t0 + k})")
            with pytest.raises(NoDecisionError, match=f"^{msg}$"):
                decide_direction(raster, window)
            return
        d, tie, got = decide_direction(raster, window)
        best = min(i for i in range(8) if counts[i] == max(counts))
        assert (d, tie, got) == (best, counts.count(max(counts)) > 1, counts)
        assert (type(d), type(tie), {type(c) for c in got}) == (int, bool, {int})

    def test_multi_window_decisions(self):
        desc = build_avoidance_network()
        stim1 = make_direction_stimulus(2, steps=50, seed=1)
        stim2 = make_direction_stimulus(5, steps=50, seed=2)
        stim = StimulusTrace(records=np.vstack((stim1.records, stim2.records + [50, 0, 0, 0])))
        decisions, cycles = avoid(stim, 2, 50)
        assert [d for d, _, _ in decisions] == [2, 5]
        assert cycles == run(desc, stim, steps=100)[2]

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window_steps must be >= 1"):
            avoid(None, 100, 0)


class TestBehaviorSweep:
    def test_constant_current_periodic(self):
        cases = default_behavior_cases()
        rec = behavior_sweep({"tonic_fast": cases["tonic_fast"]})["tonic_fast"]
        times = [t for t, s in enumerate(rec["spikes"]) if s]
        isis = set(np.diff(times))
        assert len(isis) == 1  # fixed inter-spike interval

    def test_zero_current_flat(self):
        from snnemu.apps import INTEGRATOR
        rec = behavior_sweep({"flat": (INTEGRATOR, [0] * 100)})["flat"]
        assert set(rec["v_m"]) == {0}
        assert sum(rec["spikes"]) == 0

    def test_five_distinct_signatures(self):
        out = behavior_sweep(default_behavior_cases())
        sigs = {name: isi_signature(rec["spikes"]) for name, rec in out.items()}
        assert len(sigs) == 5
        assert len(set(sigs.values())) == 5

    def test_pinned_fixtures_reproduce(self):
        with open(os.path.join(FIXTURES, "behaviors.json")) as f:
            pinned = json.load(f)
        fresh = behavior_sweep(default_behavior_cases())
        assert json.loads(json.dumps(fresh, sort_keys=True)) == pinned

    # An integrator that resets to 100, so a spike is told from a clamp.
    RESET_100 = NeuronParams(a_num=0, b_num=0, v_r=0, v_t=255, v_reset=100)

    def test_12_bit_ends_accepted(self):
        rec = behavior_sweep({"ends": (self.RESET_100, [2047, -2048])})["ends"]
        assert rec["v_m"] == [100, 0]
        assert rec["spikes"] == [1, 0]

    @pytest.mark.parametrize("i_t", [2048, -2049, -3000])
    def test_current_beyond_12_bits_rejected(self, i_t):
        """Checked before stepping: -3000 would read a wrapped entry of the
        reset table, a spike to v_reset, rather than the clamp at 0."""
        cases = {"ok": (INTEGRATOR, [1]), "wide": (self.RESET_100, [0, i_t, 0])}
        with pytest.raises(ValueError, match=rf"case 'wide': current {i_t} outside"):
            behavior_sweep(cases)

    def test_empty(self):
        assert behavior_sweep({}) == {}
        rec = behavior_sweep({"none": (INTEGRATOR, [])})["none"]
        assert rec["v_m"] == [] and rec["spikes"] == []

    @settings(max_examples=60, deadline=None)
    @given(params_st, st.lists(st.tuples(st.integers(-2048, 2047) | st.integers(-40, 40),
                                         st.sampled_from([None, -1, 0, 255, 256])),
                               max_size=80))
    def test_against_scalar_reference(self, p, steps):
        """Every v_m and spike of the table-driven sweep equals the scalar
        neuron_step's, from v_r, over signed 12-bit current profiles. A step
        with an edge takes the current that puts the candidate on it (the
        clamp at 0, the spike past 255) instead of its free current."""
        state, currents, vs, spikes = NeuronState(v_m=p.v_r), [], [], []
        for i_t, edge in steps:
            if edge is not None:
                i_t = edge - state.v_m - delta_vm(state.v_m, p, 0)
            currents.append(i_t)
            state, spiked = neuron_step(state, p, i_t)
            vs.append(state.v_m)
            spikes.append(int(spiked))
        rec = behavior_sweep({"case": (p, currents)})["case"]
        assert rec["v_m"] == vs
        assert rec["spikes"] == spikes
