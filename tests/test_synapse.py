"""Tests for weight packing, the compiled crossbar and its group-sparse read
cost, the spike-stream scan charge, and decay."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnemu.neuron import NeuronParams
from snnemu.npu import GlobalNeuronConfig, NpuConfig
from snnemu.synapse import (
    SAT_DECAY_LO,
    WeightMemory,
    check_weights,
    decay_array,
    sat_decay_table,
)
from scalar_ref import compile_crossbar, decay_value, steps_to_fraction
from test_processor import on_chip, step

QUIET = NeuronParams(a_num=0, b_num=0, v_r=0, v_t=255, v_reset=0)


def silent_npu(active, n_ff=0):
    """(config, weights) of an NPU of pure integrators with all-ones
    weights, so any spiking source reads all its groups in MAC cycles; NPU2
    of a chip if it reads a feedforward stream, else NPU1."""
    total = active + 1
    cfg = NpuConfig(max_neurons=128 if n_ff else 32, active_neurons=active,
                    params=[QUIET] * active,
                    global_neuron=GlobalNeuronConfig(params=QUIET))
    return cfg, np.ones((n_ff + active, total), dtype=int)


class TestPacking:
    def test_nibble_order(self):
        mem = WeightMemory.from_matrix([[1, -8, 7, 0, 0, 0, 0, 0]])
        assert mem.words[0, 0] == 0x00000781

    def test_zero_row(self):
        mem = WeightMemory.from_matrix([[0] * 8])
        assert mem.words[0, 0] == 0

    def test_padding_to_second_word(self):
        mem = WeightMemory.from_matrix([[0] * 8 + [3]])
        assert mem.words.shape[1] == 2
        assert mem.words[0, 1] == 0x3

    def test_out_of_range_rejected_with_index(self):
        with pytest.raises(ValueError, match="row 0, target 2: 9"):
            WeightMemory.from_matrix([[0, 0, 9]])

    def test_first_bad_weight_in_row_major_order(self):
        """The min/max test only decides that a weight is bad; the message
        names the first bad element in row-major order, not the extreme."""
        w = np.zeros((2, 8), dtype=int)
        w[0, 5] = 8
        w[1, 0] = -100
        with pytest.raises(ValueError, match="^weight out of range at row 0, target 5: 8$"):
            check_weights(w)

    @pytest.mark.parametrize("build", [check_weights, WeightMemory.from_matrix,
                                       lambda w: compile_crossbar(w, True)])
    @pytest.mark.parametrize("matrix, message", [
        (np.full((2, 8), 1.5), "weights must be integers, got float64"),
        ([[0] * 7 + [True]], "weights must be integers, got bool"),
        ([[0] * 7 + ["1"]], "weights must be integers, got str"),
        (np.full((2, 8), "1"), "weights must be integers, got <U1"),
        (np.array([[0] * 7 + [2**64 - 2]], dtype=np.uint64),
         f"weight out of range at row 0, target 7: {2**64 - 2}"),
    ])
    def test_weights_are_integers_at_their_values(self, build, matrix, message):
        """Direct use checks what a description checks: no float, str or
        bool is truncated to a weight, and no unsigned value wraps."""
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            build(matrix)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_empty_matrix_compiles(self, sparse):
        """A matrix of no rows has no min or max and no bad weight."""
        xbar = compile_crossbar(np.zeros((0, 8), dtype=int), sparse)
        assert xbar.weights.shape == (0, 8) and xbar.cost.tolist() == []

    @given(st.lists(st.integers(-8, 7), min_size=1, max_size=300))
    def test_round_trip(self, weights):
        mem = WeightMemory.from_matrix([list(weights)])
        assert list(mem.row_weights(0)) == weights

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(7)
        w = rng.integers(-8, 8, size=(20, 37))
        mem = WeightMemory.from_matrix(w)
        assert np.array_equal(mem.unpack(), w)

    def test_every_nibble_in_every_position(self):
        """All 16 nibble values sign-extend correctly in each of the 8 word
        positions: row r holds value ((r + p) mod 16) - 8 at position p."""
        w = (np.arange(16)[:, None] + np.arange(8)) % 16 - 8
        mem = WeightMemory.from_matrix(w)
        for r, row in enumerate(w.tolist()):
            assert mem.words[r, 0] == sum((v & 0xF) << (4 * p) for p, v in enumerate(row))
            assert mem.row_weights(r).tolist() == row
        assert np.array_equal(mem.unpack(), w)
        assert sorted(set(w[:, 0])) == list(range(-8, 8))


class TestDecay:
    def test_basic_shift(self):
        assert decay_value(100, 3) == 88

    def test_selector_floor_of_small_positive(self):
        assert decay_value(3, 3) == 2

    def test_negative_arithmetic_shift(self):
        # -3 >> 3 floors to -1, so the shifter itself supplies the decrement
        assert decay_value(-3, 3) == -2

    def test_zero_fixed_point(self):
        assert decay_value(0, 5) == 0

    def test_steps_to_fraction_trivial(self):
        assert steps_to_fraction(1, 4, 0.1) == 1
        assert steps_to_fraction(0, 4, 0.1) == 0

    def test_steps_to_fraction_frozen(self):
        # 21 steps from 100 down to 10 at decay_a=3, frozen from an
        # independent iteration of the decay rule.
        assert steps_to_fraction(100, 3, 0.1) == 21

    @given(st.integers(-2048, 2047), st.integers(0, 7))
    def test_monotone_convergence(self, y0, a):
        y = y0
        for _ in range(abs(y0) + 1):
            if y == 0:
                break
            nxt = decay_value(y, a)
            assert abs(nxt) < abs(y)
            assert nxt * y >= 0
            y = nxt
        assert y == 0


    def test_per_element_exponents(self):
        y = np.tile(np.arange(-2048, 2048), 8)
        a = np.repeat(np.arange(8), 4096)
        want = [decay_value(int(v), int(k)) for v, k in zip(y, a)]
        assert decay_array(y, a).tolist() == want
        table = sat_decay_table(tuple(range(8)))
        assert table.ravel().take(a * table.shape[1] + y - SAT_DECAY_LO).tolist() == want

    def test_sat_decay_table_exhaustive(self):
        """Every index of the table, for every exponent: saturation to
        signed 12 bits, then one decay_value step."""
        table = sat_decay_table(tuple(range(8)))
        assert table.shape == (8, -2 * SAT_DECAY_LO) == (8, 17470)
        assert not table.flags.writeable
        xs = range(SAT_DECAY_LO, -SAT_DECAY_LO)
        for a in range(8):
            want = [decay_value(min(max(x, -2048), 2047), a) for x in xs]
            assert table[a].tolist() == want, a


class TestWholeArray:
    """The whole-array unpack and crossbar compile against the row-by-row
    reads of the packed SRAM image."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_against_row_loops(self, seed):
        rng = np.random.default_rng(seed)
        rows, targets = int(rng.integers(0, 40)), int(rng.integers(1, 140))
        w = rng.integers(-8, 8, size=(rows, targets))
        w[:, rng.random(targets) < 0.5] = 0
        mem = WeightMemory.from_matrix(w)
        g = mem.words.shape[1]
        assert np.array_equal(mem.unpack().reshape(rows, targets), w)

        want = np.array([mem.row_weights(r) for r in range(rows)] + [np.full(targets, -2)])
        for sparse, cost in ((True, [int((mem.words[r] != 0).sum()) for r in range(rows)]),
                             (False, [g] * rows)):
            xbar = compile_crossbar(w, sparse, broadcast=-2)
            assert np.array_equal(xbar.weights, want.reshape(rows + 1, targets))
            assert xbar.cost.tolist() == cost + [1]

    def test_rows_of_any_width(self):
        """A row's cost is counted from its own groups, however many: the
        word at group 69 of a 70-group row is read alone."""
        w = np.zeros((2, 8 * 70), dtype=int)
        w[0, 8 * 69] = 3
        assert compile_crossbar(w, True).cost.tolist() == [1, 0]
        assert compile_crossbar(w, False).cost.tolist() == [70, 70]


class TestDecode:
    """The chip scans each spike stream two bits per clock, and charges every
    spiking source its enabled groups. The NPU under test is NPU2 when it
    needs a feedforward stream (NPU1's t1 <= 33 spikes) or 128 neurons."""

    def test_all_zero_stream(self):
        proc = on_chip(*silent_npu(active=1, n_ff=33))
        cyc = step(proc)[2].npu2
        assert cyc.mac == 0
        assert cyc.scan == 17 + 1  # 33-bit feedforward stream, 2-bit own stream

    def test_single_spike_dense_groups(self):
        proc = on_chip(*silent_npu(active=128, n_ff=2))  # 129 targets -> 17 groups
        proc.last_spikes[proc.t1] = 1
        cyc = step(proc)[2].npu2
        assert cyc.mac == 17
        assert cyc.scan == 1 + 65

    def test_half_nonzero_groups(self):
        # 65 targets -> 9 groups; 4 of them nonzero in every row
        cfg, w = silent_npu(active=64, n_ff=33)
        w[:, np.isin(np.arange(65) // 8, [1, 3, 5, 7, 8])] = 0
        proc = on_chip(cfg, w, gs_mode="auto")
        proc.last_spikes[[0, 5]] = 1
        cyc = step(proc)[2].npu2
        assert cyc.mac == 8
        assert cyc.scan == 17 + 33

    def test_odd_length_padded(self):
        proc = on_chip(*silent_npu(active=8))  # 9-bit own stream
        cyc = step(proc)[2].npu1
        assert cyc.scan == 5


class TestAccumulate:
    def test_single_row(self):
        row = [1, -8, 7] + [0] * 61
        y = np.zeros(64, dtype=np.int64)
        xbar = compile_crossbar([row], False)
        xbar.mac(np.array([1]), y)
        assert xbar.reads(np.array([1])) == 8
        assert list(y) == row

    def test_saturation_at_boundary(self):
        y = np.full(8, 2040)
        compile_crossbar([[7] * 8, [7] * 8], False).mac(np.array([1, 1]), y)
        assert y[0] == 2054  # wide intermediate, not yet clamped
        table = sat_decay_table(tuple(range(8)))
        for a in range(8):
            assert list(table[a].take(y - SAT_DECAY_LO)) == [decay_value(2047, a)] * 8

    def test_source_out_of_range(self):
        xbar = compile_crossbar([[0] * 8], False)
        spikes = np.array([0, 0, 0, 1])  # a spike on source 3 of a 1-row matrix
        with pytest.raises(ValueError, match="expected 1 sources"):
            xbar.mac(spikes, np.zeros(8, dtype=np.int64))

    def test_zero_groups_skipped(self):
        """A sparse read skips the all-zero word and adds the same row."""
        row = [5] * 8 + [0] * 8
        for sparse, reads in ((True, 1), (False, 2)):
            y = np.zeros(16, dtype=np.int64)
            xbar = compile_crossbar([row], sparse)
            xbar.mac(np.array([1]), y)
            assert xbar.reads(np.array([1])) == reads
            assert list(y) == row

    def test_broadcast_row(self):
        xbar = compile_crossbar([[3] * 12], False, broadcast=-4)
        assert xbar.cost.tolist() == [2, 1]
        y = np.zeros(12, dtype=np.int64)
        xbar.mac(np.array([1, 1]), y)
        assert xbar.reads(np.array([1, 1])) == 3
        assert y.tolist() == [-1] * 12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_dense_matvec(self, seed):
        rng = np.random.default_rng(seed)
        n_src = int(rng.integers(1, 80))
        n_tgt = int(rng.integers(1, 80))
        w = rng.integers(-8, 8, size=(n_src, n_tgt))
        spikes = rng.integers(0, 2, size=n_src)
        acc = np.zeros(n_tgt, dtype=np.int64)
        xbar = compile_crossbar(w, False)
        xbar.mac(spikes, acc)
        total = xbar.reads(spikes)
        a = int(rng.integers(1, 8))
        y = sat_decay_table((a,))[0].take(acc - SAT_DECAY_LO)
        oracle = np.clip(w.T @ spikes, -2048, 2047)
        assert np.array_equal(np.clip(acc, -2048, 2047), oracle)
        assert np.array_equal(y, decay_array(oracle, a))
        assert total == int(spikes.sum()) * -(-n_tgt // 8)


class TestGroupSparse:
    def test_sparse_cost_counts_nonzero_words(self):
        """A sparse row costs exactly its packed SRAM words that are not 0,
        including words of negative weights only (nibbles 8..15)."""
        w = np.zeros((3, 16), dtype=int)
        w[0, 12] = 3  # only group 1 of row 0 non-zero
        w[2, :8] = -8
        mem = WeightMemory.from_matrix(w)
        cost = compile_crossbar(w, True).cost
        assert cost.tolist() == [1, 0, 1] == (mem.words != 0).sum(axis=1).tolist()

    def test_spiking_row_reads_its_nonzero_groups(self):
        """A spiking row is charged its nonzero groups, 8 of 16 here."""
        w = np.ones((1, 128), dtype=int)
        w[:, (np.arange(128) // 8) % 2 == 0] = 0
        xbar = compile_crossbar(w, True)
        assert xbar.reads(np.array([1])) == 8
