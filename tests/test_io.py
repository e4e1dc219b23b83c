"""Config/weight-image round trips, validation errors, run determinism,
output files."""

import copy
import dataclasses
import gc
import os
import re
import stat
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
import zlib
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from snnemu import netio, synapse
from snnemu.apps import build_avoidance_network
from snnemu.neuron import NeuronParams
from snnemu.npu import GlobalNeuronConfig, NpuConfig
from snnemu.processor import CycleReport
from snnemu.netio import (
    WEIGHT_MAGIC,
    ConfigError,
    DcSource,
    NetworkDescription,
    NoiseDraws,
    NoiseSource,
    StimulusError,
    StimulusTrace,
    load_weight_image,
    raster_records,
    run,
    save_cycles,
    save_raster,
    save_weight_image,
    simulate,
)
from scalar_ref import Lcg

QUIET = NeuronParams(a_num=0, b_num=0, v_r=0, v_t=255, v_reset=0)


def minimal_desc(n1=1, n2=1, **kwargs):
    t1, t2 = n1 + 1, n2 + 1
    kwargs.setdefault("weights1", np.zeros((n1, t1), dtype=int))
    kwargs.setdefault("weights2", np.zeros((t1 + n2, t2), dtype=int))
    return NetworkDescription(
        npu1=NpuConfig(max_neurons=32, active_neurons=n1, params=[QUIET] * n1,
                       global_neuron=GlobalNeuronConfig(params=QUIET)),
        npu2=NpuConfig(max_neurons=128, active_neurons=n2, params=[QUIET] * n2,
                       global_neuron=GlobalNeuronConfig(params=QUIET)),
        **kwargs,
    )


def load_raster(path: str) -> np.ndarray:
    """A raster file's records, (n, 3) int64 in file order."""
    with open(path) as f:
        assert f.readline() == netio.RASTER_HEADER + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns when there are no rows
            return np.loadtxt(f, dtype=np.int64, delimiter=",", ndmin=2).reshape(-1, 3)


def desc_equal(a, b):
    return (
        a.npu1 == b.npu1
        and a.npu2 == b.npu2
        and np.array_equal(a.weights1, b.weights1)
        and np.array_equal(a.weights2, b.weights2)
        and a.gs_mode == b.gs_mode
        and a.clock_hz == b.clock_hz
        and a.dc == b.dc
        and a.noise == b.noise
    )


class TestWeightImage:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m1 = rng.integers(-8, 8, size=(4, 5))
        m2 = rng.integers(-8, 8, size=(9, 3))
        p = tmp_path / "w.bin"
        save_weight_image(str(p), [m1, m2])
        mems = load_weight_image(str(p))
        assert np.array_equal(mems[0].unpack(), m1)
        assert np.array_equal(mems[1].unpack(), m2)

    def test_checksum_mismatch(self, tmp_path):
        p = tmp_path / "w.bin"
        save_weight_image(str(p), [np.zeros((1, 2), dtype=int)])
        data = bytearray(p.read_bytes())
        data[-1] ^= 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(ConfigError, match="checksum"):
            load_weight_image(str(p))


    def test_header_disagrees_with_payload(self, tmp_path):
        # The CRC covers the payload only: a header claiming a second row
        # passes the checksum but not the size check.
        p = tmp_path / "w.bin"
        save_weight_image(str(p), [np.zeros((1, 2), dtype=int)])
        data = bytearray(p.read_bytes())
        data[12] += 1  # section 0 rows: 1 -> 2
        p.write_bytes(bytes(data))
        with pytest.raises(ConfigError, match="does not match its header"):
            load_weight_image(str(p))

    def test_row_stride_too_small_for_targets(self, tmp_path):
        # Stride 0 for 9 targets: the CRC and payload-length checks pass on
        # the empty payload, so the geometry check must name the file.
        p = tmp_path / "w.bin"
        p.write_bytes(WEIGHT_MAGIC + struct.pack("<IIIIII", 1, 1, 1, 0, 9, zlib.crc32(b"")))
        with pytest.raises(ConfigError, match=re.escape(
                f"{p}: section 0: row stride too small for target count")):
            load_weight_image(str(p))


class TestNetworkDescription:
    def test_minimal_round_trip(self, tmp_path):
        desc = minimal_desc()
        path = tmp_path / "net.yaml"
        desc.save(str(path))
        loaded = NetworkDescription.load(str(path))
        assert desc_equal(desc, loaded)

    def test_full_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        desc = minimal_desc(
            n1=4, n2=8,
            dc=[DcSource(npu=2, addr=0, value=50)],
            noise=[NoiseSource(npu=2, addrs=[1, 2], low=0, high=10)],
            clock_hz=1_000_000,
        )
        desc.weights2 = rng.integers(-8, 8, size=desc.weights2.shape)
        path = tmp_path / "net.yaml"
        desc.save(str(path))
        assert desc_equal(desc, NetworkDescription.load(str(path)))

    @pytest.mark.parametrize("addrs, saved", [
        (list(range(33)), {"start": 0, "stop": 33}),
        ([5], {"start": 5, "stop": 6}),
        ([3, 4, 5, 6], {"start": 3, "stop": 7}),
        (list(range(0, 33, 2)), list(range(0, 33, 2))),
        ([2, 1, 0], [2, 1, 0]),
        ([1, 2, 2, 3], [1, 2, 2, 3]),
        ([], []),
    ])
    def test_noise_addresses_round_trip(self, tmp_path, addrs, saved):
        """One ascending contiguous run is saved as a {start, stop} range,
        any other address list as the list; both load to an equal
        description."""
        desc = minimal_desc(n2=32, noise=[NoiseSource(npu=2, addrs=addrs, low=0, high=3)])
        path = tmp_path / "net.yaml"
        desc.save(str(path))
        assert yaml.safe_load(path.read_text())["stimulus"]["noise"][0]["addrs"] == saved
        loaded = NetworkDescription.load(str(path))
        assert desc_equal(desc, loaded) and type(loaded.noise[0].addrs) is list

    def test_numpy_integer_fields_round_trip(self, tmp_path):
        """DC and noise fields given as numpy integers are saved as plain
        ints and load to an equal description."""
        desc = minimal_desc(
            n1=4, n2=8,
            dc=[DcSource(npu=np.int64(1), addr=np.int32(2), value=np.int8(-5))],
            noise=[NoiseSource(npu=np.int64(2), addrs=[np.int64(a) for a in range(1, 5)],
                               low=np.int16(-3), high=np.uint8(7)),
                   NoiseSource(npu=np.uint8(1), addrs=list(np.array([4, 0, 4])),
                               low=np.int64(0), high=np.int64(1))],
        )
        path = tmp_path / "net.yaml"
        desc.save(str(path))
        doc = yaml.safe_load(path.read_text())["stimulus"]
        assert doc["noise"][0]["addrs"] == {"start": 1, "stop": 5}
        assert doc["noise"][1]["addrs"] == [4, 0, 4]
        assert desc_equal(desc, NetworkDescription.load(str(path)))

    def test_unrepresentable_field_writes_no_file(self, tmp_path):
        """The YAML is rendered before either file is written."""
        desc = minimal_desc(dc=[DcSource(npu=1, addr=0, value=5)])
        desc.dc[0].value = np.float64(5)
        with pytest.raises(yaml.representer.RepresenterError):
            desc.save(str(tmp_path / "net.yaml"))
        assert list(tmp_path.iterdir()) == []

    def test_listed_run_still_loads(self, tmp_path):
        """A config that lists every address of a run loads as its range does."""
        desc = minimal_desc(n2=32, noise=[NoiseSource(npu=2, addrs=list(range(33)),
                                                      low=0, high=3)])
        path = tmp_path / "net.yaml"
        desc.save(str(path))
        doc = yaml.safe_load(path.read_text())
        doc["stimulus"]["noise"][0]["addrs"] = list(range(33))
        path.write_text(yaml.safe_dump(doc))
        assert desc_equal(desc, NetworkDescription.load(str(path)))

    @pytest.mark.parametrize("sources, message", [
        ({"noise": [{"npu": 1, "addrs": [0], "low": 0, "high": 1},
                    {"npu": 3, "addrs": [0], "low": 0, "high": 1}]},
         "stimulus.noise[1].npu: must be 1 or 2, got 3"),
        ({"noise": [{"npu": 2, "addrs": [0], "low": 0, "high": 1},
                    {"npu": 1, "addrs": [0], "low": 5, "high": 1}]},
         "stimulus.noise[1]: need -128 <= low <= high <= 127, got [5, 1]"),
        ({"noise": [{"npu": 2, "addrs": [0], "low": 0, "high": 1},
                    {"npu": 1, "addrs": [1, 40, 0], "low": 0, "high": 1}]},
         "stimulus.noise[1].addrs[1]: address 40 out of range for npu1"),
        ({"dc": [{"npu": 1, "addr": 0, "value": 300}]},
         "stimulus.dc[0].value: must fit signed 8-bit, got 300"),
        ({"dc": [{"npu": 1, "addr": 0, "value": 1}, {"npu": 2, "addr": 0, "value": 1},
                 {"npu": 2, "addr": 9, "value": 1}]},
         "stimulus.dc[2].addr: address 9 out of range for npu2"),
    ])
    def test_bad_source_named_by_index(self, tmp_path, sources, message):
        """A loaded stimulus source that breaks a rule is named by its kind,
        its index and its field."""
        path = tmp_path / "net.yaml"
        minimal_desc().save(str(path))
        doc = yaml.safe_load(path.read_text())
        doc["stimulus"] = sources
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            NetworkDescription.load(str(path))

    @pytest.mark.parametrize("npu, change, weights, message", [
        ("npu1", {"max_neurons": 128}, None,
         "npu1.max_neurons: NPU1 must be the 32-neuron unit, got 128"),
        ("npu2", {"max_neurons": 32}, None,
         "npu2.max_neurons: NPU2 must be the 128-neuron unit, got 32"),
        ("npu1", {"chop": (1, 1)}, [[0, 0, 0], [3, 0, 0]], "weights.npu1: chop violation: "
         "source 1 (sub-population 2) has weight to target 0 (sub-population 1)"),
        ("npu2", {"chop": (1, 1)}, [[0, 0, 0]] * 4 + [[-1, 0, 0]], "weights.npu2: chop "
         "violation: source 1 (sub-population 2) has weight to target 0 (sub-population 1)"),
    ])
    def test_chip_rules_checked_when_built(self, npu, change, weights, message):
        """The chip's own rules hold for every description: each NPU is its
        unit, and no chopped sub-population 2 feeds its sub-population 1."""
        desc = minimal_desc(n1=2, n2=2)
        changes = {npu: dataclasses.replace(getattr(desc, npu), **change)}
        if weights is not None:
            changes["weights" + npu[-1]] = weights
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            dataclasses.replace(desc, **changes)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            NpuConfig(max_neurons=128, active_neurons=3, params=[QUIET] * 3,
                      global_neuron=GlobalNeuronConfig(params=QUIET))

    def test_bad_weight_shape_names_field(self):
        with pytest.raises(ConfigError, match="weights.npu2"):
            NetworkDescription(
                npu1=NpuConfig(max_neurons=32, active_neurons=1, params=[QUIET],
                               global_neuron=GlobalNeuronConfig(params=QUIET)),
                npu2=NpuConfig(max_neurons=128, active_neurons=1, params=[QUIET],
                               global_neuron=GlobalNeuronConfig(params=QUIET)),
                weights1=np.zeros((1, 2), dtype=int),
                weights2=np.zeros((9, 9), dtype=int),
            )

    def test_run_path_never_packs(self, monkeypatch):
        """The chip compiles straight from the description's matrices: no
        SRAM word is packed or unpacked between the description and the
        raster."""
        def packed(*args, **kwargs):
            raise AssertionError("SRAM words on the run path")

        monkeypatch.setattr(synapse.WeightMemory, "__init__", packed)
        monkeypatch.setattr(synapse, "_signed_nibbles", packed)
        weights1 = np.zeros((2, 3), dtype=np.int64)
        weights1[0, 1] = 7
        weights2 = np.zeros((7, 5), dtype=np.int64)
        weights2[:, 2] = -3
        desc = minimal_desc(n1=2, n2=4, weights1=weights1, weights2=weights2,
                            dc=[DcSource(npu=1, addr=0, value=100)])
        raster, rows, _ = run(desc, None, 40)
        assert len(raster) and len(rows) == 40

    @pytest.mark.parametrize("clock_hz", [0, -5])
    def test_clock_below_one_rejected(self, clock_hz):
        with pytest.raises(ConfigError, match=f"clock_hz: must be at least 1, got {clock_hz}"):
            minimal_desc(clock_hz=clock_hz)

    @pytest.mark.parametrize("cls, field, value, path, kind", [
        (DcSource, "npu", True, "stimulus.dc.npu", "bool"),
        (DcSource, "addr", 0.5, "stimulus.dc.addr", "float"),
        (DcSource, "value", 100.7, "stimulus.dc.value", "float"),
        (NoiseSource, "npu", True, "stimulus.noise.npu", "bool"),
        (NoiseSource, "addrs", [1, 0.5], "stimulus.noise.addrs", "float"),
        (NoiseSource, "low", 0.5, "stimulus.noise", "float"),
        (NoiseSource, "high", "20", "stimulus.noise", "str"),
    ])
    def test_source_fields_are_integers(self, cls, field, value, path, kind):
        """A DC or noise source field that is not an integer (a bool, float
        or str) is rejected where the source is built, never truncated."""
        fields = {"npu": 1, "addr": 0, "value": 100} if cls is DcSource else {
            "npu": 1, "addrs": [0, 1], "low": 0, "high": 20}
        with pytest.raises(ConfigError) as err:
            cls(**{**fields, field: value})
        assert (err.value.path, err.value.msg) == (path, f"must be integers, got {kind}")

    @pytest.mark.parametrize("addrs", [np.arange(3), np.arange(3, dtype=np.uint8),
                                       (0, 1, 2), [np.int64(0), 1, np.int32(2)]])
    def test_noise_addrs_array_runs_as_the_list(self, tmp_path, addrs):
        """Noise addresses given as an integer array or another integer
        sequence are kept as a list of Python ints: the source runs to the
        list's raster and round-trips through `save` and `load`."""
        src = NoiseSource(npu=1, addrs=addrs, low=0, high=60)
        assert src.addrs == [0, 1, 2] and set(map(type, src.addrs)) == {int}
        listed = noisy_desc(0)
        listed.noise = [NoiseSource(npu=1, addrs=[0, 1, 2], low=0, high=60)]
        given = copy.copy(listed)
        given.noise = [src]
        want, got = run(listed, None, 30, 5), run(given, None, 30, 5)
        assert len(want[0]) and np.array_equal(got[0], want[0])
        given.save(str(tmp_path / "net.yaml"))
        assert NetworkDescription.load(str(tmp_path / "net.yaml")).noise == listed.noise

    @pytest.mark.parametrize("addrs, msg", [
        (np.zeros((2, 3), dtype=np.int64), "must be a list of integers, got shape (2, 3)"),
        ([[0, 1]], "must be a list of integers, got shape (1, 2)"),
        (3, "must be a list of integers, got shape ()"),
        (np.array([True, False]), "must be integers, got bool"),
    ])
    def test_noise_addrs_not_a_list_of_integers(self, addrs, msg):
        with pytest.raises(ConfigError) as err:
            NoiseSource(npu=1, addrs=addrs, low=0, high=5)
        assert (err.value.path, err.value.msg) == ("stimulus.noise.addrs", msg)

    def test_stimulus_address_validated(self):
        with pytest.raises(ConfigError, match="out of range"):
            minimal_desc(dc=[DcSource(npu=1, addr=7, value=1)])

    @pytest.mark.parametrize("field, value, where", [
        ("noise", [NoiseSource(npu=2, addrs=list(range(3, 9)), low=0, high=1)],
         "stimulus.noise[0].addrs[0]"),
        ("weights1", np.zeros((8, 8), dtype=np.int64), "weights.npu1"),
        ("weights2", build_avoidance_network().weights2 + 0.5, "weights.npu2"),
        ("clock_hz", 0, "clock_hz"),
    ])
    def test_save_checks_what_load_checks(self, tmp_path, field, value, where):
        """A field reassigned to a value that `load` would reject fails the
        save with the field's ConfigError, and neither file is written."""
        desc = build_avoidance_network()
        setattr(desc, field, value)
        with pytest.raises(ConfigError) as err:
            desc.save(str(tmp_path / "net.yaml"))
        assert err.value.path == where
        assert not (tmp_path / "net.yaml").exists()
        assert not (tmp_path / "net.weights.bin").exists()

    def test_first_bad_noise_address_named(self):
        with pytest.raises(ConfigError, match="^" + re.escape(
                "stimulus.noise[1].addrs[1]: address 9 out of range for npu1") + "$"):
            minimal_desc(noise=[NoiseSource(npu=1, addrs=[1, 0], low=0, high=1),
                                NoiseSource(npu=1, addrs=[1, 9, -1, 12], low=0, high=1)])


# Per column (timestep, npu, neuron, value): values at and next to each
# bound, the int64 extremes, and values past 64 bits.
RECORD_EDGES = [
    [-1, 0, 1, 2**63 - 1, -2**63, 2**63, 2**64, -2**63 - 1],
    [0, 1, 2, 3, 2**63 - 1, -2**63, 2**64, -2**63 - 1],
    [-1, 0, 128, 129, 2**63 - 1, -2**63, 10**30, -2**70],
    [-129, -128, 127, 128, 2**63 - 1, -2**63, 2**63, -2**63 - 1],
]


def first_bad_record(records):
    """Reference check of stimulus records, one record and one rule at a
    time on Python ints: the first bad record's (index, message), or None."""
    last = 0
    for i, (t, npu, addr, value) in enumerate(records):
        for bad, msg in ((t < last, "timesteps must be non-negative and non-decreasing"),
                         (t >= 2**63, f"timestep {t} does not fit 64 bits"),
                         (not 0 <= addr <= 128, f"neuron address must be 0..128, got {addr}"),
                         (npu not in (1, 2), f"npu must be 1 or 2, got {npu}"),
                         (not -128 <= value <= 127, "value must fit signed 8-bit")):
            if bad:
                return i, msg
        last = t
    return None


@st.composite
def record_lists(draw):
    """Valid records in timestep order, with up to two fields set to a
    `RECORD_EDGES` value, and maybe a timestep that decreases in the first
    or the last pair."""
    n = draw(st.integers(0, 10))
    records = [[t, draw(st.sampled_from([1, 2])), draw(st.integers(0, 128)),
                draw(st.integers(-128, 127))]
               for t in sorted(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)))]
    if n:
        for _ in range(draw(st.integers(0, 2))):
            col = draw(st.integers(0, 3))
            records[draw(st.integers(0, n - 1))][col] = draw(st.sampled_from(RECORD_EDGES[col]))
    if n >= 2 and draw(st.booleans()):
        i = draw(st.sampled_from([0, n - 2]))
        records[i][0], records[i + 1][0] = 7, 6
    return records


class WatchedBounds(tuple):
    """`netio._RECORD_BOUNDS`, noting whether it was read: the column
    reductions use the arrays built from it at import, so only the search
    for a bad record reads the table itself."""

    def __iter__(self):
        self.searched = True
        return super().__iter__()


def assert_checks_match_reference(records, chunk):
    """`StimulusTrace(records)`, checked `chunk` records at a time, accepts
    exactly what `first_bad_record` accepts, without searching record by
    record, and rejects anything else with its first bad record and
    message."""
    want = first_bad_record(records)
    bounds = WatchedBounds(netio._RECORD_BOUNDS)
    bounds.searched = False
    with mock.patch.object(netio, "CHECK_CHUNK", chunk), \
            mock.patch.object(netio, "_RECORD_BOUNDS", bounds):
        try:
            got = StimulusTrace(records=records).records
        except StimulusError as e:
            assert want is not None and str(e) == f"record {want[0]}: {want[1]}"
        else:
            assert want is None, f"accepted, but record {want[0]}: {want[1]}"
            assert not bounds.searched
            assert got.dtype == np.int64 and got.reshape(-1, 4).tolist() == records


@st.composite
def valid_traces(draw):
    """A valid trace of 0, 1, `WRITE_CHUNK` or `WRITE_CHUNK` + 1 records,
    or of up to 40: seeded random records whose timesteps start anywhere
    in 0..2^63-1 and rise by 0 or 1, and whose other fields span their
    ranges."""
    n = draw(st.sampled_from([0, 1, netio.WRITE_CHUNK, netio.WRITE_CHUNK + 1])
             | st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.integers(0, 2**63 - 1 - n)) + np.cumsum(rng.integers(0, 2, n))
    return np.column_stack((t, rng.integers(1, 3, n), rng.integers(0, 129, n),
                            rng.integers(-128, 128, n)))


class TestStimulusTrace:
    def test_round_trip(self, tmp_path):
        trace = StimulusTrace(records=[(0, 1, 0, 10), (0, 2, 1, -5), (3, 1, 1, 127)])
        p = tmp_path / "stim.csv"
        trace.save(str(p))
        assert np.array_equal(StimulusTrace.load(str(p)).records, trace.records)

    @pytest.mark.parametrize("row", ["1,1,0", "1,1,0,4,5", "1,1,x,4", "1;1;0;4"])
    def test_bad_row_names_its_line(self, tmp_path, row):
        p = tmp_path / "stim.csv"
        p.write_text(f"timestep,npu,neuron,value\n0,1,0,5\n\n{row}\n")
        with pytest.raises(ValueError, match="line 4: expected four integers"):
            StimulusTrace.load(str(p))

    @pytest.mark.parametrize("record, message", [
        ((-1, 1, 0, 1), "non-negative"),
        ((2**63, 1, 0, 1), "64 bits"),
        ((0, 1, -1, 1), "neuron address must be 0..128"),
        ((0, 2, 10**30, 1), "neuron address must be 0..128"),
    ])
    def test_record_out_of_bounds(self, record, message):
        with pytest.raises(ValueError, match=message):
            StimulusTrace(records=[record])

    def test_decreasing_timestep_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            StimulusTrace(records=[(5, 1, 0, 1), (2, 1, 0, 1)])

    @pytest.mark.parametrize("kind", [list, np.array])
    def test_callers_records_are_copied(self, kind):
        """A caller's list or int64 array is copied: writing it afterwards
        leaves the trace as it was."""
        records = kind([[0, 1, 0, 10], [3, 2, 1, -5]])
        trace = StimulusTrace(records=records)
        records[0][3] = 99
        assert trace.records.tolist() == [[0, 1, 0, 10], [3, 2, 1, -5]]

    def test_load_keeps_the_parsed_array(self, tmp_path):
        """`load` checks the array it parsed and keeps it, with no copy."""
        path = tmp_path / "stim.csv"
        StimulusTrace(records=[(0, 1, 0, 10), (3, 2, 1, -5)]).save(str(path))
        parsed = []
        read_rows = netio._read_rows
        with mock.patch.object(netio, "_read_rows",
                               lambda *a: parsed.append(read_rows(*a)) or parsed[0]):
            trace = StimulusTrace.load(str(path))
        assert trace.records is parsed[0]
        assert trace.records.tolist() == [[0, 1, 0, 10], [3, 2, 1, -5]]

    @settings(max_examples=300, deadline=None)
    @given(records=record_lists(), chunk=st.sampled_from([1, 2, 3, netio.CHECK_CHUNK]))
    def test_checks_match_per_record_reference(self, records, chunk):
        """The column reductions accept exactly the int64 records that the
        per-record reference accepts, whatever the chunk, without searching
        them; any other trace, records past 64 bits included, is rejected
        with the reference's first bad record and message."""
        assert_checks_match_reference(records, chunk)

    @pytest.mark.parametrize("col, value", [(col, value) for col, values in
                                            enumerate(RECORD_EDGES) for value in values])
    @pytest.mark.parametrize("chunk", [2, netio.CHECK_CHUNK])
    def test_each_edge_alone_matches_per_record_reference(self, col, value, chunk):
        """Each `RECORD_EDGES` value as the one field that differs from a
        valid trace, in its first, a middle and its last record."""
        for i in range(3):
            records = [[t, 1 + t % 2, t, t - 2] for t in range(3)]
            records[i][col] = value
            assert_checks_match_reference(records, chunk)


    @settings(max_examples=60, deadline=None)
    @given(records=valid_traces())
    def test_save_matches_per_field_reference(self, tmp_path_factory, records):
        """`save` writes the header, then one `%d` per field of each
        record, whatever the number of chunks."""
        path = tmp_path_factory.mktemp("stim") / "stim.csv"
        StimulusTrace(records=records).save(str(path))
        want = "".join("%d,%d,%d,%d\n" % tuple(r) for r in records.tolist())
        assert path.read_bytes() == (netio.STIMULUS_HEADER + "\n" + want).encode()

    def test_save_peak_memory(self, tmp_path):
        """`save` formats in chunks: saving 100k records peaks at no more
        than 2.5 times the bytes written (2.0 here), where one % pass over
        a tuple of every field peaked at 8.8 times."""
        rng = np.random.default_rng(6)
        n = 100_000
        trace = StimulusTrace(records=np.column_stack((
            np.arange(n) // 8, rng.integers(1, 3, n), rng.integers(0, 129, n),
            rng.integers(-128, 128, n))))
        path = tmp_path / "stim.csv"
        tracemalloc.start()
        try:
            trace.save(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak <= 2.5 * size, f"peak {peak / size:.2f} times the {size} bytes written"


def per_line_load(path):
    """Reference stimulus reader: one `int()` per field of each non-blank
    line, then each record checked in turn. The records, or where the
    first error is: ("line", n) or ("record", i)."""
    with open(path) as f:
        if f.readline().strip() != "timestep,npu,neuron,value":
            return ("header",)
        records = []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                fields = [int(x) for x in line.split(",")]
            except ValueError:
                return ("line", lineno)
            if len(fields) != 4:
                return ("line", lineno)
            records.append(fields)
    last = 0
    for i, (t, npu, addr, value) in enumerate(records):
        if not (last <= t < 2**63 and 0 <= addr <= 128 and npu in (1, 2)
                and -128 <= value <= 127):
            return ("record", i)
        last = t
    return records


def fast_load(path):
    """`StimulusTrace.load` in the form `per_line_load` returns."""
    try:
        records = StimulusTrace.load(str(path)).records
    except ValueError as e:
        msg = str(e)
        if msg.startswith("record "):
            return ("record", int(msg.split()[1].rstrip(":")))
        if ": line " in msg:
            return ("line", int(msg.split(": line ")[1].split(":")[0]))
        return ("header",)
    assert records.dtype == np.int64 and records.shape[1:] == (4,)
    return records.tolist()


# Tokens `int()` and a one-pass CSV parser may read differently.
ODD_FIELDS = ["+5", "1_0", " 7 ", "\t3", "-0", "\u0663", "\u00a02", "7\U000fbb9e", "5.0", "", "x",
              "#", "4 # x", "0x1", "1e2", str(2**63), str(-2**70), "1 2", '"3"']
ODD_LINES = ["", " ", "\t ", "\x0c", "#", "# comment", ",", "1,1,0", "1,1,0,4,5"]


@st.composite
def stimulus_text(draw):
    """A valid stimulus CSV text with a few mutations, CRLF or LF ends."""
    n = draw(st.integers(0, 8))
    ts = sorted(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)))
    lines = [[str(t), str(draw(st.integers(1, 2))), str(draw(st.integers(0, 128))),
              str(draw(st.integers(-128, 127)))] for t in ts]
    lines = [",".join(f) for f in lines]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["line", "field", "suffix"]))
        if kind == "line" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(ODD_LINES)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "suffix":
            lines[i] += draw(st.sampled_from([",", " # x", "#", ",5", " ", "\t"]))
        else:
            fields = lines[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD_FIELDS))
            lines[i] = ",".join(fields)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(["timestep,npu,neuron,value"] + lines)
    return text + eol if draw(st.booleans()) else text


class TestStimulusParse:
    """The one-pass parse of `StimulusTrace.load` against a per-line
    reference: the same records, or an error at the same line or record."""

    @settings(max_examples=600, deadline=None)
    @given(text=stimulus_text(), chunk=st.sampled_from([netio.PARSE_CHUNK, 0, 1, 7, 40]))
    def test_matches_per_line_reference(self, tmp_path_factory, text, chunk):
        """Also with the lines taken a few characters at a time, down to one
        line per chunk."""
        path = tmp_path_factory.mktemp("stim") / "stim.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(netio, "PARSE_CHUNK", chunk):
            assert fast_load(path) == per_line_load(path)

    def test_long_trace_memory(self, tmp_path):
        """An 800k-record, 10 MB trace loads with at most 70 MiB of peak RSS
        above the interpreter's after import (30 MiB on CPython 3.11 with
        numpy 2.4, so 100 MiB in all; the whole-text line list peaked 107
        MiB above it). The records array alone is 24 MiB. The peak is the
        child's VmHWM: its ru_maxrss starts at this process's RSS, which
        fork hands down through exec."""
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs VmHWM from /proc/self/status")
        rng = np.random.default_rng(7)
        n = 800_000
        records = np.column_stack((np.sort(rng.integers(0, 10_000, n)), rng.integers(1, 3, n),
                                   rng.integers(0, 129, n), rng.integers(-9, 10, n)))
        path = tmp_path / "long.csv"
        StimulusTrace(records).save(str(path))
        assert path.stat().st_size > 10_000_000
        code = (
            "import sys\n"
            "from snnemu.netio import StimulusTrace\n"
            "def peak():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(x.split()[1]) for x in f if x.startswith('VmHWM')) / 1024\n"
            "base = peak()\n"
            "n = len(StimulusTrace.load(sys.argv[1]).records)\n"
            "print(n, peak() - base)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        assert int(out[0]) == n
        assert float(out[1]) <= 70, f"peak {float(out[1]):.1f} MiB above the import baseline"

    @pytest.mark.parametrize("text", [
        "timestep,npu,neuron,value\n",
        "timestep,npu,neuron,value",
        "timestep,npu,neuron,value\r\n\r\n  \n",
        "timestep,npu,neuron,value\n\n\n",
        "timestep,npu,neuron,value\n \t \n  ",
        "timestep,npu,neuron,value\n\x0c\n",
    ])
    def test_header_only(self, tmp_path, text):
        """A body of blank lines, whitespace or nothing loads to no records,
        and no warning escapes the parse."""
        path = tmp_path / "stim.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert StimulusTrace.load(str(path)).records.shape == (0, 4)

    @pytest.mark.parametrize("row, record", [
        ("0,1,0,4 # x", None), ("0,1,0,4,", None), ("1_0,1,0,4", [10, 1, 0, 4]),
        ("+5,1,0,4", [5, 1, 0, 4]), ("\u0663,1,0,4", [3, 1, 0, 4]),
    ])
    def test_odd_rows(self, tmp_path, row, record):
        path = tmp_path / "stim.csv"
        path.write_text(f"timestep,npu,neuron,value\n \n{row}\n")
        if record is None:
            with pytest.raises(ValueError, match="line 3: expected four integers"):
                StimulusTrace.load(str(path))
        else:
            assert StimulusTrace.load(str(path)).records.tolist() == [record]

    def test_non_ascii_row_takes_the_per_line_parse(self, tmp_path):
        """numpy 2.4's loadtxt crashes on a digit followed by U+FBB9E."""
        path = tmp_path / "stim.csv"
        path.write_text("timestep,npu,neuron,value\n0,1,0,4\n7\U000fbb9e,1,0,4\n")
        with pytest.raises(ValueError, match="line 3: expected four integers"):
            StimulusTrace.load(str(path))

    @staticmethod
    def parse_calls(path, chunk):
        """The records `StimulusTrace.load` returns with `PARSE_CHUNK` at
        `chunk`, the lines each per-line parse was given, and the number
        of `loadtxt` calls."""
        seen, loads = [], []
        parse_lines, loadtxt = netio._parse_lines, np.loadtxt
        with mock.patch.object(netio, "PARSE_CHUNK", chunk), \
                mock.patch.object(netio, "_parse_lines",
                                  lambda p, lines, n: seen.append(list(lines))
                                  or parse_lines(p, seen[-1], n)), \
                mock.patch.object(np, "loadtxt",
                                  lambda *a, **k: loads.append(1) or loadtxt(*a, **k)):
            records = StimulusTrace.load(str(path)).records.tolist()
        return records, seen, len(loads)

    @pytest.mark.parametrize("blank", ["   ", "\t", " \x0c "])
    def test_whitespace_line_parses_only_its_chunk(self, tmp_path, blank):
        """One whitespace-only line in the third of five chunks sends that
        chunk alone to the per-line parse, and the records are those of the
        clean trace."""
        lines = [f"{t},{1 + t % 2},{t % 9},{t % 7 - 3}" for t in range(50)]
        clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
        clean.write_text("\n".join([netio.STIMULUS_HEADER, *lines]) + "\n")
        chunk = 90  # about ten 9-character lines per chunk
        want, seen, _ = self.parse_calls(clean, chunk)
        assert seen == [] and len(want) == 50
        with mock.patch.object(netio, "PARSE_CHUNK", chunk):
            chunks = list(netio._line_chunks(clean.read_text(), len(netio.STIMULUS_HEADER) + 1))
        assert len(chunks) == 5
        at = len(chunks[0]) + len(chunks[1]) + 3  # inside the third chunk
        dirty.write_text("\n".join([netio.STIMULUS_HEADER, *lines[:at], blank, *lines[at:]])
                         + "\n")
        got, seen, _ = self.parse_calls(dirty, chunk)
        assert got == want
        assert len(seen) == 1 and blank in seen[0] and len(seen[0]) <= len(chunks[2]) + 1
        assert set(seen[0]) - {blank} <= set(chunks[2])

    def test_bad_record_in_the_last_chunk_names_its_line(self, tmp_path):
        lines = [f"{t},1,0,1" for t in range(40)] + ["40,1,0"]
        path = tmp_path / "stim.csv"
        path.write_text("\n".join([netio.STIMULUS_HEADER, *lines]) + "\n")
        with mock.patch.object(netio, "PARSE_CHUNK", 60), \
                pytest.raises(StimulusError, match="line 42: expected four integers"):
            StimulusTrace.load(str(path))

    @pytest.mark.parametrize("blank", [False, True])
    def test_one_chunk_file_loadtxt_calls(self, tmp_path, blank):
        """A trace of one chunk, such as avoid's, makes one `loadtxt` call;
        with a whitespace-only line, `loadtxt` rejects the chunk, which is
        then parsed line by line."""
        lines = [f"{t},1,0,1" for t in range(400)]
        if blank:
            lines.insert(200, "  ")
        path = tmp_path / "stim.csv"
        path.write_text("\n".join([netio.STIMULUS_HEADER, *lines]) + "\n")
        records, seen, loads = self.parse_calls(path, netio.PARSE_CHUNK)
        assert records == [[t, 1, 0, 1] for t in range(400)]
        assert (len(seen), loads) == ((1, 1) if blank else (0, 1))

    @pytest.mark.parametrize("text, message", [
        (f"{2**63},1,0,1", "record 0: timestep 9223372036854775808 does not fit 64 bits"),
        (f"0,2,{10**30},1", "record 0: neuron address must be 0..128"),
    ])
    def test_past_64_bits_is_a_record_error(self, tmp_path, text, message):
        path = tmp_path / "stim.csv"
        path.write_text(f"timestep,npu,neuron,value\n{text}\n")
        with pytest.raises(ValueError, match=message):
            StimulusTrace.load(str(path))


RASTER_INT = st.integers(0, 3) | st.integers(-2**63, 2**63 - 1)


class TestRasterFile:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(RASTER_INT, RASTER_INT, RASTER_INT), max_size=25))
    def test_round_trip_sorts(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("raster") / "raster.csv"
        save_raster(str(path), np.array(rows, dtype=np.int64).reshape(-1, 3))
        want = sorted(map(list, rows))
        assert path.read_text() == "timestep,npu,neuron\n" + "".join(
            f"{t},{npu},{addr}\n" for t, npu, addr in want)
        got = load_raster(str(path))
        assert got.dtype == np.int64 and got.shape == (len(rows), 3)
        assert got.tolist() == want

    @pytest.mark.parametrize("rows", [
        [(2**63 - 1, 1, 0), (-2**63, 1, 0)],
        [(0, 1, 2**63 - 1), (0, 1, -2**63)],
    ])
    def test_unsorted_extremes_are_sorted(self, tmp_path, rows):
        """The order check never subtracts: a difference of these rows
        would wrap to +1 and pass them as sorted."""
        path = tmp_path / "raster.csv"
        save_raster(str(path), np.array(rows, dtype=np.int64))
        assert load_raster(str(path)).tolist() == sorted(map(list, rows))


CHIP_RECORD = st.tuples(st.integers(0, 4), st.sampled_from([1, 2]),
                        st.integers(0, netio.MAX_ADDRESS))


def reference_raster(rows):
    """The raster file's bytes, one `%d` per field of the sorted rows."""
    return ("timestep,npu,neuron\n"
            + "".join("%d,%d,%d\n" % tuple(r) for r in sorted(rows))).encode()


class TestRasterBytes:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(CHIP_RECORD | st.tuples(RASTER_INT, RASTER_INT, RASTER_INT),
                         max_size=80),
           presort=st.booleans())
    def test_matches_per_field_reference(self, tmp_path_factory, rows, presort):
        """Chip addresses, many records per timestep, mixed with arbitrary
        int64 pairs, given sorted or not."""
        rows = sorted(rows) if presort else rows
        path = tmp_path_factory.mktemp("raster") / "raster.csv"
        save_raster(str(path), np.array(rows, dtype=np.int64).reshape(-1, 3))
        assert path.read_bytes() == reference_raster(rows)

    @staticmethod
    def wrapped(key, addr):
        """The (npu, addr) pair, npu off the chip, whose (npu - 1) * 129 +
        addr wraps in int64 to the chip key `key`: 129 is odd, so it has
        an inverse mod 2**64."""
        npu = (key - addr) * pow(129, -1, 2**64) % 2**64
        return (npu - 2**64 if npu >= 2**63 else npu) + 1, addr

    @pytest.mark.parametrize("pair", [(0, 5), (3, 5), (1, -1), (2, 129), (-2**63, 0),
                                      (1, 2**63 - 1), (2**63 - 1, -2**63),
                                      wrapped(1, 0), wrapped(0, 128), wrapped(200, 5),
                                      wrapped(257, 0), wrapped(129, 1)])
    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("presort", [True, False])
    def test_one_record_off_the_chip(self, tmp_path, pair, where, presort):
        """One (npu, addr) pair that is no chip address (npu 0 or 3, addr
        -1 or 129, int64 extremes, an npu whose key wraps onto a chip
        address's) first, in the middle or last among chip records, given
        sorted or not, sends the whole file through the per-field format,
        with the same bytes."""
        rows = [(1, 1, 0), (1, 2, 128), (2, 1, 7), (2, 2, 0), (3, 1, 32), (4, 2, 5)]
        other = ((0, 2, 5)[where], *pair)
        if presort:
            rows = sorted(rows + [other])
        else:
            rows = rows[::-1]
            rows.insert((0, 3, 6)[where], other)
        path = tmp_path / "raster.csv"
        save_raster(str(path), np.array(rows, dtype=np.int64))
        assert path.read_bytes() == reference_raster(rows)

    def test_long_raster_memory(self, tmp_path):
        """600k sorted records (a 20k-step chip run's worth) are written
        with at most 25 MiB of traced peak; the whole-tuple `%` pass peaked
        at 52 MiB."""
        rng = np.random.default_rng(5)
        n = 600_000
        npu = rng.integers(1, 3, n)
        records = np.column_stack((np.sort(rng.integers(0, 20_000, n)), npu,
                                   rng.integers(0, 33, n) + 96 * (npu - 1)))
        records = records[np.lexsort(records.T[::-1])]
        path = tmp_path / "raster.csv"
        tracemalloc.start()
        try:
            save_raster(str(path), records)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 25, f"peak {peak:.1f} MiB"
        with open(path, "rb") as f:
            assert f.readline() == b"timestep,npu,neuron\n"
            assert f.readline() == b"%d,%d,%d\n" % tuple(records[0].tolist())


WRITERS = {
    "raster": lambda path: save_raster(path, [(3, 2, 1), (0, 1, 0), (3, 1, 5)]),
    "cycles": lambda path: save_cycles(path, run(minimal_desc(), None, steps=3)[1]),
    "stimulus": lambda path: StimulusTrace([(0, 1, 0, 5), (2, 2, 1, -7)]).save(path),
}


class TestOutputFiles:
    """Every file is overwritten in place and cut to length, not truncated
    on open; the visible result is that of a fresh write."""

    @pytest.mark.parametrize("writer", WRITERS)
    def test_over_a_longer_file(self, tmp_path, writer):
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        WRITERS[writer](str(fresh))
        reused.write_bytes(b"9,9,9\n" * fresh.stat().st_size)
        WRITERS[writer](str(reused))
        assert reused.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("writer", WRITERS)
    def test_over_a_shorter_file(self, tmp_path, writer):
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        WRITERS[writer](str(fresh))
        reused.write_bytes(b"9" * (fresh.stat().st_size // 2))
        WRITERS[writer](str(reused))
        assert reused.read_bytes() == fresh.read_bytes()

    def test_short_writes_are_resumed(self, tmp_path):
        """Every byte is written when each `os.write` takes at most 7."""
        write = os.write
        data = bytes(range(256)) * 40
        with mock.patch.object(os, "write", lambda fd, b: write(fd, bytes(b[:7]))):
            netio._write_file(str(tmp_path / "out.bin"), data)
        assert (tmp_path / "out.bin").read_bytes() == data

    def test_config_and_weight_image_over_longer_files(self, tmp_path):
        desc = minimal_desc(n1=4, n2=8)
        (tmp_path / "fresh").mkdir()
        (tmp_path / "reused").mkdir()
        for name in ("net.yaml", "net.weights.bin"):
            (tmp_path / "reused" / name).write_bytes(b"x" * 10_000)
        for d in ("fresh", "reused"):
            desc.save(str(tmp_path / d / "net.yaml"))
        for name in ("net.yaml", "net.weights.bin"):
            assert ((tmp_path / "reused" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())

    def test_new_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o002)
        try:
            save_raster(str(tmp_path / "raster.csv"), [])
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "raster.csv").stat().st_mode) == 0o666 & ~0o002

    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("x" * 1000)
        link.symlink_to(target)
        save_raster(str(link), [(1, 1, 0)])
        assert link.is_symlink()
        assert target.read_text() == "timestep,npu,neuron\n1,1,0\n"


class TestRun:
    def test_zero_steps(self):
        raster, rows, agg = run(minimal_desc(), None, steps=0, seed=1)
        assert raster.shape == (0, 3) and agg.timesteps == 0
        assert len(rows) == 0 and rows.cycles.shape == (0, 2, 5)

    def test_deterministic_same_seed(self, tmp_path):
        desc = minimal_desc(n2=4, noise=[NoiseSource(npu=2, addrs=[0, 1, 2], low=0, high=40)])
        outs = []
        for rep in range(2):
            raster, rows, _ = run(desc, None, steps=200, seed=99)
            r = tmp_path / f"r{rep}.csv"
            c = tmp_path / f"c{rep}.csv"
            save_raster(str(r), raster)
            save_cycles(str(c), rows)
            outs.append((r.read_bytes(), c.read_bytes()))
        assert outs[0] == outs[1]

    def test_different_seeds_differ(self):
        desc = minimal_desc(n2=4, noise=[NoiseSource(npu=2, addrs=[0, 1, 2], low=0, high=40)])
        r1, _, _ = run(desc, None, steps=200, seed=1)
        r2, _, _ = run(desc, None, steps=200, seed=2)
        assert not np.array_equal(r1, r2)

    def test_raster_file_sorted(self, tmp_path):
        p = tmp_path / "r.csv"
        save_raster(str(p), [(3, 2, 1), (0, 1, 0), (3, 1, 5)])
        assert load_raster(str(p)).tolist() == [[0, 1, 0], [3, 1, 5], [3, 2, 1]]

    def test_no_trace_empty_trace_and_header_only_file_run_alike(self, tmp_path):
        """None, an empty StimulusTrace and a loaded header-only CSV drive
        the same run, with DC and noise sources, over more than two blocks."""
        desc = minimal_desc(n1=2, n2=4, dc=[DcSource(npu=1, addr=0, value=40)],
                            noise=[NoiseSource(npu=2, addrs=[0, 1, 3], low=0, high=60)])
        path = tmp_path / "stim.csv"
        path.write_text(netio.STIMULUS_HEADER + "\n")
        outs = []
        for trace in (None, StimulusTrace(), StimulusTrace.load(str(path))):
            raster, rows, _ = run(desc, trace, steps=2 * netio.BLOCK + 5, seed=7)
            outs.append((raster.tobytes(), rows.cycles.tobytes()))
        assert set(raster[:, 1].tolist()) == {1, 2}
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_trace_events_applied(self):
        desc = minimal_desc()
        trace = StimulusTrace(records=[(0, 1, 0, 127), (1, 1, 0, 127), (2, 1, 0, 127)])
        raster, _, _ = run(desc, trace, steps=4, seed=0)
        assert any(npu == 1 and addr == 0 for _, npu, addr in raster)


    def test_trace_address_checked_before_step_0(self):
        trace = StimulusTrace(records=[(0, 1, 1, 5), (90, 1, 2, 5)])
        steps = simulate(minimal_desc(), trace, steps=100)
        with pytest.raises(ValueError, match="record 1: address 2 out of range for npu1"):
            next(steps)

    @pytest.mark.parametrize("source", [
        DcSource(npu=2, addr=2, value=1),
        NoiseSource(npu=1, addrs=[0, 2], low=0, high=1),
    ])
    def test_reassigned_source_address_checked_before_step_0(self, source):
        desc = minimal_desc()
        if isinstance(source, DcSource):
            desc.dc = [source]
        else:
            desc.noise = [source]
        steps = simulate(desc, None, steps=5)
        with pytest.raises(ConfigError, match="address 2 out of range for npu"):
            next(steps)

    def test_simulate_yields_every_step(self):
        desc = minimal_desc(dc=[DcSource(npu=2, addr=1, value=3)],
                            noise=[NoiseSource(npu=1, addrs=[0, 1], low=0, high=9)])
        trace = StimulusTrace(records=[(1, 2, 0, 4), (1, 2, 0, 4), (1, 1, 1, 7)])
        out = list(simulate(desc, trace, steps=3, seed=4, block=2))
        assert [t0 for t0, *_ in out] == [0, 2]
        assert [spikes.shape for _, spikes, _ in out] == [(2, 4), (1, 4)]
        cycles = np.concatenate([c for *_, c in out])
        assert cycles.shape == (3, 2, 5)
        # DC every step on npu2, two trace events at step 1 on npu2 and one on
        # npu1, noise on two npu1 addresses every step
        assert cycles[:, 0, 0].tolist() == [2, 3, 2]
        assert cycles[:, 1, 0].tolist() == [1, 3, 1]

    def test_block_of_no_steps_rejected(self):
        with pytest.raises(ValueError, match="block must be at least 1 step"):
            next(simulate(minimal_desc(), None, steps=5, block=0))

    @pytest.mark.parametrize("where", ["alone", "first", "last"])
    @pytest.mark.parametrize("loaded", [False, True])
    def test_empty_noise_source_draws_nothing(self, tmp_path, where, loaded):
        """A noise source without addresses runs as if it were not there,
        alone or next to a source that has some, built or loaded."""
        full = NoiseSource(npu=2, addrs=[0, 3], low=0, high=90)
        empty = NoiseSource(npu=1, addrs=[], low=0, high=90)
        without = [] if where == "alone" else [full]
        with_empty = {"alone": [empty], "first": [empty, full], "last": [full, empty]}[where]
        desc = minimal_desc(n2=4, dc=[DcSource(npu=2, addr=1, value=70)], noise=with_empty)
        if loaded:
            desc.save(str(tmp_path / "net.yaml"))
            desc = NetworkDescription.load(str(tmp_path / "net.yaml"))
            assert desc.noise[where == "last"].addrs == []
        want = run(minimal_desc(n2=4, dc=desc.dc, noise=without), None, 40, 7)
        raster, rows, agg = run(desc, None, 40, 7)
        assert len(raster) and np.array_equal(raster, want[0])
        assert np.array_equal(rows.cycles, want[1].cycles) and agg == want[2]


class TestCycleRows:
    def test_noise_indices_sized_by_the_run(self):
        """A 3-step noisy run in one block of 10^9 steps builds its flat
        noise indices 3 steps long, not one block long: the traced peak
        stays within a few MiB."""
        desc = noisy_desc(0)
        tracemalloc.start()
        try:
            blocks = list(simulate(desc, None, steps=3, block=10**9))
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert [(t0, len(spikes)) for t0, spikes, _ in blocks] == [(0, 3)]
        assert peak <= 4, f"peak {peak:.1f} MiB"

    def test_view_over_blocks(self):
        """`run`'s rows over more than two blocks: `len`, indexing from
        either end and iteration give each step and `CycleReport.of` its
        row of `cycles`, which is read-only and holds every block's cycles
        from `simulate`."""
        steps = 2 * netio.BLOCK + 5
        desc = noisy_desc(0)
        _, rows, agg = run(desc, None, steps, 3)
        want = np.concatenate([cycles for *_, cycles in simulate(desc, None, steps, 3)])
        assert len(rows) == steps and np.array_equal(rows.cycles, want)
        reports = [(t, CycleReport.of(c)) for t, c in enumerate(want.tolist())]
        assert list(rows) == reports
        assert [rows[t] for t in range(steps)] == reports
        assert [rows[t - steps] for t in range(steps)] == reports
        for t in (steps, -steps - 1):
            with pytest.raises(IndexError):
                rows[t]
        with pytest.raises(ValueError, match="read-only"):
            rows.cycles[-1, 1, 2] = 0
        assert agg == CycleReport.of(want.sum(axis=0).tolist(), steps)

    def test_save_cycles_peak_memory(self, tmp_path):
        """`save_cycles` formats in chunks: its traced peak is at most 2.5
        times the bytes it writes (2.1 here), where one % pass over a tuple
        of every field peaks at 8.1 times. Both ratios are the same at 600k
        steps, which tracemalloc takes ten times as long to format."""
        rng = np.random.default_rng(5)
        cycles = np.empty((60_000, 2, 5), dtype=np.int64)
        cycles[:] = [[0, 17, 0, 33, 33], [0, 82, 0, 129, 129]]
        cycles[:, :, 0] = rng.integers(0, 40, size=(len(cycles), 2))
        cycles[:, :, 2] = rng.integers(0, 300, size=(len(cycles), 2))
        path = tmp_path / "cycles.csv"
        tracemalloc.start()
        try:
            save_cycles(str(path), cycles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak <= 2.5 * size, f"peak {peak / size:.2f} times the {size} bytes written"
        with open(path) as f:
            assert f.readline() == netio.CYCLES_HEADER + "\n"
            row = [0, *cycles[0].ravel().tolist()]
            row += [max(sum(row[1:6]), sum(row[6:11])), sum(row[1:11])]
            assert f.readline() == ",".join(map(str, row)) + ",sequential\n"


def noisy_desc(seed):
    """A 4 -> 8 neuron network with random weights, DC and noise on both
    NPUs; it spikes within a few steps."""
    rng = np.random.default_rng(seed)
    return minimal_desc(
        n1=4, n2=8,
        weights1=rng.integers(-8, 8, size=(4, 5)),
        weights2=rng.integers(-8, 8, size=(13, 9)),
        dc=[DcSource(npu=1, addr=0, value=60)],
        noise=[NoiseSource(npu=2, addrs=list(range(9)), low=-10, high=60),
               NoiseSource(npu=1, addrs=[3, 1], low=0, high=90)],
    )


def equal_copy(desc):
    """A description equal to `desc` that shares no config or matrix with
    it, so its runs compile a chip of their own."""
    return NetworkDescription(
        npu1=dataclasses.replace(desc.npu1), npu2=dataclasses.replace(desc.npu2),
        weights1=np.array(desc.weights1), weights2=np.array(desc.weights2),
        gs_mode=desc.gs_mode, dc=list(desc.dc), noise=list(desc.noise),
    )


def run_bytes(desc, tmp_path, steps=60, seed=3):
    """The raster and cycles files of one run, as bytes."""
    raster, rows, _ = run(desc, None, steps, seed)
    save_raster(str(tmp_path / "r.csv"), raster)
    save_cycles(str(tmp_path / "c.csv"), rows)
    return (tmp_path / "r.csv").read_bytes(), (tmp_path / "c.csv").read_bytes()


class TestRasterRecords:
    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(0, 70), t1=st.sampled_from([1, 2, 33]), t2=st.sampled_from([2, 9, 129]),
           t0=st.integers(0, 10**6), density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           npu2_only=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_argwhere(self, k, t1, t2, t0, density, npu2_only, seed):
        """The records of a block of spikes, contiguous or NPU2's column
        slice as `solve_sudoku` passes it, empty or all spiking, are its
        `np.argwhere` entries in order, as (t0 + t, npu, addr)."""
        rng = np.random.default_rng(seed)
        spikes = (rng.random((k, t1 + t2)) < density).astype(np.uint8)
        block, split = (spikes[:, t1:], 0) if npu2_only else (spikes, t1)
        want = [[t0 + t, 1, c] if c < split else [t0 + t, 2, c - split]
                for t, c in np.argwhere(block).tolist()]
        got = raster_records(t0, block, split)
        assert got.dtype == np.int64 and got.shape == (len(want), 3)
        assert got.tolist() == want


class TestChipCache:
    """`build_processor` compiles a chip once per set of configs, matrices
    and gs_mode, and every run steps a fresh state of it."""

    def test_runs_share_one_compiled_chip(self):
        desc = noisy_desc(0)
        a, b = desc.build_processor(), desc.build_processor()
        assert a.crossbar is b.crossbar
        assert a.v_m is not b.v_m and a.y is not b.y and a.last_spikes is not b.last_spikes
        assert copy.copy(desc).build_processor().crossbar is a.crossbar
        assert equal_copy(desc).build_processor().crossbar is not a.crossbar

    @pytest.mark.parametrize("change", ["weights1", "weights2", "gs_mode", "npu1", "npu2"])
    def test_one_change_recompiles(self, change):
        """One changed weight, gs_mode or NPU config compiles a new chip,
        equal to the chip of a newly built equal description."""
        desc = noisy_desc(0)
        desc.weights2[:, 8] = 0  # an all-zero group, so that dense reads more words
        chip = desc.build_processor().crossbar
        if change.startswith("weights"):
            w = np.array(getattr(desc, change))
            w[-1, -1] = w[-1, -1] != 1  # 1, or 0 where it was 1
            setattr(desc, change, w)
        else:
            setattr(desc, change, "dense" if change == "gs_mode"
                    else dataclasses.replace(getattr(desc, change), decay_a=0))
        new = desc.build_processor().crossbar
        want = equal_copy(desc).build_processor().crossbar
        assert new is not chip
        assert np.array_equal(new.weights, want.weights) and np.array_equal(new.cost, want.cost)

    def test_interleaved_generators_match_runs_one_after_the_other(self):
        desc = noisy_desc(0)

        def blocks(steps):
            return [(t0, s.tobytes(), c.tobytes()) for t0, s, c in steps]

        want = [blocks(simulate(desc, None, 90, seed=seed, block=7)) for seed in (1, 2)]
        assert want[0] != want[1]
        got = ([], [])
        for pair in zip(*(simulate(desc, None, 90, seed=seed, block=7) for seed in (1, 2))):
            for out, (t0, s, c) in zip(got, pair):
                out.append((t0, s.tobytes(), c.tobytes()))
        assert list(got) == want

    @pytest.mark.parametrize("field", ["weights2", "npu1", "gs_mode"])
    def test_reassigned_input_recompiles(self, tmp_path, field):
        """After a run, a reassigned matrix, config or mode gives the bytes
        of a newly built equal description, not those of the kept chip."""
        desc = noisy_desc(0)
        if field == "gs_mode":  # an all-zero group, so that dense reads more words
            desc.weights2 = np.where(np.arange(9) < 8, desc.weights2, 0)
        before = run_bytes(desc, tmp_path)
        new = {"weights2": noisy_desc(1).weights2,
               "npu1": dataclasses.replace(desc.npu1, decay_a=0),
               "gs_mode": "dense"}[field]
        setattr(desc, field, new)
        after = run_bytes(desc, tmp_path)
        assert after != before
        assert after == run_bytes(equal_copy(desc), tmp_path)

    @pytest.mark.parametrize("built", [False, True])
    @pytest.mark.parametrize("call", ["build_processor", "run"])
    def test_gs_mode_set_after_construction_is_checked(self, built, call):
        """A gs_mode assigned after construction is checked where the chip
        compiles, before or after a chip was kept, never read as dense."""
        desc = noisy_desc(0)
        if built:
            desc.build_processor()
        desc.gs_mode = "bogus"
        with pytest.raises(ConfigError, match="^gs_mode: must be auto or dense, got bogus$"):
            desc.build_processor() if call == "build_processor" else run(desc, None, 5)

    @pytest.mark.parametrize("route", ["direct", "caller", "base"])
    def test_in_place_write_reaches_the_next_run(self, tmp_path, route):
        """After a run, a write into a matrix gives the bytes of a newly built
        equal description: made through the description, through the
        caller's reference to the array it was given, or after the owner of
        read-only memory made it writable again through `.base`."""
        caller = np.array(noisy_desc(0).weights2)
        if route == "base":
            caller.setflags(write=False)
            caller = caller[...]
        desc = dataclasses.replace(noisy_desc(0), weights2=caller)
        assert desc.weights2 is caller  # held as given, not copied
        before = run_bytes(desc, tmp_path)
        if route == "base":
            caller.base.setflags(write=True)
        target = {"direct": desc.weights2, "caller": caller, "base": caller.base}[route]
        target[5:] = noisy_desc(1).weights2[5:]  # NPU2's own sources
        after = run_bytes(desc, tmp_path)
        assert after != before
        assert after == run_bytes(equal_copy(desc), tmp_path)
        with pytest.raises(dataclasses.FrozenInstanceError):
            desc.npu1.decay_a = 1
        assert type(desc.npu1.params) is tuple

    def test_loaded_matrix_held_as_unpacked(self, tmp_path, monkeypatch):
        """A loaded description holds the matrices `unpack` returned, with
        no copy, and a write into one reaches the next run."""
        unpacked = []
        unpack = synapse.WeightMemory.unpack
        monkeypatch.setattr(synapse.WeightMemory, "unpack",
                            lambda mem: unpacked.append(unpack(mem)) or unpacked[-1])
        noisy_desc(0).save(str(tmp_path / "net.yaml"))
        desc = NetworkDescription.load(str(tmp_path / "net.yaml"))
        assert desc.weights1 is unpacked[0] and desc.weights2 is unpacked[1]
        before = run_bytes(desc, tmp_path)
        desc.weights1[:, 2] = 7
        after = run_bytes(desc, tmp_path)
        assert after != before
        assert after == run_bytes(equal_copy(desc), tmp_path)

    def test_equal_reassignment_keeps_the_chip(self):
        """Inputs reassigned to equal values keep the compiled chip, and a
        copy shares it until the copy's own inputs change."""
        desc = noisy_desc(0)
        chip = desc.build_processor().crossbar
        desc.weights1 = np.array(desc.weights1)
        desc.weights2 = desc.weights2.tolist()
        desc.npu1 = dataclasses.replace(desc.npu1)
        desc.gs_mode = "auto"
        assert desc.build_processor().crossbar is chip
        other = copy.copy(desc)
        assert other.build_processor().crossbar is chip
        other.weights2 = noisy_desc(1).weights2
        assert other.build_processor().crossbar is not chip
        assert desc.build_processor().crossbar is chip

    @pytest.mark.parametrize("loaded", [False, True])
    def test_chip_freed_with_its_description(self, tmp_path, loaded):
        desc = noisy_desc(0)
        if loaded:
            desc.save(str(tmp_path / "net.yaml"))
            desc = NetworkDescription.load(str(tmp_path / "net.yaml"))
        run(desc, None, 5)
        chip = weakref.ref(desc._chip[1])
        run(desc, None, 5)
        assert desc._chip[1] is chip()
        del desc
        gc.collect()
        assert chip() is None

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**32 - 1),
                              st.integers(1, 40)), min_size=1, max_size=8))
    def test_mixed_runs_match_new_descriptions(self, runs):
        """Runs mixed across descriptions, each against a newly built equal
        description that compiles its own chip."""
        descs = [noisy_desc(k) for k in range(3)]
        for k, seed, steps in runs:
            raster, rows, agg = run(descs[k], None, steps, seed)
            want_raster, want_rows, want_agg = run(equal_copy(descs[k]), None, steps, seed)
            assert np.array_equal(raster, want_raster)
            assert np.array_equal(rows.cycles, want_rows.cycles) and agg == want_agg

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.tuples(st.integers(0, 3), st.one_of(
        st.tuples(st.just("write"), st.sampled_from(["weights1", "weights2"]),
                  st.integers(0, 12), st.integers(-8, 7)),
        st.tuples(st.just("assign"),
                  st.sampled_from(["npu1", "npu2", "weights1", "weights2", "gs_mode"]),
                  st.integers(0, 7)),
    )), max_size=6))
    def test_runs_between_changes_match_new_descriptions(self, seed, changes):
        """In-place writes (of a whole row) and reassignments of every chip
        input, on a built and a loaded description and their `copy.copy`s,
        which share their matrices. All four run at the start and after
        each change, and every run is byte-identical to a newly built equal
        description's."""
        built = noisy_desc(0)
        built.weights2[:, 8] = 0  # an all-zero group in every row, so gs_mode counts
        with tempfile.TemporaryDirectory() as tmp:
            built.save(os.path.join(tmp, "net.yaml"))
            loaded = NetworkDescription.load(os.path.join(tmp, "net.yaml"))
        descs = [built, copy.copy(built), loaded, copy.copy(loaded)]
        for change in [None] + changes:
            if change is not None:
                k, (op, name, x, *value) = change
                desc = descs[k]
                if op == "write":
                    matrix = getattr(desc, name)
                    matrix[x % len(matrix)] = value[0]
                elif name == "gs_mode":
                    desc.gs_mode = ("auto", "dense")[x % 2]
                elif name.startswith("npu"):
                    setattr(desc, name, dataclasses.replace(getattr(desc, name), decay_a=x))
                else:  # equal values when x is odd, else another network's
                    setattr(desc, name, np.array(getattr(desc if x % 2 else noisy_desc(x), name)))
            for desc in descs:
                raster, rows, agg = run(desc, None, 30, seed)
                want_raster, want_rows, want_agg = run(equal_copy(desc), None, 30, seed)
                assert raster.tobytes() == want_raster.tobytes()
                assert np.array_equal(rows.cycles, want_rows.cycles) and agg == want_agg


def last_element(value):
    """A maker that sets the last element of list rows to `value`."""
    return lambda rows: [*rows[:-1], [*rows[-1][:-1], value]]


# Records or weights that are not integers, as an array or as one element of
# a list, made from valid rows: (maker, the type the message names).
NOT_INTEGERS = [
    (lambda rows: np.array(rows, dtype=float), "float64"),
    (last_element(1.5), "float"),
    (lambda rows: np.array(rows, dtype="<U3"), "<U3"),
    (last_element("5"), "str"),
    (lambda rows: np.array(rows, dtype=bool), "bool"),
    (last_element(True), "bool"),
    (last_element(np.float32(3)), "float32"),
]


class TestIntegerInputs:
    """Stimulus records and weight matrices are integers taken at their
    values: a float, str or bool, as an array or as one element, raises its
    category, an unsigned value past int64 is checked as it is, and every
    integer dtype gives what int64 gives."""

    @pytest.mark.parametrize("make, got", NOT_INTEGERS)
    def test_records_that_are_not_integers(self, make, got):
        with pytest.raises(StimulusError, match="^" + re.escape(
                f"records must be integers, got {got}") + "$"):
            StimulusTrace(records=make([[0, 1, 0, 3], [0, 2, 1, 3]]))

    @pytest.mark.parametrize("record, message", [
        ([0, 1, 0, 2**64 - 1], "record 0: value must fit signed 8-bit"),
        ([2**63, 1, 0, 3], "record 0: timestep 9223372036854775808 does not fit 64 bits"),
        ([0, 2**64 - 1, 0, 3], "record 0: npu must be 1 or 2, got 18446744073709551615"),
    ])
    def test_unsigned_records_past_int64(self, record, message):
        with pytest.raises(StimulusError, match="^" + re.escape(message) + "$"):
            StimulusTrace(records=np.array([record], dtype=np.uint64))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("make, got", NOT_INTEGERS)
    def test_weights_that_are_not_integers(self, k, make, got):
        """At construction, and at the compile after a reassignment."""
        desc = minimal_desc()
        bad = make(getattr(desc, f"weights{k}").tolist())
        message = "^" + re.escape(f"weights.npu{k}: must be integers, got {got}") + "$"
        with pytest.raises(ConfigError, match=message):
            minimal_desc(**{f"weights{k}": bad})
        setattr(desc, f"weights{k}", bad)
        with pytest.raises(ConfigError, match=message):
            desc.build_processor()

    @pytest.mark.parametrize("k", [1, 2])
    def test_unsigned_weights_past_int64(self, k):
        desc = minimal_desc()
        w = getattr(desc, f"weights{k}").astype(np.uint64)
        w[-1, 1] = 2**64 - 2
        message = "^" + re.escape(
            f"weights.npu{k}: weight out of range at row {len(w) - 1}, target 1: {2**64 - 2}") + "$"
        with pytest.raises(ConfigError, match=message):
            minimal_desc(**{f"weights{k}": w})
        setattr(desc, f"weights{k}", w)
        with pytest.raises(ConfigError, match=message):
            desc.build_processor()

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint64, list])
    def test_every_integer_dtype_runs_as_int64(self, tmp_path, dtype):
        """The same records, and the same raster and cycle bytes, as int64
        records and weights hold (values that every dtype holds)."""
        rng = np.random.default_rng(3)
        cast = (lambda a: a.tolist()) if dtype is list else (lambda a: a.astype(dtype))
        weights1 = rng.integers(0, 8, (4, 5))
        weights2 = rng.integers(0, 8, (5 + 8, 9)) * (rng.random((13, 9)) < 0.3)
        t = np.sort(rng.integers(0, 100, 60))
        records = np.column_stack((t, rng.integers(1, 3, 60), rng.integers(0, 5, 60),
                                   rng.integers(0, 128, 60)))
        files = []
        for conv in (lambda a: a, cast):
            trace = StimulusTrace(records=conv(records))
            assert trace.records.dtype == np.int64
            assert trace.records.tolist() == records.tolist()
            desc = minimal_desc(n1=4, n2=8, weights1=conv(weights1), weights2=conv(weights2))
            raster, rows, _ = run(desc, trace, 100)
            out = tmp_path / str(len(files))
            out.mkdir()
            save_raster(str(out / "raster.csv"), raster)
            save_cycles(str(out / "cycles.csv"), rows)
            files.append([(out / name).read_bytes() for name in ("raster.csv", "cycles.csv")])
        assert len(raster) and files[0] == files[1]


class TestLcg:
    def test_documented_constants(self):
        g = Lcg(0)
        assert g.next_u32() == 1013904223
        assert g.next_u32() == (1664525 * 1013904223 + 1013904223) % 2**32

    def test_range(self):
        g = Lcg(12345)
        vals = [g.int_range(-5, 5) for _ in range(1000)]
        assert min(vals) >= -5 and max(vals) <= 5


class TestNoiseDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
        ranges=st.lists(
            st.integers(-128, 127).flatmap(
                lambda lo: st.tuples(st.just(lo), st.integers(lo, min(127, lo + 255)))
            ),
            max_size=300,
        ),
        steps=st.integers(1, 4),
    )
    def test_equals_scalar_draws(self, seed, ranges, steps):
        """Jump-ahead draws equal Lcg.int_range drawn one at a time, in
        order, step after step."""
        scalar = Lcg(seed)
        noise = NoiseDraws(seed, ranges)
        want = [[scalar.int_range(lo, hi) for lo, hi in ranges] for _ in range(steps)]
        assert noise.draw(steps).tolist() == want
        assert noise.state == scalar.state

    @pytest.mark.parametrize("k", range(6))
    def test_block_of_k_steps(self, k):
        """draw(k) is k successive steps of scalar draws and leaves the
        same state, so blocks of any length chain into one stream."""
        ranges = [(-3, 4), (0, 0), (-128, 127), (10, 20), (5, 5)]
        scalar = Lcg(99)
        noise = NoiseDraws(99, ranges)
        for _ in range(3):
            want = [[scalar.int_range(lo, hi) for lo, hi in ranges] for _ in range(k)]
            got = noise.draw(k)
            assert got.shape == (k, len(ranges))
            assert got.tolist() == want
            assert noise.state == scalar.state

    def test_array_of_ranges_and_shared_tables(self):
        """An (n, 2) array draws as its list of pairs does, and draws of
        every length read prefixes of one read-only jump-ahead table pair."""
        ranges = [(-3, 4), (0, 0), (-128, 127), (10, 20)]
        a, b = NoiseDraws(8, ranges), NoiseDraws(9, np.array(ranges))
        want = b.draw(5).tolist()
        a.draw(3)
        for short, long in zip(netio._jump_tables(3 * 4), netio._jump_tables(5 * 4)):
            assert np.shares_memory(short, long)
            assert not (short.flags.writeable or long.flags.writeable)
        assert NoiseDraws(9, ranges).draw(5).tolist() == want

    def test_blocks_of_growing_and_shrinking_length(self):
        """Blocks of 1, 64, 200, 201, 7 and 0 steps in sequence, each longer
        one growing the kept table and each shorter one reading its prefix,
        chain into the scalar stream."""
        ranges = [(-10, 38)] * 3 + [(-128, 127), (0, 0), (5, 9)]
        scalar = Lcg(2**32 - 1)
        noise = NoiseDraws(2**32 - 1, ranges)
        for k in (1, 64, 200, 201, 7, 0):
            want = [[scalar.int_range(lo, hi) for lo, hi in ranges] for _ in range(k)]
            assert noise.draw(k).tolist() == want
            assert noise.state == scalar.state

    def test_table_past_the_kept_length_is_not_kept(self, monkeypatch):
        """A block longer than _JUMP_KEEP entries draws from a table of its
        own and leaves the kept one as it was."""
        monkeypatch.setattr(netio, "_JUMP_KEEP", 40)
        monkeypatch.setattr(netio, "_jump", netio._jump_tables(0))
        ranges = [(0, 99)] * 4
        scalar = Lcg(3)
        noise = NoiseDraws(3, ranges)
        for k in (10, 11, 2):
            want = [[scalar.int_range(lo, hi) for lo, hi in ranges] for _ in range(k)]
            assert noise.draw(k).tolist() == want
        assert len(netio._jump[0]) == 40

    def test_no_ranges_draw_nothing(self):
        noise = NoiseDraws(5, [])
        assert noise.draw(4).shape == (4, 0)
        assert noise.state == 5

    def test_spans_one_to_256(self):
        ranges = [(lo, lo + span - 1) for span in range(1, 257) for lo in (-128, 127 - span + 1)]
        scalar = Lcg(7)
        assert NoiseDraws(7, ranges).draw(1)[0].tolist() == [
            scalar.int_range(lo, hi) for lo, hi in ranges
        ]
