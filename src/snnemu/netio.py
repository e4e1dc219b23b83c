"""File formats and the deterministic run harness.

A network lives in two files: a YAML description (topology, neuron parameters,
decay, group-sparse mode, stimulus generators) and a binary weight image it
references. Spike rasters and cycle reports are comma-separated text with a
one-line header.

The only randomness in a run comes from noise generators declared in the
config, driven by a fixed linear congruential generator
(x' = 1664525*x + 1013904223 mod 2^32, seeded from the CLI), so traces are
reproducible across implementations.
"""

from __future__ import annotations

import itertools
import os
import stat
import struct
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np
import yaml

from .neuron import NeuronParams
from .npu import ConfigError, GlobalNeuronConfig, NpuConfig
from .processor import DEFAULT_CLOCK_HZ, CycleReport, Processor, check_chip
from .synapse import WeightMemory

WEIGHT_MAGIC = b"SNNW"
WEIGHT_VERSION = 1
CONFIG_VERSION = 1

LCG_MULT = 1664525
LCG_INC = 1013904223

# The highest neuron address on the chip: NPU2's global neuron.
MAX_ADDRESS = 128

# libyaml's loader when PyYAML was built with it; it returns the same
# documents as the pure-Python SafeLoader, several times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _Dumper(yaml.SafeDumper):
    """PyYAML's safe dumper, with numpy integers written as plain ints."""


_Dumper.add_multi_representer(np.integer, lambda dumper, v: dumper.represent_int(int(v)))


class StimulusError(ValueError):
    """Invalid stimulus trace: a bad file, record or address."""


class NoiseDraws:
    """The one random-number generator: a 32-bit LCG seeded with `seed`,
    x' = (LCG_MULT * x + LCG_INC) mod 2^32. Each step draws lo + x' mod
    (hi - lo + 1) for each (lo, hi) of `ranges`, in order, from the next
    state (modulo bias is accepted and fully reproducible); a block of steps
    per call, bit-identical to drawing them one by one.

    The j-th state after x is x_j = (A_j * x + C_j) mod 2^32, with
    A_j = a^j and C_j = c * (a^(j-1) + ... + 1) (jump-ahead, F. Brown,
    "Random number generation with arbitrary strides", Trans. ANS 1994).
    A block of k steps over n ranges reads x_1..x_(k*n) from the first
    k*n entries of one shared table (`_jump_tables`): one uint32 multiply,
    one add and the modulo, with no loop per step. uint32 arithmetic wraps
    modulo 2^32, the generator's modulus.
    """

    def __init__(self, seed: int, ranges):
        """`ranges` is a sequence of (lo, hi) pairs or an (n, 2) array."""
        self.state = seed & 0xFFFFFFFF
        ranges = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
        self._low = ranges[:, 0]
        self._span = (ranges[:, 1] - ranges[:, 0] + 1).astype(np.uint32)

    def draw(self, k: int) -> np.ndarray:
        """The values of every range for the next k steps, as a fresh
        (k, len(ranges)) int64 array."""
        n = len(self._span)
        if not (k and n):
            return np.zeros((k, n), dtype=np.int64)
        mult, inc = _jump_tables(k * n)
        xs = mult * np.uint32(self.state)
        xs += inc
        self.state = int(xs[-1])
        return self._low + xs.reshape(k, n) % self._span


# The (A_j, C_j) tables of `NoiseDraws`, kept while they hold at most
# _JUMP_KEEP entries each; a longer block builds its own.
_JUMP_KEEP = 1 << 20
_jump = (np.ones(0, dtype=np.uint32), np.zeros(0, dtype=np.uint32))


def _jump_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only uint32 (A_j, C_j) of `NoiseDraws`, j = 1..m: A_j is a
    running product of LCG_MULT, C_j is LCG_INC times the running sum of
    A_0..A_(j-1), both wrapping modulo 2^32. They are the first m entries
    of one kept pair, built again, m long, when a longer block arrives."""
    global _jump
    mult, inc = _jump
    if len(mult) < m:
        mult = np.multiply.accumulate(np.full(m, LCG_MULT, dtype=np.uint32), dtype=np.uint32)
        inc = np.cumsum(np.concatenate(([1], mult))[:-1], dtype=np.uint32) * np.uint32(LCG_INC)
        for table in (mult, inc):
            table.setflags(write=False)
        if m <= _JUMP_KEEP:
            _jump = mult, inc
    return mult[:m], inc[:m]


def _write_file(path: str, data: bytes) -> None:
    """Write `data` to `path`, the one way snnemu writes a file. An existing
    regular file is overwritten in place and then cut to the new length,
    since an open with O_TRUNC can cost far more than the write on some
    filesystems; a device, FIFO or tty is written, never truncated. A new
    file gets mode 0o666 less the umask, as with the built-in `open`."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def read_text(path: str, error) -> str:
    """The UTF-8 text of the file at `path`, the one way snnemu reads a text
    file, with "\r\n" and "\r" line ends read as "\n", as text mode reads
    them. A byte that is not UTF-8 raises `error(path, detail)`, the detail
    naming the byte's offset: the file's bytes are decoded all at once, so
    the decoder's offset is the file's."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(path, f"byte {e.start} (0x{data[e.start]:02x}) is not UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


# ---------------------------------------------------------------------------
# weight image

def save_weight_image(path: str, matrices: list[np.ndarray]) -> None:
    """Write packed weight sections: header, per-section geometry, CRC32 of
    the word payload, then raw little-endian 32-bit words."""
    mems = [WeightMemory.from_matrix(m) for m in matrices]
    payload = b"".join(mem.words.astype("<u4").tobytes() for mem in mems)
    _write_file(path, b"".join([
        WEIGHT_MAGIC,
        struct.pack("<II", WEIGHT_VERSION, len(mems)),
        *(struct.pack("<III", *mem.words.shape, mem.n_targets) for mem in mems),
        struct.pack("<I", zlib.crc32(payload)),
        payload,
    ]))


def load_weight_image(path: str) -> list[WeightMemory]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != WEIGHT_MAGIC:
        raise ConfigError(path, "not a weight image (bad magic)")
    try:
        version, n_sections = struct.unpack_from("<II", data, 4)
        if version != WEIGHT_VERSION:
            raise ConfigError(path, f"unsupported weight image version {version}")
        geoms = [struct.unpack_from("<III", data, 12 + 12 * i) for i in range(n_sections)]
        off = 12 + 12 * n_sections
        (crc,) = struct.unpack_from("<I", data, off)
    except struct.error:
        raise ConfigError(path, "weight image truncated inside its header") from None
    payload = data[off + 4:]
    if zlib.crc32(payload) != crc:
        raise ConfigError(path, "weight image checksum mismatch")
    if len(payload) != 4 * sum(rows * stride for rows, stride, _ in geoms):
        raise ConfigError(path, "weight image payload does not match its header")
    mems = []
    pos = 0
    for i, (rows, stride, n_targets) in enumerate(geoms):
        count = rows * stride
        words = np.frombuffer(
            payload, dtype="<u4", count=count, offset=pos
        ).reshape(rows, stride)
        pos += count * 4
        try:
            mems.append(WeightMemory(words.astype(np.uint32), n_targets))
        except ValueError as e:
            raise ConfigError(path, f"section {i}: {e}") from None
    return mems


# ---------------------------------------------------------------------------
# network description

@dataclass
class NoiseSource:
    """Seeded external-event generator: one event per listed address per
    timestep with value drawn uniformly from [low, high]."""

    npu: int
    addrs: list[int]
    low: int
    high: int

    def __post_init__(self):
        if self.npu not in (1, 2):
            raise ConfigError("stimulus.noise.npu", f"must be 1 or 2, got {self.npu}")
        if not -128 <= self.low <= self.high <= 127:
            raise ConfigError(
                "stimulus.noise", f"need -128 <= low <= high <= 127, got [{self.low}, {self.high}]"
            )


@dataclass
class DcSource:
    """Constant external event applied every timestep."""

    npu: int
    addr: int
    value: int

    def __post_init__(self):
        if self.npu not in (1, 2):
            raise ConfigError("stimulus.dc.npu", f"must be 1 or 2, got {self.npu}")
        if not -128 <= self.value <= 127:
            raise ConfigError("stimulus.dc.value", f"must fit signed 8-bit, got {self.value}")


PARAM_FIELDS = ("a_num", "b_num", "v_r", "v_t", "v_reset")


# libyaml's composer recurses once per nesting level and crashes the process
# past about 25k levels, so longer texts are walked first with its
# iterative parser. A text shorter than _DEPTH_CHECK_CHARS cannot nest that
# deep; where it nests deeper than Python recurses, `load` reports that.
_MAX_DEPTH = 100
_DEPTH_CHECK_CHARS = 8192


def _check_depth(text: str, path: str) -> None:
    depth = 0
    for event in yaml.parse(text, Loader=_YAML_LOADER):
        depth += isinstance(event, yaml.CollectionStartEvent)
        depth -= isinstance(event, yaml.CollectionEndEvent)
        if depth > _MAX_DEPTH:
            raise ConfigError(path, "nested too deeply")


def _show(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"must be a mapping, got {_show(value)}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"must be a list, got {_show(value)}")
    return value


def _get(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(path, f"missing field '{key}'")
    return d[key]


def _int(value, path: str) -> int:
    if type(value) is not int:
        raise ConfigError(path, f"must be an integer, got {_show(value)}")
    return value


def _ints(d: dict, keys, path: str) -> dict:
    """The integer fields `keys` of mapping `d`."""
    d = _mapping(d, path)
    return {k: _int(_get(d, k, path), f"{path}.{k}") for k in keys}


def _params_from_dict(d, path: str) -> NeuronParams:
    values = _ints(d, PARAM_FIELDS, path)
    try:
        return NeuronParams(**values)
    except ValueError as e:
        raise ConfigError(path, str(e)) from None


def _chop_from(chop, path: str) -> tuple[int, int] | None:
    if chop is None:
        return None
    if not (isinstance(chop, list) and len(chop) == 2
            and all(type(n) is int for n in chop)):
        raise ConfigError(path, f"must be a list of two integers, got {chop!r}")
    return tuple(chop)


def _addrs_from(value, total: int, path: str) -> list[int]:
    """Noise addresses: a list of integers, or the half-open range {start,
    stop} with 0 <= start <= stop <= total, checked before it is expanded."""
    if not isinstance(value, dict):
        return [_int(a, f"{path}[{j}]") for j, a in enumerate(_list(value, path))]
    if value.keys() != {"start", "stop"}:
        raise ConfigError(path, f"need exactly the keys start and stop, got {_show(list(value))}")
    start, stop = (_int(value[k], f"{path}.{k}") for k in ("start", "stop"))
    if not 0 <= start <= stop <= total:
        raise ConfigError(path, f"need 0 <= start <= stop <= {total}, got {start}..{stop}")
    return list(range(start, stop))


def _addrs_to(addrs: list[int]):
    """The range form of one ascending contiguous run, else the list."""
    run = addrs and addrs == list(range(addrs[0], addrs[-1] + 1))
    return {"start": addrs[0], "stop": addrs[-1] + 1} if run else list(addrs)


def _params_to_dict(p: NeuronParams) -> dict:
    return {f: getattr(p, f) for f in PARAM_FIELDS}


def _source(cls, d, keys, kind: str, i: int, **fields):
    """Stimulus source `i` of `kind` (`cls` from the integer fields `keys` of
    mapping `d`, plus `fields`), its errors named at its place in the file."""
    path = f"stimulus.{kind}[{i}]"
    values = _ints(d, keys, path)
    try:
        return cls(**values, **fields)
    except ConfigError as e:  # at stimulus.<kind> or one of its fields
        raise ConfigError(path + e.path.removeprefix(f"stimulus.{kind}"), e.msg) from None


@dataclass
class NetworkDescription:
    """Everything needed to instantiate a Processor: the two NPU configs,
    their weight matrices, group-sparse mode, and declared stimulus.

    The matrices are held as given once they are int64 arrays, and may be
    written in place or reassigned, as may the frozen NPU configs and
    gs_mode. `build_processor` keeps the chip it compiled with the key of
    those inputs and compiles again only when the key differs, so every run
    matches the current values; `copy.copy` of a description shares its
    chip until the copy's inputs change. The stimulus lists may be
    reassigned too; every run checks them."""

    npu1: NpuConfig
    npu2: NpuConfig
    weights1: np.ndarray  # (n1_active, n1_total)
    weights2: np.ndarray  # (n1_total + n2_active, n2_total) ff rows first
    gs_mode: str = "auto"  # auto: mask all-zero words; dense: read everything
    clock_hz: int = DEFAULT_CLOCK_HZ
    dc: list[DcSource] = field(default_factory=list)
    noise: list[NoiseSource] = field(default_factory=list)
    _chip = (None, None)  # the key of the kept chip's inputs, and the chip

    def __post_init__(self):
        self.weights1 = np.asarray(self.weights1, dtype=np.int64)
        self.weights2 = np.asarray(self.weights2, dtype=np.int64)
        self._check()

    def _check(self) -> None:
        """What construction, and so `load`, checks: the clock, the chip
        and the stimulus addresses."""
        if self.clock_hz < 1:
            raise ConfigError("clock_hz", f"must be at least 1, got {self.clock_hz}")
        check_chip(self.npu1, self.weights1, self.npu2, self.weights2, self.gs_mode)
        self.check_stimulus()

    def check_stimulus(self) -> None:
        """Every DC and noise address names a neuron of its NPU. The source
        lists may be reassigned after construction, so runs check again."""
        for kind, field_, sources in (("dc", "addr", self.dc), ("noise", "addrs", self.noise)):
            for i, src in enumerate(sources):
                total = (self.npu1 if src.npu == 1 else self.npu2).total_neurons
                addrs = src.addrs if kind == "noise" else [src.addr]
                # Two reductions pass valid addresses; only bad ones are searched.
                if addrs and (min(addrs) < 0 or max(addrs) >= total):
                    j = next(j for j, a in enumerate(addrs) if not 0 <= a < total)
                    path = f"stimulus.{kind}[{i}].{field_}" + (f"[{j}]" if kind == "noise" else "")
                    raise ConfigError(path, f"address {addrs[j]} out of range for npu{src.npu}")

    def build_processor(self) -> Processor:
        """The chip at step 0: a fresh state of the chip compiled from the
        current configs, matrices and gs_mode, kept with their key (each
        matrix as its int64 shape and bytes) and compiled again only when
        the key differs."""
        w1, w2 = (np.asarray(w, dtype=np.int64) for w in (self.weights1, self.weights2))
        key = (self.npu1, self.npu2, self.gs_mode, w1.shape, w1.tobytes(), w2.shape, w2.tobytes())
        if self._chip[0] != key:
            self._chip = key, Processor(self.npu1, w1, self.npu2, w2, self.gs_mode)
        return self._chip[1].fresh()

    # -- serialization ------------------------------------------------------

    def _npu_to_dict(self, cfg: NpuConfig) -> dict:
        pdicts = [_params_to_dict(p) for p in cfg.params]
        neurons = pdicts[0] if all(d == pdicts[0] for d in pdicts) else pdicts
        d = {
            "max_neurons": cfg.max_neurons,
            "active_neurons": cfg.active_neurons,
            "decay_a": cfg.decay_a,
            "neurons": neurons,
            "global": {
                "mode": cfg.global_neuron.mode,
                "out_weight": cfg.global_neuron.out_weight,
                "params": _params_to_dict(cfg.global_neuron.params),
            },
        }
        if cfg.chop is not None:
            d["chop"] = list(cfg.chop)
        return d

    @staticmethod
    def _npu_from_dict(d, path: str) -> NpuConfig:
        d = _mapping(d, path)
        active = _int(_get(d, "active_neurons", path), f"{path}.active_neurons")
        if not 1 <= active <= 128:
            raise ConfigError(f"{path}.active_neurons", f"must be 1..128, got {active}")
        neurons = _get(d, "neurons", path)
        if isinstance(neurons, dict):
            params = (_params_from_dict(neurons, f"{path}.neurons"),) * active
        elif isinstance(neurons, list):
            params = tuple(
                _params_from_dict(nd, f"{path}.neurons[{i}]")
                for i, nd in enumerate(neurons)
            )
        else:
            raise ConfigError(
                f"{path}.neurons",
                f"must be a mapping or a list of mappings, got {_show(neurons)}",
            )
        gpath = f"{path}.global"
        g = _mapping(_get(d, "global", path), gpath)
        global_params = _params_from_dict(_get(g, "params", gpath), f"{gpath}.params")
        try:
            return NpuConfig(
                max_neurons=_int(_get(d, "max_neurons", path), f"{path}.max_neurons"),
                active_neurons=active,
                params=params,
                global_neuron=GlobalNeuronConfig(
                    params=global_params,
                    out_weight=_int(g.get("out_weight", 0), f"{gpath}.out_weight"),
                    mode=g.get("mode", "excitatory"),
                ),
                decay_a=_int(d.get("decay_a", 3), f"{path}.decay_a"),
                chop=_chop_from(d.get("chop"), f"{path}.chop"),
            )
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(path, str(e)) from None

    def save(self, path: str) -> None:
        """Write the YAML description plus the weight image next to it.
        The description is checked as `load` checks it, and the YAML is
        rendered, before either file is written, so fields reassigned to
        values that `load` would reject, or that the YAML cannot hold, write
        neither file; numpy integers are written as plain ints."""
        self._check()
        weight_name = os.path.splitext(os.path.basename(path))[0] + ".weights.bin"
        doc = {
            "version": CONFIG_VERSION,
            "clock_hz": self.clock_hz,
            "weight_image": weight_name,
            "gs_mode": self.gs_mode,
            "npu1": self._npu_to_dict(self.npu1),
            "npu2": self._npu_to_dict(self.npu2),
        }
        stim = {}
        if self.dc:
            stim["dc"] = [
                {"npu": s.npu, "addr": s.addr, "value": s.value} for s in self.dc
            ]
        if self.noise:
            stim["noise"] = [
                {"npu": s.npu, "addrs": _addrs_to(s.addrs), "low": s.low, "high": s.high}
                for s in self.noise
            ]
        if stim:
            doc["stimulus"] = stim
        text = yaml.dump(doc, Dumper=_Dumper, sort_keys=False).encode()
        save_weight_image(
            os.path.join(os.path.dirname(path) or ".", weight_name),
            [self.weights1, self.weights2],
        )
        _write_file(path, text)

    @classmethod
    def load(cls, path: str) -> "NetworkDescription":
        try:
            return cls._load(path)
        except RecursionError:
            raise ConfigError(path, "nested too deeply") from None

    @classmethod
    def _load(cls, path: str) -> "NetworkDescription":
        text = read_text(path, ConfigError)
        try:
            if len(text) >= _DEPTH_CHECK_CHARS:
                _check_depth(text, path)
            doc = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as e:
            raise ConfigError(path, "malformed YAML: " + " ".join(str(e).split())) from None
        if not isinstance(doc, dict):
            raise ConfigError(path, "not a mapping")
        version = doc.get("version")
        if type(version) is not int or version != CONFIG_VERSION:
            raise ConfigError("version", f"unsupported config version {_show(version)}")
        for key in ("npu1", "npu2", "weight_image"):
            if key not in doc:
                raise ConfigError(path, f"missing field '{key}'")
        npu1 = cls._npu_from_dict(doc["npu1"], "npu1")
        npu2 = cls._npu_from_dict(doc["npu2"], "npu2")
        if not isinstance(doc["weight_image"], str):
            raise ConfigError("weight_image", f"must be a file name, got {_show(doc['weight_image'])}")
        mems = load_weight_image(
            os.path.join(os.path.dirname(path) or ".", doc["weight_image"])
        )
        if len(mems) != 2:
            raise ConfigError("weight_image", f"expected 2 sections, got {len(mems)}")
        stim = doc.get("stimulus")
        stim = {} if stim is None else _mapping(stim, "stimulus")
        dc = [_source(DcSource, s, ("npu", "addr", "value"), "dc", i)
              for i, s in enumerate(_list(stim.get("dc", []), "stimulus.dc"))]
        noise = []
        for i, s in enumerate(_list(stim.get("noise", []), "stimulus.noise")):
            src = _source(NoiseSource, s, ("npu", "low", "high"), "noise", i, addrs=[])
            total = (npu1, npu2)[src.npu - 1].total_neurons
            src.addrs = _addrs_from(_get(s, "addrs", f"stimulus.noise[{i}]"), total,
                                    f"stimulus.noise[{i}].addrs")
            noise.append(src)
        return cls(
            npu1=npu1,
            npu2=npu2,
            weights1=mems[0].unpack(),
            weights2=mems[1].unpack(),
            gs_mode=doc.get("gs_mode", "auto"),
            clock_hz=_int(doc.get("clock_hz", DEFAULT_CLOCK_HZ), "clock_hz"),
            dc=dc,
            noise=noise,
        )


# ---------------------------------------------------------------------------
# stimulus trace / raster / cycles

@dataclass(eq=False)
class StimulusTrace:
    """Ordered external events, one (timestep, npu_id, neuron_addr, value)
    row each of an (n, 4) int64 array. Any sequence of 4-tuples is
    accepted and checked at once; the first bad record is reported."""

    records: np.ndarray = field(default_factory=list)

    def __post_init__(self):
        try:  # a copy, so the caller's list or array stays its own
            rec = np.array(self.records, dtype=np.int64)
        except OverflowError:  # every such record fails a check below
            rec = np.array(self.records, dtype=object)
        self.records = _checked_records(rec)

    def save(self, path: str) -> None:
        _write_rows(path, STIMULUS_HEADER, self.records)

    @classmethod
    def load(cls, path: str) -> "StimulusTrace":
        """The trace of a CSV file. A parsed int64 array is the trace's own
        and is checked where it stands, not copied."""
        rows = _read_rows(path, STIMULUS_HEADER, "stimulus", StimulusError)
        if isinstance(rows, list):
            return cls(records=rows)
        trace = cls.__new__(cls)
        trace.records = _checked_records(rows)
        return trace


def _checked_records(rec: np.ndarray) -> np.ndarray:
    """`rec` as (n, 4) int64 stimulus records, each checked; the first bad
    record is reported."""
    rec = rec.reshape(-1, 4) if rec.size == 0 else rec
    if rec.shape[1:] != (4,):
        raise StimulusError("records must be (timestep, npu, neuron, value) rows")
    t, npu, addr, value = rec.T
    checks = [  # in the order each record is checked; messages format the record
        (t < np.concatenate(([0], t[:-1])), "timesteps must be non-negative and non-decreasing"),
        (t >= 2**63, "timestep {0} does not fit 64 bits"),
        ((addr < 0) | (addr > MAX_ADDRESS), f"neuron address must be 0..{MAX_ADDRESS}, got {{2}}"),
        ((npu != 1) & (npu != 2), "npu must be 1 or 2, got {1}"),
        ((value < -128) | (value > 127), "value must fit signed 8-bit"),
    ]
    bad = np.flatnonzero(np.any([c for c, _ in checks], axis=0))
    if bad.size:
        i = int(bad[0])
        msg = next(m for c, m in checks if c[i])
        raise StimulusError(f"record {i}: " + msg.format(*rec[i].tolist()))
    return rec.astype(np.int64, copy=False)


STIMULUS_HEADER = "timestep,npu,neuron,value"
RASTER_HEADER = "timestep,npu,neuron"
CYCLES_FIELDS = ["external", "scan", "mac", "decay", "pde"]
CYCLES_HEADER = (
    "timestep,"
    + ",".join(f"npu1_{f}" for f in CYCLES_FIELDS)
    + ","
    + ",".join(f"npu2_{f}" for f in CYCLES_FIELDS)
    + ",total_parallel,total_serial,model"
)
_WIDTHS = {3: "three", 4: "four"}


PARSE_CHUNK = 1 << 16  # characters of whole lines split at a time


def _line_chunks(text: str, start: int):
    """text[start:].split("\n") in consecutive lists of whole lines, each
    about PARSE_CHUNK characters long, so no list of every line is built."""
    while start <= len(text):
        end = text.find("\n", start + PARSE_CHUNK)
        if end < 0:
            end = len(text)
        yield text[start:end].split("\n")
        start = end + 1


def _read_rows(path: str, header: str, what: str,
               error: type[ValueError] = ValueError) -> np.ndarray | list[list[int]]:
    """The integer rows of a CSV file led by `header`, blank lines skipped:
    an (n, width) int64 array parsed in one pass, else a per-line `int()`
    parse (lists of Python ints) that names the first line it rejects with
    `error`, as it does a byte that is not UTF-8. Both take the lines a
    chunk at a time."""
    text = read_text(path, lambda path, detail: error(f"{path}: {detail}"))
    first = text.find("\n")
    if first < 0:
        first = len(text)
    if text[:first].strip() != header:
        raise error(f"{path}: unexpected {what} header {text[:first].strip()!r}")

    def lines():
        return itertools.chain.from_iterable(_line_chunks(text, first + 1))

    width = header.count(",") + 1
    # numpy 2.4's int parser crashes on a digit then some non-BMP characters.
    if text.isascii():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt only warns when there are no rows
                rows = np.loadtxt(lines(), dtype=np.int64, delimiter=",",
                                  comments=None, ndmin=2)
            if rows.shape[1] == width:
                return rows
        except (ValueError, Warning):
            pass
    rows = []
    for lineno, line in enumerate(lines(), start=2):
        line = line.strip()
        if not line:
            continue
        try:
            row = [int(x) for x in line.split(",")]
        except ValueError:
            row = []
        if len(row) != width:
            raise error(f"{path}: line {lineno}: expected {_WIDTHS[width]} integers "
                        f"{header}, got {_show(line)}")
        rows.append(row)
    return rows


def _write_rows(path: str, header: str, rows: np.ndarray) -> None:
    """`header`, then one comma-separated line per row of an int array."""
    line = ",".join(["%d"] * (header.count(",") + 1)) + "\n"
    text = header + "\n" + line * len(rows) % tuple(rows.ravel().tolist())
    _write_file(path, text.encode())


def _sorted_rows(rows: np.ndarray) -> bool:
    """Whether the rows of an int array are in lexicographic order. Adjacent
    rows are compared column by column, last column first, without
    subtracting, so values at the int64 extremes cannot overflow."""
    after = False  # whether each row sorts after the next one
    for x, y in zip(rows[:-1].T[::-1], rows[1:].T[::-1]):
        after = (x > y) | ~(x < y) & after
    return not np.any(after)


# The b"npu,addr\n" text of every chip address, at (npu - 1) * _ADDRS + addr.
_ADDRS = MAX_ADDRESS + 1
_ADDR_TEXT = np.array([b"%d,%d\n" % (npu, addr) for npu in (1, 2) for addr in range(_ADDRS)],
                      dtype=object)


def _pair_texts(npu: np.ndarray, addr: np.ndarray) -> list[bytes]:
    """The b"npu,addr\n" text of each (npu, addr) pair: `_ADDR_TEXT`'s
    for a chip address, formatted with %d for any other int64 pair."""
    key = npu - 1
    # npu - 1 in 0..1 and addr in 0..MAX_ADDRESS, negatives read as unsigned.
    other = np.flatnonzero((key.view(np.uint64) > 1) | (addr.view(np.uint64) > MAX_ADDRESS))
    key *= _ADDRS
    key += addr
    key[other] = 0
    texts = _ADDR_TEXT.take(key).tolist()
    for i in other.tolist():
        texts[i] = b"%d,%d\n" % (npu[i], addr[i])
    return texts


def save_raster(path: str, records: np.ndarray) -> None:
    """Write (t, npu, addr) records in sorted order; `run` returns them
    sorted, so they are sorted here only when they are not. Each
    timestep's b"t," is formatted once and joined with its records'
    `_pair_texts`, so the bytes are those of a %d per field."""
    records = np.asarray(records, dtype=np.int64).reshape(-1, 3)
    if not _sorted_rows(records):
        records = records[np.lexsort(records.T[::-1])]
    t = records[:, 0]
    texts = _pair_texts(records[:, 1], records[:, 2])
    first = np.ones(len(t), dtype=bool)
    np.not_equal(t[1:], t[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    bounds = [*starts.tolist(), len(t)]
    parts = [RASTER_HEADER.encode() + b"\n"]
    for step, lo, hi in zip(t[starts].tolist(), bounds, bounds[1:]):
        head = b"%d," % step
        parts += (head, head.join(texts[lo:hi]))
    del texts
    _write_file(path, b"".join(parts))


def save_cycles(path: str, rows: list[tuple[int, CycleReport]]) -> None:
    """`CYCLES_HEADER`, then one line per (timestep, report) row, all
    formatted in one pass from each report's `CycleReport.row`."""
    vals = [v for t, rep in rows for v in (t, *rep.row(), rep.model)]
    line = "%d," * (3 + 2 * len(CYCLES_FIELDS)) + "%s\n"
    text = CYCLES_HEADER + "\n" + line * len(rows) % tuple(vals)
    _write_file(path, text.encode())


# ---------------------------------------------------------------------------
# run harness

# Steps advanced per block by `run`. Stimulus, noise and cycle charges are
# compiled for a block at once; the spikes are stepped one at a time.
BLOCK = 64


def _compile_stimulus(desc: NetworkDescription, stimulus: StimulusTrace | None):
    """A function from (t0, the (k, addresses) noise draws of steps
    t0..t0+k-1) to the block's dense external input, (k, t1+t2) summed per
    neuron of the chip, and its (k, 2) event counts per NPU: trace records,
    DC sources and noise sources. Every address is checked here, before any
    step runs. A block's draws are added with one fancy-index `+=`, or with
    `np.add.at` when a column is listed again (an address twice in a
    source, or sources that overlap). A part that a run does not have
    (trace records, noise) costs no numpy call per block."""
    desc.check_stimulus()
    t1 = desc.npu1.total_neurons
    offsets = (0, 0, t1)
    dc = np.zeros(t1 + desc.npu2.total_neurons, dtype=np.int64)
    base = np.zeros(2, dtype=np.int64)
    for s in desc.dc:
        dc[offsets[s.npu] + s.addr] += s.value
        base[s.npu - 1] += 1
    cols = [offsets[ns.npu] + a for ns in desc.noise for a in ns.addrs]
    for ns in desc.noise:
        base[ns.npu - 1] += len(ns.addrs)
    noise_col = np.array(cols, dtype=np.int64)
    repeats = len(set(cols)) < len(cols)

    trace = stimulus.records if stimulus is not None and len(stimulus.records) else None
    if trace is not None:
        totals = np.array([0, t1, desc.npu2.total_neurons])
        bad = np.flatnonzero((trace[:, 2] < 0) | (trace[:, 2] >= totals[trace[:, 1]]))
        if bad.size:
            i = int(bad[0])
            raise StimulusError(
                f"record {i}: address {trace[i, 2]} out of range for npu{trace[i, 1]}"
            )
        trace_t, trace_npu = trace[:, 0], trace[:, 1] - 1
        trace_col, trace_value = trace[:, 2] + np.array(offsets)[trace[:, 1]], trace[:, 3]

    def inputs(t0: int, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = len(draws)
        ext = np.empty((k, len(dc)), dtype=np.int64)
        ext[:] = dc
        counts = np.empty((k, 2), dtype=np.int64)
        counts[:] = base
        if repeats:
            np.add.at(ext, (slice(None), noise_col), draws)
        elif cols:
            ext[:, noise_col] += draws
        if trace is not None:
            lo, hi = trace_t.searchsorted((t0, t0 + k))
            if hi > lo:
                rows = trace_t[lo:hi] - t0
                np.add.at(ext, (rows, trace_col[lo:hi]), trace_value[lo:hi])
                np.add.at(counts, (rows, trace_npu[lo:hi]), 1)
        return ext, counts

    return inputs


def simulate(
    desc: NetworkDescription,
    stimulus: StimulusTrace | None,
    steps: int,
    seed: int = 0,
    block: int = BLOCK,
):
    """Run `steps` timesteps of the description's chip from a fresh state
    (`build_processor`) in blocks of `block` steps (the last one may be
    shorter), yielding (t0, spikes, cycles) after each: the chip's
    (k, t1+t2) spikes of steps t0..t0+k-1, NPU1's neurons first, and their
    (k, 2, 5) cycles from `Processor.cycles`.

    The stimulus is compiled once, before step 0, and each block's input
    with it at once. Noise values come from one NoiseDraws(seed, ...), drawn
    each step source by source in declaration order."""
    if block < 1:
        raise ValueError(f"block must be at least 1 step, got {block}")
    proc = desc.build_processor()
    inputs = _compile_stimulus(desc, stimulus)
    ranges = np.array([(ns.low, ns.high) for ns in desc.noise], dtype=np.int64).reshape(-1, 2)
    noise = NoiseDraws(seed, ranges.repeat([len(ns.addrs) for ns in desc.noise], axis=0))
    for t0 in range(0, steps, block):
        ext, counts = inputs(t0, noise.draw(min(block, steps - t0)))
        yield t0, *proc.advance(ext, counts)


def raster_records(t0: int, spikes: np.ndarray, t1: int) -> np.ndarray:
    """The (n, 3) int64 (t, npu, addr) records of the (k, neurons) spikes of
    steps t0.., in that order: columns below t1 are NPU1's neurons, the rest
    NPU2's."""
    ts, idx = spikes.nonzero()
    npu2 = idx >= t1
    return np.column_stack((ts + t0, npu2 + 1, idx - t1 * npu2))


def run(
    desc: NetworkDescription,
    stimulus: StimulusTrace | None,
    steps: int,
    seed: int = 0,
) -> tuple[np.ndarray, list[tuple[int, CycleReport]], CycleReport]:
    """Execute `steps` timesteps; returns (the (n, 3) raster records in
    (t, npu, addr) order, per-step cycle rows, aggregate report). Only
    declared noise generators consume the seed."""
    raster = [np.empty((0, 3), dtype=np.int64)]
    cycle_rows: list[tuple[int, CycleReport]] = []
    total = np.zeros((2, 5), dtype=np.int64)
    for t0, spikes, cycles in simulate(desc, stimulus, steps, seed):
        raster.append(raster_records(t0, spikes, desc.npu1.total_neurons))
        cycle_rows += [(t0 + i, CycleReport.of(c)) for i, c in enumerate(cycles.tolist())]
        total += cycles.sum(axis=0)
    return np.concatenate(raster), cycle_rows, CycleReport.of(total.tolist(), steps)
