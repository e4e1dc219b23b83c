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

import functools
import operator
import os
import stat
import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import yaml

from .neuron import NeuronParams
from .npu import ConfigError, GlobalNeuronConfig, NpuConfig, PhaseCycles
from .processor import DEFAULT_CLOCK_HZ, CycleReport, Processor, check_chip, cycle_totals
from .synapse import WeightMemory, check_weights, int_array

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
    file gets mode 0o666 less the umask, as with the built-in `open`. The
    bytes go straight to the descriptor, again after a short write, and
    the file is cut only when it is still longer than them."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = os.write(fd, data)
        while done < len(data):
            done += os.write(fd, memoryview(data)[done:])
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > done:
            os.ftruncate(fd, done)
    finally:
        os.close(fd)


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

def _check_integers(kind: str, **fields) -> None:
    """Each field of a `kind` stimulus source is an integer by the one rule
    (`int_array`), else a ConfigError at the path where the field's bounds
    are named; a Python int passes by one type test."""
    for name, value in fields.items():
        if type(value) is not int:
            path = f"stimulus.{kind}" + ("" if name in ("low", "high") else f".{name}")
            int_array(value, functools.partial(ConfigError, path))


def _int_list(value, path: str) -> list[int]:
    """`value`, a list of Python ints as it is, else any 1-D sequence or
    array of integers by the one rule (`int_array`), as a list of Python
    ints; anything else raises a ConfigError at `path`."""
    if type(value) is list and set(map(type, value)) <= {int}:
        return value
    values = int_array(value, functools.partial(ConfigError, path))
    if values.ndim != 1:
        raise ConfigError(path, f"must be a list of integers, got shape {values.shape}")
    return values.tolist()


@dataclass
class NoiseSource:
    """Seeded external-event generator: one event per listed address per
    timestep with value drawn uniformly from [low, high]. The addresses are
    kept as a list of Python ints, whatever integer sequence they came as."""

    npu: int
    addrs: list[int]
    low: int
    high: int

    def __post_init__(self):
        _check_integers("noise", npu=self.npu, low=self.low, high=self.high)
        self.addrs = _int_list(self.addrs, "stimulus.noise.addrs")
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
        _check_integers("dc", npu=self.npu, addr=self.addr, value=self.value)
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
    gs_mode. `build_processor` keeps the chip it compiled and compiles again
    only when those inputs differ from the chip's, so every run matches the
    current values; `copy.copy` of a description shares its chip until the
    copy's inputs change. The stimulus lists may be
    reassigned too; every run checks them."""

    npu1: NpuConfig
    npu2: NpuConfig
    weights1: np.ndarray  # (n1_active, n1_total)
    weights2: np.ndarray  # (n1_total + n2_active, n2_total) ff rows first
    gs_mode: str = "auto"  # auto: mask all-zero words; dense: read everything
    clock_hz: int = DEFAULT_CLOCK_HZ
    dc: list[DcSource] = field(default_factory=list)
    noise: list[NoiseSource] = field(default_factory=list)
    _chip = (None, None)  # the kept chip's configs and gs_mode, and the chip

    def __post_init__(self):
        self.weights1, self.weights2 = self._matrices()
        self._check()

    def _matrices(self) -> list[np.ndarray]:
        """Both weight matrices as int64, each the same array when it is
        int64, their integers taken at their values (`int_array`). A
        weight that is not an integer, or that is past int64 and so out of
        range, raises a ConfigError at weights.npu1 or weights.npu2."""
        out = []
        for k, w in ((1, self.weights1), (2, self.weights2)):
            error = functools.partial(ConfigError, f"weights.npu{k}")
            w = int_array(w, error)
            if w.dtype != np.int64:  # a weight past int64, out of range at its value
                check_weights(w, error)
            out.append(w)
        return out

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
        current configs, matrices and gs_mode, kept with the key of the
        configs and gs_mode and compiled again when the key differs or the
        kept chip's crossbar no longer holds the current matrices."""
        w1, w2 = self._matrices()
        key = (self.npu1, self.npu2, self.gs_mode)
        if self._chip[0] != key or not self._chip[1].holds(w1, w2):
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
            os.path.join(os.path.dirname(path) or ".", weight_name), self._matrices()
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
    row each of an (n, 4) int64 array. Any sequence of 4-tuples of
    integers, or integer array, is accepted and checked at once; the first
    bad record is reported."""

    records: np.ndarray = field(default_factory=list)

    def __post_init__(self):
        rec = _checked_records(_record_array(self.records))
        # A copy, so the caller's array stays its own.
        self.records = rec.copy() if rec is self.records else rec

    def save(self, path: str) -> None:
        rec = self.records
        _write_lines(path, STIMULUS_HEADER, "%d,%d,%d,%d\n", len(rec), lambda lo, hi: rec[lo:hi])

    @classmethod
    def load(cls, path: str) -> "StimulusTrace":
        """The trace of a CSV file. A parsed int64 array is the trace's own
        and is checked where it stands, not copied."""
        trace = cls.__new__(cls)
        trace.records = _checked_records(_read_rows(path))
        return trace


def _record_array(records) -> np.ndarray:
    """`int_array` of stimulus records, raising a StimulusError."""
    return int_array(records, lambda detail: StimulusError("records " + detail))


CHECK_CHUNK = 1 << 16  # records checked per column copy
# The bounds of a stimulus record, (column, least, greatest value, message),
# in the order each record is checked after the order rule: no timestep is
# below the one before it, nor the first below 0. A message formats the
# record.
_ORDER_MESSAGE = "timesteps must be non-negative and non-decreasing"
_RECORD_BOUNDS = (
    (0, 0, 2**63 - 1, "timestep {0} does not fit 64 bits"),
    (2, 0, MAX_ADDRESS, f"neuron address must be 0..{MAX_ADDRESS}, got {{2}}"),
    (1, 1, 2, "npu must be 1 or 2, got {1}"),
    (3, -128, 127, "value must fit signed 8-bit"),
)
_RECORD_LOW, _RECORD_HIGH = np.array(sorted(b[:3] for b in _RECORD_BOUNDS)).T[1:]  # by column


def _checked_records(rec: np.ndarray) -> np.ndarray:
    """`rec`, (n, 4) integer records, as int64, each checked; the first bad
    record and the first rule it breaks are reported. Each `CHECK_CHUNK`
    records, copied column by column (numpy reduces rows of four slowly)
    and overlapping the next chunk by one record, pass when each column's
    min and max are within its bounds and no timestep drops. Only a chunk
    that fails is searched, each rule a mask over its records."""
    rec = rec.reshape(-1, 4) if rec.size == 0 else rec
    if rec.shape[1:] != (4,):
        raise StimulusError("records must be (timestep, npu, neuron, value) rows")
    for lo in range(0, len(rec), CHECK_CHUNK):
        cols = rec[lo : lo + CHECK_CHUNK + 1].T.copy()
        drop = cols[0, 1:] < cols[0, :-1]
        if ((cols.min(axis=1) >= _RECORD_LOW).all() and (cols.max(axis=1) <= _RECORD_HIGH).all()
                and not drop.any()):
            continue
        # The chunk's first record is record 0 or passed the last chunk's checks.
        bad = [(np.concatenate(([cols[0, 0] < 0], drop)), _ORDER_MESSAGE)]
        bad += [((cols[c] < least) | (cols[c] > most), m) for c, least, most, m in _RECORD_BOUNDS]
        i = np.flatnonzero(np.any([b for b, _ in bad], axis=0))[0]
        msg = next(m for b, m in bad if b[i])
        raise StimulusError(f"record {lo + i}: " + msg.format(*cols[:, i].tolist()))
    return rec.astype(np.int64, copy=False)


STIMULUS_HEADER = "timestep,npu,neuron,value"
RASTER_HEADER = "timestep,npu,neuron"
CYCLES_FIELDS = PhaseCycles._fields
CYCLES_HEADER = ",".join(["timestep", *(f"npu{k}_{f}" for k in (1, 2) for f in CYCLES_FIELDS),
                          "total_parallel", "total_serial", "model"])


PARSE_CHUNK = 1 << 16  # characters of whole lines split at a time


def _line_chunks(text: str, start: int):
    """text[start:].split("\n") in consecutive lists of whole lines, each
    about PARSE_CHUNK characters long, so no list of every line is built."""
    while (end := text.find("\n", start + PARSE_CHUNK)) >= 0:
        yield text[start:end].split("\n")
        start = end + 1
    yield text[start:].split("\n")


def _loadtxt(lines) -> np.ndarray | None:
    """The int64 (n, 4) rows that `np.loadtxt` parses from `lines`, or None
    where it rejects them."""
    try:
        rows = np.loadtxt(lines, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape[1] == 4 else None


def _parse_lines(path: str, lines, lineno: int) -> np.ndarray:
    """The (n, 4) rows of `lines`, the first of them line `lineno` of the
    file at `path`, by a per-line `int()` parse through `_record_array`:
    blank lines are skipped, and the first line that is not four integers
    raises a StimulusError naming its line."""
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        line = line.strip()
        if not line:
            continue
        try:
            row = [int(x) for x in line.split(",")]
        except ValueError:
            row = []
        if len(row) != 4:
            raise StimulusError(f"{path}: line {lineno}: expected four integers "
                                f"{STIMULUS_HEADER}, got {_show(line)}")
        rows.append(row)
    return _record_array(rows).reshape(-1, 4)


def _read_rows(path: str) -> np.ndarray:
    """The stimulus rows of a CSV file led by `STIMULUS_HEADER`, blank lines
    skipped, as an int64 array parsed by `loadtxt` a `_line_chunks` chunk
    at a time; only a chunk that `loadtxt` rejects takes the per-line parse
    (`_parse_lines`). That names the first line it rejects, as `read_text`
    does a byte that is not UTF-8, with a StimulusError."""
    text = read_text(path, lambda path, detail: StimulusError(f"{path}: {detail}"))
    first = text.find("\n")
    if first < 0:
        first = len(text)
    if text[:first].strip() != STIMULUS_HEADER:
        raise StimulusError(f"{path}: unexpected stimulus header {text[:first].strip()!r}")
    # numpy 2.4's int parser crashes on a digit then some non-BMP characters,
    # and loadtxt warns on a chunk of empty lines alone, which holds no rows.
    fast = text.isascii()
    parts, lineno = [], 2
    for lines in _line_chunks(text, first + 1):
        rows = _loadtxt(lines) if fast and any(lines) else None
        parts.append(_parse_lines(path, lines, lineno) if rows is None else rows)
        lineno += len(lines)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# The b"npu,addr\n" text of every chip address, at (npu - 1) * _ADDRS + addr.
_ADDRS = MAX_ADDRESS + 1
_ADDR_TEXT = np.array([b"%d,%d\n" % (npu, addr) for npu in (1, 2) for addr in range(_ADDRS)],
                      dtype=object)


def _chip_keys(records: np.ndarray):
    """The (t, key, first) of (t, npu, addr) records that each name a chip
    address and lie in sorted order, else None: key is (npu - 1) * _ADDRS
    + addr and first marks each record whose timestep differs from the one
    before. With npu in 1..2 and addr in 0..MAX_ADDRESS the key orders
    (npu, addr) as the records do, so the records are sorted when no
    timestep drops and no key drops within a timestep. Nothing is
    subtracted from a timestep, so the int64 extremes cannot overflow."""
    t, npu, addr = records.T
    key = npu - 1
    # npu - 1 in 0..1 and addr in 0..MAX_ADDRESS, negatives read as unsigned.
    if len(key) and (key.view(np.uint64).max() > 1
                     or addr.view(np.uint64).max() > MAX_ADDRESS):
        return None
    key *= _ADDRS
    key += addr
    first = np.ones(len(t), dtype=bool)
    np.not_equal(t[1:], t[:-1], out=first[1:])
    if ((t[1:] < t[:-1]) | ~first[1:] & (key[1:] < key[:-1])).any():
        return None
    return t, key, first


def save_raster(path: str, records: np.ndarray) -> None:
    """Write (t, npu, addr) records in sorted order, the bytes of a %d per
    field; `run` returns them sorted, so they are sorted here only when
    not. If every record names a chip address (`_chip_keys`), each
    timestep's b"t," is formatted once and joined with its records'
    `_ADDR_TEXT`."""
    records = np.asarray(records, dtype=np.int64).reshape(-1, 3)
    keys = _chip_keys(records)
    if keys is None:
        records = records[np.lexsort(records.T[::-1])]
        keys = _chip_keys(records)
    if keys is None:
        _write_lines(path, RASTER_HEADER, "%d,%d,%d\n", len(records),
                     lambda lo, hi: records[lo:hi])
        return
    t, key, first = keys
    texts = _ADDR_TEXT.take(key).tolist()
    starts = np.flatnonzero(first)
    bounds = [*starts.tolist(), len(t)]
    parts = [RASTER_HEADER.encode() + b"\n"]
    for step, lo, hi in zip(t[starts].tolist(), bounds, bounds[1:]):
        head = b"%d," % step
        parts += (head, head.join(texts[lo:hi]))
    del texts
    _write_file(path, b"".join(parts))


WRITE_CHUNK = 4096  # lines formatted per % pass


def _write_lines(path: str, header: str, line: str, n: int, fields) -> None:
    """Write `header`, then `n` lines of the format `line`: `fields(lo,
    hi)` gives lines lo..hi-1 as a 2-D int array, one row per line, and
    `WRITE_CHUNK` lines are formatted per % pass, so no tuple of every
    field is built."""
    parts = [header.encode() + b"\n"]
    for lo in range(0, n, WRITE_CHUNK):
        block = fields(lo, min(lo + WRITE_CHUNK, n))
        parts.append((line * len(block) % tuple(block.ravel().tolist())).encode())
    _write_file(path, b"".join(parts))


def save_cycles(path: str, cycles) -> None:
    """`CYCLES_HEADER`, then one line per step of `cycles`, a (steps, 2, 5)
    int array or `run`'s `CycleRows`: the step, its ten phase counts, its
    two `cycle_totals` and the model. Each chunk's fields are filled into
    one int64 buffer, reused by every chunk."""
    cycles = np.asarray(cycles, dtype=np.int64).reshape(-1, 2, 5)
    buf = np.empty((min(len(cycles), WRITE_CHUNK), 3 + 2 * len(CYCLES_FIELDS)), dtype=np.int64)

    def fields(lo: int, hi: int) -> np.ndarray:
        block, chunk = buf[: hi - lo], cycles[lo:hi]
        block[:, 0] = np.arange(lo, hi)
        block[:, 1:-2] = chunk.reshape(hi - lo, -1)
        cycle_totals(chunk, out=block[:, -2:])
        return block

    line = "%d," * buf.shape[1] + CycleReport.model + "\n"
    _write_lines(path, CYCLES_HEADER, line, len(cycles), fields)


# ---------------------------------------------------------------------------
# run harness

# Steps advanced per block by `run`. Stimulus, noise and cycle charges are
# compiled for a block at once; the spikes are stepped one at a time.
BLOCK = 64


def _compile_stimulus(desc: NetworkDescription, stimulus: StimulusTrace | None, block: int):
    """A function from (t0, the (k, addresses) noise draws of steps
    t0..t0+k-1, k <= `block`) to the block's dense external input,
    (k, t1+t2) summed per neuron of the chip, and its (k, 2) event counts
    per NPU: trace records, DC sources and noise sources. Every address is
    checked here, before any step runs. Noise draws and trace records are
    each added with one `np.add.at` on flat indices into the C-ordered
    input, which sums an address listed twice, overlapping sources and
    repeated records; the noise indices are built once, `block` steps
    long, and a shorter block takes a prefix of them. A part that a run
    does not have (trace records, noise) costs no numpy call per block."""
    desc.check_stimulus()
    t1 = desc.npu1.total_neurons
    offsets = (0, 0, t1)
    dc = np.zeros(t1 + desc.npu2.total_neurons, dtype=np.int64)
    base = np.zeros(2, dtype=np.int64)
    for s in desc.dc:
        dc[offsets[s.npu] + s.addr] += s.value
        base[s.npu - 1] += 1
    cols = np.array([offsets[ns.npu] + a for ns in desc.noise for a in ns.addrs], dtype=np.int64)
    for ns in desc.noise:
        base[ns.npu - 1] += len(ns.addrs)
    if cols.size:  # (block, addresses) flat indices, row-major as the draws
        noise_at = (np.arange(block)[:, None] * len(dc) + cols).ravel()

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
        if cols.size:
            np.add.at(ext.reshape(-1), noise_at[: draws.size], draws.reshape(-1))
        if trace is not None:
            lo, hi = trace_t.searchsorted((t0, t0 + k))
            if hi > lo:  # flat indices into the C-ordered ext and counts
                rows = trace_t[lo:hi] - t0
                np.add.at(counts.reshape(-1), 2 * rows + trace_npu[lo:hi], 1)
                rows *= len(dc)
                rows += trace_col[lo:hi]
                np.add.at(ext.reshape(-1), rows, trace_value[lo:hi])
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
    inputs = _compile_stimulus(desc, stimulus, min(block, steps))
    ranges = np.array([(ns.low, ns.high) for ns in desc.noise], dtype=np.int64).reshape(-1, 2)
    noise = NoiseDraws(seed, ranges.repeat([len(ns.addrs) for ns in desc.noise], axis=0))
    for t0 in range(0, steps, block):
        ext, counts = inputs(t0, noise.draw(min(block, steps - t0)))
        yield t0, *proc.advance(ext, counts)


def raster_records(t0: int, spikes: np.ndarray, t1: int) -> np.ndarray:
    """The (n, 3) int64 (t, npu, addr) records of the (k, neurons) uint8
    0/1 spikes of steps t0.., in that order: columns below t1 are NPU1's
    neurons, the rest NPU2's."""
    ts, idx = divmod(spikes.view(bool).ravel().nonzero()[0], spikes.shape[1])
    npu2 = idx >= t1
    out = np.empty((len(ts), 3), dtype=np.int64)
    out[:, 0], out[:, 1], out[:, 2] = ts + t0, npu2 + 1, idx - t1 * npu2
    return out


class CycleRows(Sequence):
    """The per-step cycles of a run: a view of `cycles`, one read-only
    (steps, 2, 5) int64 array, whose item t is (t, the CycleReport of step
    t). A report is built only for an item that is read, and numpy reads
    the view as `cycles`."""

    def __init__(self, cycles: np.ndarray):
        self.cycles = cycles

    def __len__(self) -> int:
        return len(self.cycles)

    def __getitem__(self, i) -> tuple[int, CycleReport]:
        t = range(len(self.cycles))[operator.index(i)]
        return t, CycleReport.of(self.cycles[t])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.cycles, dtype=dtype, copy=copy)


def run(
    desc: NetworkDescription,
    stimulus: StimulusTrace | None,
    steps: int,
    seed: int = 0,
) -> tuple[np.ndarray, CycleRows, CycleReport]:
    """Execute `steps` timesteps; returns (the (n, 3) raster records in
    (t, npu, addr) order, the per-step `CycleRows`, aggregate report). Only
    declared noise generators consume the seed."""
    raster = [np.empty((0, 3), dtype=np.int64)]
    # Filled a block at a time: blocks kept for one concatenate fragment
    # the heap, and raised a 100k-step run's peak RSS by 8 MiB.
    cycles = np.empty((max(steps, 0), 2, 5), dtype=np.int64)
    for t0, spikes, block in simulate(desc, stimulus, steps, seed):
        raster.append(raster_records(t0, spikes, desc.npu1.total_neurons))
        cycles[t0 : t0 + len(block)] = block
    cycles.setflags(write=False)
    return (np.concatenate(raster), CycleRows(cycles),
            CycleReport.of(cycles.sum(axis=0), steps))
