"""The three benchmark workloads and the independent checks on their outputs.

Every workload is a closed loop with one caller: request i is generated from
(workload, seed, i) before its clock starts, runs through the public snnemu
API while timed, and is checked after its clock stops. Inputs come from the
benchmark's own generators (Python's `random`), never from snnemu's.

Checks that hold on any seed:
- the modelled per-phase cycles of every step (or their sum, where only the
  aggregate is returned) equal an independent model computed from the
  network's weights, the spikes and the external events the benchmark fed in;
- sudoku: the grid passes `verify_sudoku` and an independent check of its
  rows, columns, boxes and clues;
- avoid: the decided direction is the stimulated one, without a tie.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from snnemu import apps, netio
from snnemu.npu import GlobalNeuronConfig, NpuConfig

PHASES = ["external", "scan", "mac", "decay", "pde"]
COUNT_KEYS = [
    "npu1.spikes", "npu2.spikes", "synapse.words_read", "synapse.words_skipped",
    "netio.ext_events", "netio.noise_draws", "model.cycles_parallel",
    "model.cycles_serial",
] + [f"npu{k}.cycles.{p}" for k in (1, 2) for p in PHASES]


@dataclass
class Outcome:
    """One request: host times, digest of its outputs, exact counts and the
    messages of every check that failed."""

    steps: int
    total_ns: int
    setup_ns: int | None  # load/parse calls inside the request, if any
    retries: int = 0
    digest: str = ""
    counts: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)

    @property
    def run_ns(self) -> int:
        return self.total_ns - (self.setup_ns or 0)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_digest(obj) -> str:
    return sha256(json.dumps(obj, separators=(",", ":")).encode())


# ---------------------------------------------------------------------------
# independent cycle model

class CycleModel:
    """Expected per-phase cycles of both NPUs from the weight matrices alone.

    A spike at step t is consumed at t+1: NPU1's by NPU1 (recurrent row) and
    by NPU2 (feed-forward row), NPU2's by NPU2. The global neuron of an NPU
    reaches its own NPU through a one-cycle broadcast; every other row costs
    one SRAM word per 8-target group holding a nonzero weight (all groups in
    dense mode).
    """

    def __init__(self, desc: netio.NetworkDescription):
        self.t1 = desc.npu1.total_neurons
        self.t2 = desc.npu2.total_neurons
        self.a1 = desc.npu1.active_neurons
        self.a2 = desc.npu2.active_neurons
        dense = desc.gs_mode == "dense"
        self.read1, self.groups1 = self._words(desc.weights1, dense)
        self.read2, self.groups2 = self._words(desc.weights2, dense)

    @staticmethod
    def _words(w: np.ndarray, dense: bool) -> tuple[np.ndarray, int]:
        rows, cols = w.shape
        groups = -(-cols // 8)
        padded = np.zeros((rows, groups * 8), dtype=np.int64)
        padded[:, :cols] = w
        nonzero = (padded.reshape(rows, groups, 8) != 0).any(axis=2)
        read = np.full(rows, groups) if dense else nonzero.sum(axis=1)
        return read.astype(np.int64), groups

    def expected(self, steps: int, raster, ext1, ext2) -> tuple[np.ndarray, np.ndarray, Counter]:
        """(steps, 5) phase arrays for NPU1 and NPU2, plus SRAM word counts.

        `raster` holds (t, npu, addr); `ext1`/`ext2` give the external events
        delivered to each NPU per step.
        """
        c1 = np.zeros((steps, 5), dtype=np.int64)
        c2 = np.zeros((steps, 5), dtype=np.int64)
        c1[:, 0], c2[:, 0] = ext1, ext2
        c1[:, 1] = (self.t1 + 1) // 2
        c2[:, 1] = (self.t1 + 1) // 2 + (self.t2 + 1) // 2
        c1[:, 3] = c1[:, 4] = self.t1
        c2[:, 3] = c2[:, 4] = self.t2
        words = Counter()
        for t, npu, addr in raster:
            if t + 1 >= steps:
                continue
            if npu == 1:
                rows = [(c2, self.read2[addr], self.groups2)]
                if addr == self.a1:
                    c1[t + 1, 2] += 1
                else:
                    rows.append((c1, self.read1[addr], self.groups1))
            else:
                if addr == self.a2:
                    c2[t + 1, 2] += 1
                    continue
                rows = [(c2, self.read2[self.t1 + addr], self.groups2)]
            for cyc, read, groups in rows:
                cyc[t + 1, 2] += read
                words["synapse.words_read"] += int(read)
                words["synapse.words_skipped"] += int(groups - read)
        return c1, c2, words


def phases(pc) -> list[int]:
    return [int(getattr(pc, p)) for p in PHASES]


def check_totals(errors: list[str], rep, c1: np.ndarray, c2: np.ndarray, steps: int) -> None:
    """Compare an aggregate CycleReport against the summed model."""
    got = [phases(rep.npu1), phases(rep.npu2)]
    want = [c1.sum(axis=0).tolist(), c2.sum(axis=0).tolist()]
    if got != want:
        errors.append(f"modelled cycles {got} != independent model {want}")
    if rep.timesteps != steps:
        errors.append(f"report covers {rep.timesteps} steps, expected {steps}")


def base_counts(rep, raster, ext1, ext2, noise_draws: int, words: Counter) -> Counter:
    counts = Counter(words)
    counts["npu1.spikes"] = sum(1 for _, npu, _ in raster if npu == 1)
    counts["npu2.spikes"] = sum(1 for _, npu, _ in raster if npu == 2)
    counts["netio.ext_events"] = int(np.sum(ext1) + np.sum(ext2))
    counts["netio.noise_draws"] = noise_draws
    counts["model.cycles_parallel"] = rep.total_parallel
    counts["model.cycles_serial"] = rep.total_serial
    for k, pc in ((1, rep.npu1), (2, rep.npu2)):
        for p in PHASES:
            counts[f"npu{k}.cycles.{p}"] = int(getattr(pc, p))
    return counts


class Workload:
    """Requests of one workload, generated from (name, seed, request index)
    into files under `workdir`. `span` wraps each timed section, so a tracer
    can record exactly what the clock measures."""

    name = ""
    check_size = 0  # requests in the check set
    span = nullcontext

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def setup(self, reps: int) -> list[int]:
        """One-off load calls, `reps` times; ns of each. Most workloads load
        inside every request instead."""
        return []


# ---------------------------------------------------------------------------
# chip_noise: the `snnemu run` job on a full chip

def _random_weights(rng: random.Random, rows: int, cols: int) -> np.ndarray:
    """Uniform 4-bit weights with each 8-target group zeroed with p = 1/2."""
    w = [[rng.randint(-8, 7) for _ in range(cols)] for _ in range(rows)]
    for row in w:
        for g in range(0, cols, 8):
            if rng.random() < 0.5:
                row[g:g + 8] = [0] * len(row[g:g + 8])
    return np.array(w, dtype=np.int64)


class ChipNoise(Workload):
    """Seeded random 32+1 -> 128+1 LEAKY networks with an inhibitory global
    neuron, about half of each row's 8-target groups zero, and noise on all
    162 neurons. One request loads a saved network, runs it and writes the
    raster and cycles files."""

    name = "chip_noise"
    check_size = 4
    steps = 50
    pool = 64  # networks per seed; request i uses network i % pool
    noise_low, noise_high = -10, 38
    global_weight = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.nets: dict[int, tuple[Path, CycleModel]] = {}
        self.raster_path = self.dir / "raster.csv"
        self.cycles_path = self.dir / "cycles.csv"

    def network(self, j: int) -> tuple[Path, CycleModel]:
        """Saved config of network j and its cycle model; the description
        itself is dropped so it does not count in the benchmark's memory."""
        if j not in self.nets:
            rng = self.rng(f"net{j}")

            def npu(max_neurons):
                return NpuConfig(
                    max_neurons=max_neurons, active_neurons=max_neurons,
                    params=[apps.LEAKY] * max_neurons,
                    global_neuron=GlobalNeuronConfig(
                        params=apps.LEAKY, out_weight=self.global_weight,
                        mode="inhibitory",
                    ),
                )

            desc = netio.NetworkDescription(
                npu1=npu(32), npu2=npu(128),
                weights1=_random_weights(rng, 32, 33),
                weights2=_random_weights(rng, 33 + 128, 129),
                noise=[
                    netio.NoiseSource(npu=1, addrs=list(range(33)),
                                      low=self.noise_low, high=self.noise_high),
                    netio.NoiseSource(npu=2, addrs=list(range(129)),
                                      low=self.noise_low, high=self.noise_high),
                ],
            )
            path = self.dir / f"net{j}.yaml"
            desc.save(str(path))
            self.nets[j] = (path, CycleModel(desc))
        return self.nets[j]

    def noise_seed(self, i: int) -> int:
        return self.rng(i).getrandbits(32)

    def call(self, config: Path, noise_seed: int, raster_path: Path, cycles_path: Path):
        """The timed call sequence of `snnemu run`; returns (load ns, agg)."""
        t0 = perf_counter_ns()
        desc = netio.NetworkDescription.load(str(config))
        load_ns = perf_counter_ns() - t0
        raster, rows, agg = netio.run(desc, None, self.steps, seed=noise_seed)
        netio.save_raster(str(raster_path), raster)
        netio.save_cycles(str(cycles_path), rows)
        return load_ns, agg

    def request(self, i: int) -> Outcome:
        path, model = self.network(i % self.pool)
        noise_seed = self.noise_seed(i)
        with self.span():
            t0 = perf_counter_ns()
            load_ns, agg = self.call(path, noise_seed, self.raster_path, self.cycles_path)
            total_ns = perf_counter_ns() - t0
        out = Outcome(self.steps, total_ns, load_ns)
        self.verify(out, model, self.raster_path.read_bytes(),
                    self.cycles_path.read_bytes(), agg)
        return out

    def verify(self, out: Outcome, model: CycleModel, raster_bytes: bytes,
               cycles_bytes: bytes, agg) -> None:
        """Check the written files against the independent cycle model."""
        out.digest = sha256(raster_bytes + b"\0" + cycles_bytes)
        errors = out.errors
        steps = self.steps
        ext1 = np.full(steps, model.t1)
        ext2 = np.full(steps, model.t2)
        try:
            raster = parse_csv(raster_bytes, netio.RASTER_HEADER, 3)
            rows = parse_csv(cycles_bytes, netio.CYCLES_HEADER, 14)
        except ValueError as e:
            errors.append(f"unreadable output: {e}")
            return
        limit = {1: model.t1, 2: model.t2}
        if raster != sorted(raster) or any(
            not 0 <= t < steps or npu not in limit or not 0 <= addr < limit[npu]
            for t, npu, addr in raster
        ):
            errors.append("raster is unsorted or out of range")
        c1, c2, words = model.expected(steps, raster, ext1, ext2)
        got = np.array([r[:13] for r in rows], dtype=np.int64)
        want = np.column_stack([np.arange(steps), c1, c2,
                                np.maximum(c1.sum(1), c2.sum(1)),
                                c1.sum(1) + c2.sum(1)])
        if got.shape != want.shape or not np.array_equal(got, want):
            errors.append("cycles.csv differs from the independent model")
        if any(r[13] != "sequential" for r in rows):
            errors.append("cycles.csv model column is not 'sequential'")
        check_totals(errors, agg, c1, c2, steps)
        out.counts = base_counts(agg, raster, ext1, ext2,
                                 steps * (model.t1 + model.t2), words)


def parse_csv(data: bytes, header: str, width: int) -> list[tuple]:
    """Rows of a header-led CSV; integer fields, a last text field allowed."""
    lines = data.decode().split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError("bad header or missing final newline")
    rows = []
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"row {line!r} has {len(fields)} fields")
        rows.append(tuple(int(f) if f.lstrip("-").isdigit() else f for f in fields))
    return rows


# ---------------------------------------------------------------------------
# sudoku: seeded 4x4 puzzles through apps.solve_sudoku

def check_grid(grid, clues, n: int) -> list[str]:
    """Independent of snnemu: every row, column and box of `grid` holds each
    digit 1..n once, and every clue is kept."""
    box = int(n ** 0.5)
    digits = list(range(1, n + 1))
    units = [[grid[r][c] for c in range(n)] for r in range(n)]
    units += [[grid[r][c] for r in range(n)] for c in range(n)]
    units += [[grid[br + k // box][bc + k % box] for k in range(n)]
              for br in range(0, n, box) for bc in range(0, n, box)]
    errors = []
    if any(sorted(u) != digits for u in units):
        errors.append("a row, column or box does not hold each digit once")
    if any(grid[r][c] != d for r, c, d in clues):
        errors.append("the grid does not keep the clues")
    return errors


class Sudoku(Workload):
    """Seeded 4x4 puzzles from `apps.random_puzzle` (5 clues), one per
    request: parse the puzzle text, then solve it with `apps.solve_sudoku`.

    The network's stochastic search sometimes locks into a wrong state that
    never verifies: about 1 call in 100, seen only on puzzles with more than
    one solution, a few of which lock on a quarter or more of their seeds;
    such a call is still unsolved after 30,000 steps. A request does what a user
    of `snnemu sudoku --max-steps 2000` does after `unsolved`: run again
    with the next seed. Each call gets `attempt_steps` steps; the request
    fails only when all `attempts` calls fail. Every call is timed, checked
    against the cycle model and counted, and the restarts are counted too."""

    name = "sudoku"
    check_size = 8
    n = 4
    attempts = 10
    attempt_steps = 2000

    def puzzle(self, i: int) -> tuple[str, int]:
        """(puzzle text, noise seed) of request i."""
        rng = self.rng(i)
        clues = apps.random_puzzle(self.n, seed=rng.getrandbits(32)).clues
        grid = [[0] * self.n for _ in range(self.n)]
        for r, c, d in clues:
            grid[r][c] = d
        text = "".join(" ".join(map(str, row)) + "\n" for row in grid)
        return text, rng.getrandbits(32)

    def request(self, i: int) -> Outcome:
        text, noise_seed = self.puzzle(i)
        results = []
        with self.span():
            t0 = perf_counter_ns()
            puzzle = apps.SudokuPuzzle.from_text(text)
            parse_ns = perf_counter_ns() - t0
            for attempt in range(self.attempts):
                results.append(apps.solve_sudoku(
                    puzzle, seed=(noise_seed + attempt) & 0xFFFFFFFF,
                    max_steps=self.attempt_steps,
                ))
                if results[-1].solved:
                    break
            total_ns = perf_counter_ns() - t0
        out = Outcome(sum(r.steps for r in results), total_ns, parse_ns,
                      retries=len(results) - 1)
        self.verify(out, puzzle, results)
        return out

    def verify(self, out: Outcome, puzzle, results) -> None:
        """Check the grid of the last call and the cycles of every call."""
        errors = out.errors
        last = results[-1]
        if not last.solved:
            errors.append(f"unsolved after {len(results)} calls of {self.attempt_steps} steps")
        elif not apps.verify_sudoku(last.grid, puzzle):
            errors.append("verify_sudoku rejects the grid")
        else:
            errors += check_grid(last.grid, puzzle.clues, self.n)
        if any(r.solved or r.steps != self.attempt_steps or r.grid is not None
               for r in results[:-1]):
            errors.append("a restarted call did not run its whole step budget unsolved")
        model = CycleModel(apps.build_sudoku_network(puzzle)[0])
        size = self.n ** 3
        record = []
        for r in results:
            ext1 = np.zeros(r.steps, dtype=np.int64)
            ext2 = np.full(r.steps, size)  # clue drive on clue neurons, noise elsewhere
            c1, c2, words = model.expected(r.steps, r.raster, ext1, ext2)
            check_totals(errors, r.cycles, c1, c2, r.steps)
            out.counts.update(base_counts(r.cycles, r.raster, ext1, ext2,
                                          r.steps * (size - len(puzzle.clues)), words))
            record.append([r.steps, phases(r.cycles.npu1), phases(r.cycles.npu2)])
        out.digest = json_digest([record, last.grid])


# ---------------------------------------------------------------------------
# avoid: a stream of 50-step direction decisions

class Avoid(Workload):
    """One decision per request: parse a stimulus CSV, run the avoidance
    network for 50 steps, decide. Channel `direction` gets strong evidence
    (48 +/- 6 per step), the other seven weak (16 +/- 6)."""

    name = "avoid"
    check_size = 16
    steps = 50
    strong, weak, jitter = 48, 16, 6
    directions = 8

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.config = self.dir / "avoid.yaml"
        apps.build_avoidance_network().save(str(self.config))
        self.stimulus = self.dir / "stimulus.csv"
        self.desc = None
        self.model = None

    def setup(self, reps: int) -> list[int]:
        """Load the saved network `reps` times; returns each load's ns."""
        times = []
        for _ in range(reps):
            with self.span():
                t0 = perf_counter_ns()
                self.desc = netio.NetworkDescription.load(str(self.config))
                times.append(perf_counter_ns() - t0)
        self.model = CycleModel(self.desc)
        return times

    def write_stimulus(self, i: int) -> tuple[int, np.ndarray]:
        rng = self.rng(i)
        direction = rng.randrange(self.directions)
        lines = ["timestep,npu,neuron,value"]
        for t in range(self.steps):
            for d in range(self.directions):
                base = self.strong if d == direction else self.weak
                lines.append(f"{t},1,{d},{base + rng.randint(-self.jitter, self.jitter)}")
        self.stimulus.write_text("\n".join(lines) + "\n")
        return direction, np.full(self.steps, self.directions)

    def request(self, i: int) -> Outcome:
        direction, ext1 = self.write_stimulus(i)
        errors = []
        with self.span():
            t0 = perf_counter_ns()
            stim = netio.StimulusTrace.load(str(self.stimulus))
            raster, rows, agg = netio.run(self.desc, stim, self.steps)
            try:
                decided, tie, counts = apps.decide_direction(raster, (0, self.steps))
            except apps.NoDecisionError as e:
                decided, tie, counts = None, False, []
                errors.append(str(e))
            total_ns = perf_counter_ns() - t0
        out = Outcome(self.steps, total_ns, None, errors=errors)
        if decided is not None and (decided != direction or tie):
            errors.append(f"decided {decided} (tie={tie}), stimulated {direction}")
        ext2 = np.zeros(self.steps, dtype=np.int64)
        c1, c2, words = self.model.expected(self.steps, raster, ext1, ext2)
        got = np.array([phases(rep.npu1) + phases(rep.npu2) for _, rep in rows])
        if not np.array_equal(got, np.hstack([c1, c2])):
            errors.append("per-step cycles differ from the independent model")
        check_totals(errors, agg, c1, c2, self.steps)
        out.counts = base_counts(agg, raster, ext1, ext2, 0, words)
        out.digest = json_digest([decided, tie, counts, phases(agg.npu1), phases(agg.npu2)])
        return out


WORKLOADS = {w.name: w for w in (ChipNoise, Sudoku, Avoid)}
