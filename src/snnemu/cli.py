"""Command-line interface: deterministic runs, the two demo applications,
and config inspection.

Errors exit nonzero with a single machine-readable line on stderr:
``error: <category>: <detail>``.
"""

from __future__ import annotations

import argparse
import sys

from . import apps
from .netio import (
    ConfigError,
    NetworkDescription,
    StimulusError,
    StimulusTrace,
    read_text,
    run,
    save_cycles,
    save_raster,
)
from .processor import hierarchy_op_reduction, synapse_count
from .synapse import group_count


def _cmd_run(args) -> int:
    desc = NetworkDescription.load(args.config)
    stim = StimulusTrace.load(args.stimulus) if args.stimulus else None
    raster, rows, agg = run(desc, stim, steps=args.steps, seed=args.seed)
    save_raster(args.raster_out, raster)
    if args.cycles_out:
        save_cycles(args.cycles_out, rows)
    print(
        f"steps={agg.timesteps} spikes={len(raster)} "
        f"cycles_parallel={agg.total_parallel} cycles_serial={agg.total_serial} "
        f"timesteps_per_sec={agg.timesteps_per_sec(desc.clock_hz):.0f}"
    )
    return 0


def _cmd_sudoku(args) -> int:
    if args.puzzle:
        text = read_text(args.puzzle, lambda path, detail: apps.PuzzleError(f"{path}: {detail}"))
        puzzle = apps.SudokuPuzzle.from_text(text)
        if puzzle.n != args.n:
            raise apps.PuzzleError(f"puzzle is {puzzle.n}x{puzzle.n}, --n says {args.n}")
    else:
        puzzle = apps.random_puzzle(args.n, seed=args.seed)
    result = apps.solve_sudoku(puzzle, seed=args.seed, max_steps=args.max_steps)
    if result.solved:
        print(f"solved steps={result.steps} cycles={result.cycles.total_parallel}")
        for row in result.grid:
            print(" ".join(str(d) for d in row))
        return 0
    print(f"unsolved steps={result.steps}", file=sys.stderr)
    return 1


def _cmd_avoid(args) -> int:
    stim = StimulusTrace.load(args.stimulus)
    decisions, agg = apps.avoid(stim, args.windows, args.window_steps)
    for idx, (direction, tie, counts) in enumerate(decisions):
        print(f"{idx},{direction},{int(tie)}," + ",".join(str(c) for c in counts))
    per_decision = agg.total_parallel / args.windows
    print(f"# cycles_per_decision={per_decision:.0f}", file=sys.stderr)
    return 0


def _cmd_inspect(args) -> int:
    desc = NetworkDescription.load(args.config)
    t1 = desc.npu1.total_neurons
    t2 = desc.npu2.total_neurons
    words = sum(len(w) * group_count(w.shape[1]) for w in (desc.weights1, desc.weights2))
    print(f"npu1_neurons={t1} npu2_neurons={t2}")
    print(f"synapse_count={synapse_count(t1, t2)}")
    print(f"hierarchy_op_reduction={hierarchy_op_reduction(t1, t2):.4f}")
    print(f"weight_memory_words={words}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Parse errors exit 2 with one `error: usage:` line; subcommands share it."""

    def error(self, message):
        self.exit(2, f"error: usage: {' '.join(message.split())}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="snnemu")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="execute a network for a number of timesteps")
    r.add_argument("--config", required=True)
    r.add_argument("--stimulus")
    r.add_argument("--steps", type=int, required=True)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--raster-out", required=True)
    r.add_argument("--cycles-out")
    r.set_defaults(func=_cmd_run)

    s = sub.add_parser("sudoku", help="solve a puzzle with the constraint network")
    s.add_argument("--n", type=int, default=4)
    s.add_argument("--puzzle", help="text grid, 0 or . for blanks")
    s.add_argument("--max-steps", type=int, default=100_000)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_sudoku)

    a = sub.add_parser("avoid", help="decide motion directions from a stimulus trace")
    a.add_argument("--stimulus", required=True)
    a.add_argument("--windows", type=int, default=1)
    a.add_argument("--window-steps", type=int, default=50)
    a.set_defaults(func=_cmd_avoid)

    i = sub.add_parser("inspect", help="print network statistics")
    i.add_argument("--config", required=True)
    i.set_defaults(func=_cmd_inspect)
    return p


def _range_error(args) -> str | None:
    """What is wrong with the parsed counts and seed, if anything."""
    for name in ("steps", "max_steps", "windows", "window_steps"):
        if getattr(args, name, 1) < 1:
            return f"--{name.replace('_', '-')} must be at least 1, got {getattr(args, name)}"
    if not 0 <= getattr(args, "seed", 0) <= 0xFFFFFFFF:
        return f"--seed must be 0..4294967295, got {args.seed}"
    return None


# The category of each typed error, first match; other errors name their class.
_CATEGORIES = ((ConfigError, "config"), (StimulusError, "stimulus"), (OSError, "io"),
               (apps.PuzzleError, "puzzle"), (apps.NoDecisionError, "decode"),
               (MemoryError, "memory"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _range_error(args)
    if problem:
        print(f"error: usage: {problem}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError, MemoryError) as e:
        category = next((c for cls, c in _CATEGORIES if isinstance(e, cls)), type(e).__name__)
        print(f"error: {category}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
