"""Bit-exact emulator of a two-NPU population-based spiking neural processor
with integer QIF neurons, 4-bit synaptic weight SRAM, and cycle accounting."""

from .neuron import NeuronParams, pde_threshold
from .netio import NetworkDescription, StimulusTrace, run, simulate
from .npu import (
    GlobalNeuronConfig,
    NpuConfig,
    PhaseCycles,
    chop_op_count,
    dense_op_count,
)
from .processor import (
    CycleReport,
    Processor,
    hierarchy_op_reduction,
    synapse_count,
)
from .synapse import Crossbar, WeightMemory

__version__ = "0.1.0"
