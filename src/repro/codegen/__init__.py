"""Code generation back ends — renderers of the shared trigger IR.

* :mod:`repro.codegen.pygen` — renders IR to straight-line Python trigger
  functions and ``exec``-compiles them.  This is the reproduction of the
  paper's C++ generation + native compilation step: all query-plan
  interpretation is gone, leaving dictionary probes and arithmetic.
* :mod:`repro.codegen.native` — the only C this system emits is the C it
  compiles and runs: a column kernel for the maps some trigger scans
  whole, attached under the generated Python (``mode="native"``).
"""

from repro.codegen.pygen import CompiledExecutor, generate_module

__all__ = ["CompiledExecutor", "generate_module"]
