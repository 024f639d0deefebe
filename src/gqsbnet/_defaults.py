"""Run defaults shared by the integrator and a scenario, in a module that
imports nothing, so a command that never integrates reads them without
loading ``dynamics``."""

# Time horizon of a run (integrate's and a scenario's default).
T_MAX = 1000.0
