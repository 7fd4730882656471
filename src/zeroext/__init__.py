"""0-Extension gap instances from randomized graph extensions.

Library layout:

- graphs:      core graph types, deterministic generators, metrics
- gf2:         GF(2) cycle space, first Betti number
- extension:   randomized extension sampling and the cloud projection
- instance:    gap and generic 0-Extension instances
- relaxation:  the metric relaxation (edge-length solutions, exact feasibility, costs)
- solvers:     integral solutions (rounding, baselines, local search)
- split:       representatives and split-condition verification
- certificate: formal transformations, inner component graphs, certificates
- cli:         experiment harness (`zeroext ...`)
"""

__version__ = "0.1.0"
