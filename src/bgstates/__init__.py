"""Barut-Girardello coherent states for classical, f- and q-deformed su(1,1).

Layers:

* :mod:`bgstates.qspecial` - q-numbers, q-factorials and their continuation,
  q-Pochhammer/Gaussian binomials, q-Gamma/q-digamma, modified Bessel I and
  the q-Bessel series, all in plain doubles.
* :mod:`bgstates.repalg` - truncated discrete-series representations,
  ladder and coproduct actions.  A deformation f is a :class:`QParam`
  (classical: f = 1; deformed: the Curtright-Zachos map) or a callable of
  the K0 eigenvalue.
* :mod:`bgstates.costate` - single-node coherent states (recurrence,
  q-factorial, and operator-exponential constructions).
* :mod:`bgstates.bipartite` - the entangled two-node state: three block
  routes to g (propagation, q-binomial ansatz, geometric closed form; a
  boundary row is delta or the row d_0..d_M itself), norm series, the
  crossing (nodes swapped, q inverted) that reaches q > 1, Schmidt analysis,
  and the sweep along q, assembled and measured as stacks of states.
* :mod:`bgstates.measure` - the double-double log series that gives the
  q-measure bracket and, at the classical tag, K_nu; completeness measures
  and moment-relation quadrature.
* :mod:`bgstates.cli` - batch command line (``bgstates --help``).
"""

from .errors import (BGStatesError, DomainError, PoleError,
                     SeriesConvergenceError, ShapeError, TruncationError)
from .qspecial import (CLASSICAL, QParam, bessel_i_q, q_binomial, q_digamma,
                       q_factorial, q_factorial_cont, q_gamma, q_number, q_pochhammer)
from .repalg import apply_coproduct, apply_ladder
from .costate import (LadderState, build_by_operator_series, build_f_coherent,
                      build_q_coherent, normalization_series, single_node_profile)
from .bipartite import (BipartiteMatrix, BipartiteParams, SchmidtSpectrum,
                        build_q_bipartite, classical_bipartite, crossing_transform,
                        eigen_residual, eigen_residual_parts, fidelity, g_ansatz_block,
                        g_closed_block, norm_series, schmidt_entropy, solve_g_recurrence,
                        sweep_q)
from .measure import (MomentRecord, MomentReport, bessel_k, classical_measure,
                      moment_check, q_measure)

__version__ = "0.1.0"
