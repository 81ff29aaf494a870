"""ReQU network constructions, rate calculators and a sampling-complexity harness.

The package has four functional layers:

* ``network``  -- sparse feedforward ReQU networks: evaluation, complexity
  accounting, structural operations (summation, depth equalization) and a
  JSON wire format.
* ``hats``     -- closed-form bump functions and the explicit ReQU
  architectures realizing them, plus unit-ball scaling certificates.
* ``rates``    -- growth-exponent and Lipschitz/rate-window calculators.
* ``sampling`` -- deterministic and Monte Carlo sampling algorithms, the
  adversarial bump family and average-error measurement.

``cli`` exposes all of it as the ``requ-gap`` command.
"""

from .network import (
    GrowthPolicy,
    NeuralNetwork,
    SigmaBudget,
    check_membership,
    depth_extend,
    deserialize,
    eliminate_dead_layers,
    encode,
    realize,
    rho_p,
    serialize,
    sum_networks,
)
from .hats import (
    BumpSpec,
    HatBuildParams,
    UnitBallCertificate,
    build_hat,
    build_hat_network,
    lambda_network,
    lambda_p,
    scaled_unit_ball_bump,
    theta_step,
    vartheta,
    verify_unit_ball_certificate,
)
from .rates import (
    BoundValue,
    LipschitzBoundInput,
    RateWindow,
    empirical_lipschitz,
    gamma_closed_form,
    gamma_numeric,
    lipschitz_bound,
    radius_recursion,
    rate_window,
)
from .sampling import (
    AdversarialFamily,
    ExperimentReport,
    MonteCarloAlgorithm,
    SamplingAlgorithm,
    average_error,
    build_adversarial_family,
    count_unseen,
    grid_algorithm,
    hardness_bound,
    reconstruction_error_bound,
    run_hardness_sweep,
    run_mc_sweep,
    run_upper_bound_sweep,
    uniform_mc,
    uniform_random_algorithm,
    zero_algorithm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
