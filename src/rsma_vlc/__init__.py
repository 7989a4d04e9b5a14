"""Multi-user MISO visible-light downlink simulator and precoder optimizer.

Submodules: channel (LoS gains and receiver noise), signal_model
(stream layouts, SINRs, rates), optimizer (weighted-sum-rate maximization
under per-fixture L1 budgets: projected Newton from a fixed set of
starts), scenarios (experiment catalog and sweeps), cli (command-line
front end).
"""

from .channel import (
    ChannelMatrix,
    Fixture,
    NoiseParams,
    Receiver,
    build_channel,
    concentrator_gain,
    fixture_gain,
    lambertian_order,
    los_gain,
    noise_variance,
    shot_noise_variance,
    thermal_noise_variance,
)
from .optimizer import (
    AoConfig,
    Problem,
    Solution,
    ao_solve,
    epsilon_from_snr,
    grid_oracle,
)
from .scenarios import ScenarioSpec, Sweep, run_sweep, solve_schemes
from .signal_model import (
    Precoder,
    RateReport,
    StreamLayout,
    assemble_report,
    build_layout,
    monte_carlo_sinr,
)

__version__ = "0.1.0"
