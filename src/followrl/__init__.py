"""followrl: desk-scale two-stage DDPG car-following laboratory."""

from .config import (DdpgConfig, IdmParams, OuParams, PowertrainParams,
                     RewardConfig, SimConfig, load_config)
from .simcore import FollowEnv, gen_leader_profile, normalize_state
from .reward import RewardBreakdown, reward_total
from .nets import AdamState, MlpNet, opt_step, soft_update
from .ddpg import (DdpgAgent, ReplayBuffer, Transition, greedy_eval,
                   sample_mixed, train_fully_offpolicy, train_stage1,
                   train_stage2)
from .datasets import (FollowingEpisode, RelabeledDataset, build_transitions,
                       make_synthetic, parse_trajectory_csv, reward_histogram,
                       split_train_eval)
from .baselines import (BcPolicy, IdmController, bc_train, idm_accel,
                        idm_equilibrium_gap)
from .control import (ControlNet, accel_to_pedals, collect_reverse_data,
                      powertrain_step, train_control_net)
from .evaluate import (RunTrace, Scenario, TtcSummary, compare_report,
                       run_scenario, self_defined_profile, synthetic_suite,
                       ttc, ttc_summary)

__version__ = "0.1.0"
