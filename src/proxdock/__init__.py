"""Close-range rendezvous planning and PWM-thruster tracking in a 2D plane.

States are float arrays [x, y, theta, vx, vy, omega] and wrenches float
arrays [Fx, Fy, tau] in every module (see `proxdock.dynamics`); a keep-out
schedule is an int array of KosState values (see `proxdock.kos`).
"""

from .controller import (PdGains, allocate_duty, body_to_world, continuous_duty,
                         pd_wrench, pwm_schedule, tracking_error, world_to_body)
from .dynamics import (BodyParams, TargetState, ThrusterLayout, default_layout,
                       euler_step, total_wrench, wrap_angle)
from .kos import (KosConfig, KosState, classify, corner_safe_angle_threshold,
                  r_safe, signed_distance_batch)
from .nlp import InfeasibleError, NotConvergedError, SolverStats
from .optimizer import (AllCandidatesFailed, Candidate, OptProblem, PlannedTrajectory,
                        build_goal_state, duration_candidates, plan, solve)
from .sim import (ConfigMisaligned, SimConfig, SimResult, audit_safety,
                  relative_velocity_target_frame, run)

__version__ = "0.1.0"
