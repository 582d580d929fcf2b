"""robokit: hardware-agnostic robot control and benchmarking toolkit."""

from .backends import SimBackend, sim_backend_factory
from .config import RobotConfig, load_config, load_scene
from .control import (DwaParams, LqrParams, ProportionalParams, dwa_step, linearize_dynamics,
                      lqr_backward_pass, lqr_track_step, proportional_step, riccati_gains)
from .errors import (BoundError, CapabilityError, ConfigError, ControlError, IkConvergenceError,
                     NoClustersError, NoPathError, RobokitError)
from .geometry import SE3, Pose2D, wrap_angle
from .kinematics import (IkParams, Joint, KinematicChain, forward_kinematics,
                         inverse_kinematics, jacobian)
from .planning import OccupancyGrid, astar, plan_global
from .robot import MotionResult, Robot, make_robot
from .sim import (ArmNoiseModel, ArmSim, BaseNoiseModel, CameraIntrinsics, DiffDriveSim,
                  Scene, SceneObject, render_point_cloud)
from .skills import (DbscanParams, ImageGrasp, PushPlan, backproject_grasp, dbscan,
                     execute_grasp, execute_push, filter_cloud, push_pipeline, select_push)
from .trajectory import (ControlCommand, TimedTrajectory, VelocityLimits, circle_trajectory,
                         generate_sharp_trajectory, generate_smooth_trajectory,
                         integrate_unicycle)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
