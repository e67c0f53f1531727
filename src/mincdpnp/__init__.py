"""Pose estimation and correspondence evaluation on synthetic scenes."""

from .errors import (
    AllPointsBehindCamera,
    DegenerateConfiguration,
    DimensionMismatch,
    Divergence,
    EmptyGroundTruth,
    EmptySet,
    MinCDError,
    MissingDepth,
    MissingFeatures,
    NearPiRotation,
    NoConsensus,
    NonFiniteInput,
    NotOneToOne,
    TooFewPoints,
)
from .features import (
    DEFAULT_FEATURE_DIM,
    CorrespondenceSet,
    KeypointSet2D,
    KeypointSet3D,
    MatchConfig,
    feature_distance_matrix,
    nearest_features,
    normalize_features,
)
from .chamfer import (
    ChamferReport,
    LossWeights,
    SolverConfig,
    TraceRow,
    chamfer_cost,
    chamfer_grad_twist,
    mincd_objective,
    save_trace_csv,
    solve_pose_chamfer,
)
from .evaluation import (
    EvalRecord,
    MetricConfig,
    inlier_ratio,
    match_scene,
    registration_success,
    run_pipeline,
    summary_from_records,
    summary_markdown,
    write_records_jsonl,
)
from .keypoint import (
    DEFAULT_S_TH,
    GroundTruthCorrectness,
    KeypointReport,
    SelectConfig,
    SelectedKeypoints,
    evaluate_selection,
    guided_reprojection_total,
    key_loss,
    keypoint_precision_recall,
    reprojection_correctness,
    select_3d_keypoints,
    tau_criterion,
)
from .blindpnp import (
    DEFAULT_TAU,
    InlierConfig,
    check_inequality8,
    kappa,
    kappa_star,
)
from .pnp import (
    MIN_PNP_POINTS,
    RansacConfig,
    pnp_ransac,
    pnp_refine,
    reprojection_cost,
    reprojection_grad_twist,
)
from .synth import (
    DEFAULT_INTRINSICS,
    NoiseSpec,
    ScenePair,
    generate_scene,
    perturb_pose,
)
from .geometry import (
    CameraIntrinsics,
    Pose,
    exp_action_jacobian,
    pose_difference,
    project_points,
    projection_jacobian,
    rotation_angle_deg,
    se3_exp,
    se3_log,
    skew,
    so3_exp,
)

__version__ = "0.1.0"
