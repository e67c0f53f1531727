"""Recovering a pose from raw keypoints, no matches required.

The bidirectional Chamfer cost between observed pixels and projected
cloud points is zero exactly at the true pose of a clean scene. This
script perturbs the truth and watches the solver walk back.
"""

from mincdpnp import (
    NoiseSpec,
    SolverConfig,
    chamfer_cost,
    generate_scene,
    perturb_pose,
    pose_difference,
    solve_pose_chamfer,
)

scene = generate_scene(150, noise=NoiseSpec(seed=7))
T_init = perturb_pose(scene.T_gt, rot_deg=5.0, trans_m=0.1, seed=7)

print(f"cost at truth:      {chamfer_cost(scene.T_gt, scene.pixels, scene.cloud, scene.K).value:.3e}")
print(f"cost at the start:  {chamfer_cost(T_init, scene.pixels, scene.cloud, scene.K).value:.3e}")
print()

T, trace = solve_pose_chamfer(
    T_init,
    scene.pixels,
    scene.cloud,
    scene.K,
    SolverConfig(max_iters=200),
    T_gt=scene.T_gt,  # only for the error columns below
)

print("iter        cost   step    rot err (deg)   trans err (m)")
shown = trace[:4] + ([trace[-1]] if len(trace) > 4 else [])
for row in shown:
    if row is trace[-1] and len(trace) > 5:
        print("  ...")
    print(
        f"{row.iteration:4d}  {row.cost:10.3e}  {row.step_size:5.2f}  "
        f"{row.rot_err_deg:13.2e}  {row.trans_err_m:14.2e}"
    )

rot, trans = pose_difference(T, scene.T_gt)
print()
print(f"stopped after {trace[-1].iteration} iterations at {rot:.2e} deg / {trans:.2e} m")
print("each iteration freezes nearest-neighbor assignments, takes a damped")
print("Gauss-Newton step in the twist, and backtracks on the reassigned cost;")
print("the solve stops once the cost drops below COST_TOL (as on this clean")
print("scene) or once an accepted step no longer lowers it")
