import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mincdpnp import (
    AllPointsBehindCamera,
    CameraIntrinsics,
    NearPiRotation,
    Pose,
    exp_action_jacobian,
    pose_difference,
    project_points,
    projection_jacobian,
    rotation_angle_deg,
    se3_exp,
    se3_log,
    so3_exp,
)
from mincdpnp.geometry import (
    Z_MIN,
    _front_rows,
    _pair_sq_errors,
    _poses_pass_checks,
    backproject,
    pinhole,
)

from oracles import (
    numeric_jacobian,
    poses_close,
    project_scalar,
    rotation_rotvec,
    se3_exp_expm,
    zero_twist_jacobian,
)

K = CameraIntrinsics(fu=585.0, fv=585.0, cu=320.0, cv=240.0)


def random_twist(rng, max_angle=3.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    return np.concatenate([angle * axis, rng.normal(scale=0.5, size=3)])


def random_pose(rng, max_angle=3.0):
    return se3_exp(random_twist(rng, max_angle))


def project_one(p, T=Pose.identity()):
    """The one row project_points gives for a single point."""
    pixels, in_front = project_points(np.asarray(p, dtype=np.float64)[None], T, K)
    return pixels[0], bool(in_front[0])


class TestProjection:
    def test_optical_axis_hits_principal_point(self):
        q, in_front = project_one([0.0, 0.0, 1.0])
        assert in_front
        assert q[0] == 320.0 and q[1] == 240.0

    def test_pinhole_formula(self):
        q, _ = project_one([1.0, 0.0, 2.0])
        assert q[0] == pytest.approx(612.5, abs=1e-12)
        assert q[1] == pytest.approx(240.0, abs=1e-12)

    def test_behind_camera_gives_nan_row(self):
        q, in_front = project_one([0.0, 0.0, -1.0])
        assert not in_front
        assert np.isnan(q).all()

    def test_depth_at_cutoff_gives_nan_row(self):
        q, in_front = project_one([0.0, 0.0, Z_MIN])
        assert not in_front
        assert np.isnan(q).all()

    def test_scale_consistency(self):
        # Scaling a camera-frame point along its ray leaves the pixel fixed.
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.normal(size=3)
            p[2] = rng.uniform(0.5, 5.0)
            base, _ = project_one(p)
            for lam in (0.1, 2.0, 17.5):
                scaled, _ = project_one(lam * p)
                np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            T = random_pose(rng)
            p = rng.normal(size=3)
            cam = T.apply(p)
            if cam[2] <= 1e-6:
                continue
            q, _ = project_one(p, T)
            uo = K.fu * cam[0] / cam[2] + K.cu
            vo = K.fv * cam[1] / cam[2] + K.cv
            assert q[0] == pytest.approx(uo, rel=1e-12)
            assert q[1] == pytest.approx(vo, rel=1e-12)

    def test_pinhole_is_the_scalar_formula_bit_for_bit(self):
        rng = np.random.default_rng(13)
        cam = rng.normal(size=(4, 5, 3))
        cam[..., 2] = rng.uniform(0.5, 5.0, size=(4, 5))
        q = pinhole(cam, K)
        assert q.shape == (4, 5, 2)
        for (x, y, z), (u, v) in zip(cam.reshape(-1, 3).tolist(), q.reshape(-1, 2).tolist()):
            assert u == K.fu * x / z + K.cu
            assert v == K.fv * y / z + K.cv

    def test_backproject_inverts_pinhole(self):
        rng = np.random.default_rng(17)
        cam = rng.normal(scale=3.0, size=(500, 3))
        cam[:, 2] = rng.uniform(0.5, 10.0, size=500)
        pix = pinhole(cam, K)
        back = backproject(pix, cam[:, 2], K)
        assert back[:, 2].tobytes() == cam[:, 2].tobytes()
        # a few ulp of the pixel (u - c cancels down to ulp(c)) carried
        # back to meters, plus a few ulp of the coordinate itself
        for axis, (f, c) in enumerate(((K.fu, K.cu), (K.fv, K.cv))):
            px_ulp = np.spacing(np.maximum(np.abs(pix[:, axis]), abs(c)))
            bound = 4 * px_ulp / f * cam[:, 2] + 4 * np.spacing(np.abs(cam[:, axis]))
            assert (np.abs(back[:, axis] - cam[:, axis]) <= bound).all()
        rays = backproject(pix.reshape(5, 100, 2), 1.0, K)
        assert rays.shape == (5, 100, 3) and (rays[..., 2] == 1.0).all()

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(3)
        T = random_pose(rng)
        pts = rng.normal(size=(40, 3)) * 2.0
        pixels, in_front = project_points(pts, T, K)
        for i, p in enumerate(pts):
            cam = T.apply(p)
            if cam[2] > 1e-6:
                assert in_front[i]
                np.testing.assert_allclose(pixels[i], project_one(p, T)[0], atol=1e-12)
            else:
                assert not in_front[i]
                assert np.isnan(pixels[i]).all()

    def test_rows_in_front_are_the_all_in_front_bits(self):
        # a cloud partly behind the camera takes the masked path; its rows
        # in front are the all-in-front path's bits on those points alone,
        # and the scalar pinhole's values
        rng = np.random.default_rng(29)
        for _ in range(10):
            T = random_pose(rng)
            pts = rng.normal(size=(60, 3)) * 2.0
            pixels, in_front = project_points(pts, T, K)
            assert 0 < np.count_nonzero(in_front) < len(pts)
            assert np.isnan(pixels[~in_front]).all()
            front, all_in_front = project_points(pts[in_front], T, K)
            assert all_in_front.all() and front.tobytes() == pixels[in_front].tobytes()
            for p, q in zip(pts[in_front], front):
                np.testing.assert_allclose(
                    q, project_scalar(p, T.R, T.t, K.fu, K.fv, K.cu, K.cv), rtol=1e-12
                )

    def test_front_rows_is_a_slice_a_mask_or_an_error(self):
        assert _front_rows(np.ones(4, dtype=bool), "none") == slice(None)
        some = np.array([True, False, True, True])
        assert _front_rows(some, "none") is some
        for none in (np.zeros(4, dtype=bool), np.zeros(0, dtype=bool)):
            with pytest.raises(AllPointsBehindCamera, match="^none$"):
                _front_rows(none, "none")

    def test_pair_sq_errors_are_project_then_gather_bit_for_bit(self):
        # points in front of, exactly at and behind Z_MIN (under the
        # identity the camera depth is the point's own z), then random
        # poses; a single pose is the stack of one
        rng = np.random.default_rng(19)
        cam = rng.normal(size=(30, 3))
        cam[:, 2] = np.repeat([Z_MIN, np.nextafter(Z_MIN, 1.0), 0.0, -Z_MIN, 2.0], 6)
        cases = [(Pose.identity(), cam)]
        cases += [(random_pose(rng), rng.normal(size=(50, 3)) * 3.0) for _ in range(20)]
        for T, points in cases:
            pixels = rng.uniform(0.0, 640.0, size=(len(points), 2))
            proj, in_front = project_points(points, T, K)
            d = pixels - proj
            want = np.where(in_front, np.einsum("nd,nd->n", d, d), np.inf)
            got = _pair_sq_errors(T.R[None], T.t[None], pixels, points, K)
            assert got.shape == (1, len(points))
            assert got[0].tobytes() == want.tobytes()
            assert np.isfinite(got[0][in_front]).all() and np.isinf(got[0][~in_front]).all()
        assert list(np.isinf(_pair_sq_errors(
            np.eye(3)[None], np.zeros((1, 3)), np.zeros((30, 2)), cam, K
        )[0])) == [True] * 6 + [False] * 6 + [True] * 12 + [False] * 6

    def test_pair_sq_errors_rows_are_single_pose_bits(self):
        rng = np.random.default_rng(23)
        poses = [random_pose(rng) for _ in range(9)]
        R = np.stack([T.R for T in poses])
        t = np.stack([T.t for T in poses])
        points = rng.normal(size=(40, 3)) * 3.0
        pixels = rng.uniform(0.0, 640.0, size=(40, 2))
        block = _pair_sq_errors(R, t, pixels, points, K)
        for b in range(len(poses)):
            one = _pair_sq_errors(R[b : b + 1], t[b : b + 1], pixels, points, K)[0]
            assert block[b].tobytes() == one.tobytes()


class TestExpLog:
    def test_zero_twist_is_identity(self):
        T = se3_exp(np.zeros(6))
        assert poses_close(T, Pose.identity(), atol=0.0)

    def test_quarter_turn_about_z(self):
        T = se3_exp(np.array([0.0, 0.0, np.pi / 2, 0.0, 0.0, 0.0]))
        want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(T.R, want, atol=1e-15)
        np.testing.assert_allclose(T.t, np.zeros(3), atol=1e-15)

    def test_exp_matches_matrix_exponential(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            xi = random_twist(rng)
            T = se3_exp(xi)
            R_ref, t_ref = se3_exp_expm(xi[:3], xi[3:])
            np.testing.assert_allclose(T.R, R_ref, atol=1e-12)
            np.testing.assert_allclose(T.t, t_ref, atol=1e-12)

    def test_rotation_matches_scipy_rotvec(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            xi = random_twist(rng)
            np.testing.assert_allclose(se3_exp(xi).R, rotation_rotvec(xi[:3]), atol=1e-12)

    def test_small_angle_branch_matches_expm(self):
        for scale in (1e-12, 1e-9, 5e-9):
            omega = np.array([1.0, -2.0, 0.5]) * scale
            v = np.array([0.3, 0.1, -0.2])
            T = se3_exp(np.concatenate([omega, v]))
            R_ref, t_ref = se3_exp_expm(omega, v)
            np.testing.assert_allclose(T.R, R_ref, atol=1e-14)
            np.testing.assert_allclose(T.t, t_ref, atol=1e-14)

    def test_log_of_identity_is_zero(self):
        xi = se3_log(Pose.identity())
        assert np.all(xi == 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            xi = random_twist(rng, max_angle=np.pi - 1e-3)
            back = se3_log(se3_exp(xi))
            np.testing.assert_allclose(back, xi, atol=1e-9)

    def test_half_turn_raises(self):
        with pytest.raises(NearPiRotation):
            se3_log(se3_exp(np.array([np.pi, 0.0, 0.0, 0.0, 0.0, 0.0])))

    @pytest.mark.parametrize("shape", [(5,), (7,), (2, 3)], ids=["shape0", "shape1", "shape2"])
    def test_exp_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="twist must have shape"):
            se3_exp(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_exp_rejects_non_finite(self, bad):
        xi = np.zeros(6)
        xi[4] = bad
        with pytest.raises(ValueError, match="twist must be finite"):
            se3_exp(xi)

    def test_exp_reads_the_twist_in_place(self):
        xi = np.array([0.1, -0.2, 0.3, 1.0, 2.0, 3.0])
        T = se3_exp(xi)
        assert xi.flags.writeable
        assert not np.shares_memory(T.R, xi) and not np.shares_memory(T.t, xi)
        assert se3_exp(xi.tolist()).t.tobytes() == T.t.tobytes()

    def test_log_returns_float64_six_vector(self):
        xi = se3_log(se3_exp(np.array([0.02, -0.05, 0.01, 0.1, 0.0, -0.2])))
        assert isinstance(xi, np.ndarray)
        assert xi.shape == (6,)
        assert xi.dtype == np.float64

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        xi = random_twist(rng, max_angle=np.pi - 1e-2)
        back = se3_log(se3_exp(xi))
        np.testing.assert_allclose(back, xi, atol=1e-9)


class TestPose:
    def test_rejects_non_orthonormal(self):
        R = np.eye(3)
        R[0, 0] = 1.0 + 1e-6
        with pytest.raises(ValueError):
            Pose(R, np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="orthonormal with determinant"):
            Pose(R, np.zeros(3))

    def test_poses_close_has_no_relative_slack(self):
        a = Pose(np.eye(3), [0.0, 0.0, 1.0 + 5e-6])
        b = Pose(np.eye(3), [0.0, 0.0, 1.0])
        assert not poses_close(a, b, atol=0.0)
        assert poses_close(b, Pose(np.eye(3), [0.0, 0.0, 1.0]), atol=0.0)
        assert poses_close(a, b, atol=1e-5)

    def test_stacked_checks_agree_with_constructor(self):
        rng = np.random.default_rng(29)
        Rs = [random_pose(rng).R for _ in range(4)]
        for eps in (5e-10, 2e-9, 1e-6):
            R = Rs[0].copy()
            R[0, 0] += eps
            Rs.append(R)
        Rs += [np.diag([1.0, 1.0, -1.0]), np.full((3, 3), np.nan), 1e200 * np.eye(3)]
        ts = [np.zeros(3)] * len(Rs) + [np.array([0.0, np.inf, 0.0])]
        Rs.append(Rs[0])
        R, t = np.array(Rs), np.array(ts)
        accepted = []
        for Rb, tb in zip(R, t):
            try:
                with np.errstate(over="ignore"):  # R R^T of the 1e200 matrix
                    Pose(Rb, tb)
                accepted.append(True)
            except ValueError:
                accepted.append(False)
        assert accepted[:4] == [True] * 4 and not all(accepted[4:])
        assert _poses_pass_checks(R, t).tolist() == accepted

    def test_immutable(self):
        T = Pose.identity()
        with pytest.raises(AttributeError):
            T.t = np.ones(3)
        with pytest.raises(ValueError):
            T.R[0, 0] = 5.0

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            T = random_pose(rng)
            assert poses_close(T.compose(T.inverse()), Pose.identity(), atol=1e-12)
            assert poses_close(T.inverse().compose(T), Pose.identity(), atol=1e-12)

    def test_computed_poses_are_the_constructors_bits(self):
        rng = np.random.default_rng(43)
        T1, T2 = random_pose(rng), random_pose(rng)
        made = {
            "identity": (Pose.identity(), np.eye(3), np.zeros(3)),
            "compose": (T1.compose(T2), T1.R @ T2.R, T1.R @ T2.t + T1.t),
            "inverse": (T1.inverse(), T1.R.T, -(T1.R.T @ T1.t)),
        }
        for name, (T, R, t) in made.items():
            ref = Pose._owned(np.array(R), np.array(t))
            for a, b in ((T.R, ref.R), (T.t, ref.t)):
                assert a.tobytes() == b.tobytes(), name
                assert a.flags.c_contiguous and not a.flags.writeable, name
        assert not np.shares_memory(T1.inverse().R, T1.R)

    def test_computed_poses_refuse_non_finite_arrays(self):
        far = Pose(np.eye(3), np.array([1e308, 0.0, 0.0]))
        with pytest.raises(ValueError, match="translation must be finite"):
            with np.errstate(over="ignore"):
                far.compose(far)

    def test_compose_associativity(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            T1, T2, T3 = (random_pose(rng) for _ in range(3))
            left = T1.compose(T2).compose(T3)
            right = T1.compose(T2.compose(T3))
            assert poses_close(left, right, atol=1e-9)

    def test_apply_matches_matmul(self):
        rng = np.random.default_rng(41)
        T = random_pose(rng)
        p = rng.normal(size=3)
        np.testing.assert_allclose(T.apply(p), T.R @ p + T.t, atol=1e-15)
        batch = rng.normal(size=(10, 3))
        np.testing.assert_allclose(T.apply(batch), (T.R @ batch.T).T + T.t, atol=1e-15)

    def test_pose_difference(self):
        R = so3_exp(np.array([0.0, np.radians(10.0), 0.0]))
        T = Pose(R, np.array([0.3, 0.0, 0.4]))
        rot, trans = pose_difference(T, Pose.identity())
        assert rot == pytest.approx(10.0, abs=1e-9)
        assert trans == pytest.approx(0.5, abs=1e-12)
        assert rotation_angle_deg(np.eye(3)) == 0.0

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        T = random_pose(rng)
        path = tmp_path / "pose.json"
        T.save(path)
        back = Pose.load(path)
        assert poses_close(back, T, atol=0.0)


class TestIntrinsics:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fu=0.0, fv=585.0, cu=320.0, cv=240.0)
        with pytest.raises(ValueError):
            CameraIntrinsics(fu=585.0, fv=-1.0, cu=320.0, cv=240.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fu=585.0, fv=585.0, cu=np.nan, cv=240.0)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "intrinsics.json"
        K.save(path)
        assert CameraIntrinsics.load(path) == K


class TestJacobians:
    def test_exp_action_matches_finite_differences(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            xi0 = random_twist(rng, max_angle=2.5)
            pts = rng.normal(size=(5, 3))

            y, J = exp_action_jacobian(xi0, pts)

            def act(vec, pts=pts):
                T = se3_exp(vec)
                return T.apply(pts).ravel()

            np.testing.assert_allclose(y.ravel(), act(xi0), atol=1e-12)
            J_num = numeric_jacobian(act, xi0, h=1e-6).reshape(J.shape[0], 3, 6)
            np.testing.assert_allclose(J, J_num, atol=1e-7)

    def test_exp_action_at_zero(self):
        # At xi = 0 the derivative has the classic [-skew(x) | I] layout.
        pts = np.array([[0.4, -0.2, 1.7]])
        _, J = exp_action_jacobian(np.zeros(6), pts)
        x, y, z = pts[0]
        want_omega = -np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        np.testing.assert_allclose(J[0, :, :3], want_omega, atol=1e-15)
        np.testing.assert_allclose(J[0, :, 3:], np.eye(3), atol=1e-15)

    def test_closed_form_at_zero_is_bytewise_the_series(self):
        pts = np.random.default_rng(71).normal(scale=3.0, size=(1000, 3))
        y, J = exp_action_jacobian(np.zeros(6), pts)
        assert y.tobytes() == pts.tobytes()
        assert zero_twist_jacobian(pts).tobytes() == J.tobytes()

    def test_exp_action_small_angle(self):
        pts = np.random.default_rng(53).normal(size=(4, 3))
        for scale in (1e-10, 1e-6, 1e-5):
            xi0 = np.array([scale, -scale, scale / 2, 0.1, 0.2, -0.3])
            _, J = exp_action_jacobian(xi0, pts)

            def act(vec, pts=pts):
                return se3_exp(vec).apply(pts).ravel()

            J_num = numeric_jacobian(act, xi0, h=1e-7).reshape(len(pts), 3, 6)
            np.testing.assert_allclose(J, J_num, atol=1e-6)

    def test_projection_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            cam = rng.normal(size=3)
            cam[2] = rng.uniform(0.5, 5.0)

            def pix(c):
                return np.array([K.fu * c[0] / c[2] + K.cu, K.fv * c[1] / c[2] + K.cv])

            J = projection_jacobian(cam[None, :], K)[0]
            J_num = numeric_jacobian(pix, cam, h=1e-7)
            np.testing.assert_allclose(J, J_num, rtol=1e-6, atol=1e-6)
