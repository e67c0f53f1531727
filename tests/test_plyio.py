import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mincdpnp.plyio import load_ply, save_ply
from oracles import save_ply_ascii

HEADER = (
    b"ply\nformat binary_little_endian 1.0\nelement vertex %d\n"
    b"property double x\nproperty double y\nproperty double z\nend_header\n"
)
TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal


def edge_cloud():
    return np.array(
        [
            [-0.0, 0.0, TINY],
            [-TINY, 3 * TINY, np.finfo(float).tiny / 2],
            [1e308, -1e308, np.finfo(float).max],
            [0.1, -2.5, 1.0 / 3.0],
        ]
    )


class TestRoundTrip:
    def test_bit_exact_on_signed_zeros_subnormals_and_extremes(self, tmp_path):
        pts = edge_cloud()
        save_ply(tmp_path / "c.ply", pts)
        back = load_ply(tmp_path / "c.ply")
        assert back.dtype == np.float64 and back.shape == (4, 3)
        assert back.tobytes() == pts.tobytes()
        assert np.signbit(back[0, 0]) and not np.signbit(back[0, 1])

    def test_file_is_the_header_then_little_endian_rows(self, tmp_path):
        pts = edge_cloud()
        save_ply(tmp_path / "c.ply", pts)
        assert (tmp_path / "c.ply").read_bytes() == HEADER % 4 + pts.astype("<f8").tobytes()

    def test_empty_cloud(self, tmp_path):
        save_ply(tmp_path / "c.ply", np.zeros((0, 3)))
        assert (tmp_path / "c.ply").read_bytes() == HEADER % 0
        back = load_ply(tmp_path / "c.ply")
        assert back.shape == (0, 3) and back.dtype == np.float64

    def test_loaded_array_is_a_writable_copy(self, tmp_path):
        save_ply(tmp_path / "c.ply", edge_cloud())
        back = load_ply(tmp_path / "c.ply")
        assert back.flags.writeable and back.flags.aligned and back.flags.c_contiguous

    def test_rejects_points_that_are_not_xyz(self, tmp_path):
        with pytest.raises(ValueError, match="must be"):
            save_ply(tmp_path / "c.ply", np.zeros((4, 2)))


# every finite float64, with the signed zeros, subnormals and extremes
# drawn often rather than by chance
EDGES = [-0.0, 0.0, TINY, -TINY, np.finfo(float).tiny, np.finfo(float).max, -np.finfo(float).max]
FINITE = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)


class TestRoundTripProperty:
    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(3)), elements=FINITE))
    @example(np.zeros((0, 3)))
    @example(edge_cloud()[1:2])
    @settings(max_examples=60, deadline=None)
    def test_any_finite_cloud_round_trips_bit_for_bit(self, pts):
        with tempfile.TemporaryDirectory() as d:
            save_ply(Path(d) / "c.ply", pts)
            back = load_ply(Path(d) / "c.ply")
        assert back.dtype == np.float64 and back.shape == pts.shape
        assert back.tobytes() == pts.tobytes()


class TestRejects:
    def test_ascii_file_names_its_format(self, tmp_path):
        save_ply_ascii(tmp_path / "c.ply", edge_cloud()[3:])
        with pytest.raises(ValueError, match="format 'ascii 1.0'.*remake it with synth"):
            load_ply(tmp_path / "c.ply")

    def test_big_endian_file_names_its_format(self, tmp_path):
        save_ply(tmp_path / "c.ply", edge_cloud())
        data = (tmp_path / "c.ply").read_bytes().replace(b"binary_little", b"binary_big", 1)
        (tmp_path / "c.ply").write_bytes(data)
        with pytest.raises(ValueError, match="format 'binary_big_endian 1.0'"):
            load_ply(tmp_path / "c.ply")

    def test_not_a_ply_file(self, tmp_path):
        (tmp_path / "c.ply").write_bytes(b"")
        with pytest.raises(ValueError, match="is not a PLY file"):
            load_ply(tmp_path / "c.ply")
        (tmp_path / "c.ply").write_bytes(b"plyx\n" + (HEADER % 0)[4:])
        with pytest.raises(ValueError, match="is not a PLY file"):
            load_ply(tmp_path / "c.ply")

    def test_body_shorter_than_the_count(self, tmp_path):
        save_ply(tmp_path / "c.ply", edge_cloud())
        data = (tmp_path / "c.ply").read_bytes()
        # one byte short of four rows holds three whole rows
        (tmp_path / "c.ply").write_bytes(data[:-1])
        with pytest.raises(ValueError, match="declares 4 vertices but holds 3"):
            load_ply(tmp_path / "c.ply")

    def test_longer_body_reads_the_declared_rows(self, tmp_path):
        pts = edge_cloud()
        (tmp_path / "c.ply").write_bytes(HEADER % 2 + pts.tobytes())
        assert load_ply(tmp_path / "c.ply").tobytes() == pts[:2].tobytes()

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"end_header\n", b""),  # no end_header line
            (b"end_header\n", b"end_header"),  # end_header without its newline
            (b"element vertex 4\n", b""),  # no count
            (b"element vertex 4\n", b"element vertex -1\n"),
            (b"element vertex 4\n", b"element vertex\n"),
            (b"format binary_little_endian 1.0\n", b""),
            (b"property double z\n", b""),
            (b"property double z\n", b"property float z\n"),
        ],
    )
    def test_malformed_header(self, tmp_path, old, new):
        header = (HEADER % 4).replace(old, new, 1)
        assert header != HEADER % 4
        (tmp_path / "c.ply").write_bytes(header + edge_cloud().tobytes())
        with pytest.raises(ValueError, match="malformed PLY header"):
            load_ply(tmp_path / "c.ply")
