"""Byte-level fuzzing of the readers of untrusted input: a trajectory file,
a noise-path file or a config file either reads back or ends in the
package's named error for that input, never in another exception."""

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from snls import cli, dynamics, harness, lattice, noise
from snls.errors import ConfigurationError, FormatError

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of a small dpd trajectory file and of its noise-path file."""
    tmp_dir = tmp_path_factory.mktemp("valid")
    g = lattice.make_grid(1, 8, 3.0)
    cfg = dynamics.SolverConfig(
        grid=g, t_final=0.02, dt=0.01, scheme="dpd",
        noise=noise.multiplier_noise(g, 0.2, 3.0),
        initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8),
    )
    traj = dynamics.solve(cfg)
    dynamics.write_trajectory(traj, tmp_dir / "t.bin")
    noise.write_noise_path(traj.noise_path, tmp_dir / "p.bin")
    return (tmp_dir / "t.bin").read_bytes(), (tmp_dir / "p.bin").read_bytes()


@st.composite
def mutated(draw, base):
    """`base` with some bytes overwritten, then cut or extended."""
    data = bytearray(base)
    for pos, byte in draw(st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)),
                                   max_size=8)):
        data[pos] = byte
    cut = draw(st.integers(0, len(data)))
    return bytes(data[:cut]) + draw(st.binary(max_size=64))


def header_fields():
    """Header fields drawn over the values a reader must reject."""
    big = st.one_of(st.integers(0, 16), st.sampled_from([2**32, 2**62, 2**64 - 1]))
    real = st.one_of(st.floats(), st.sampled_from([3.0, 0.01, 0.0, -1.0]))
    return big, real


def read_or_format_error(read, data, fname):
    with open(fname, "wb") as fh:
        fh.write(data)
    try:
        read(fname)
    except FormatError:
        pass


class TestTrajectoryReader:
    @FUZZ
    @given(data=st.binary(max_size=512))
    def test_random_bytes(self, tmp_path, data):
        read_or_format_error(dynamics.read_trajectory, data, tmp_path / "t.bin")

    @FUZZ
    @given(st.data())
    def test_mutated_file(self, tmp_path, valid, data):
        blob = data.draw(mutated(valid[0]))
        read_or_format_error(dynamics.read_trajectory, blob, tmp_path / "t.bin")

    @FUZZ
    @given(st.data())
    def test_header_values(self, tmp_path, valid, data):
        big, real = header_fields()
        header = struct.pack("<QQQddB", data.draw(big), data.draw(big), data.draw(big),
                             data.draw(real), data.draw(real), data.draw(st.integers(0, 255)))
        payload = valid[0][8 + len(header):]
        read_or_format_error(dynamics.read_trajectory, b"SNLSTRJ1" + header + payload,
                             tmp_path / "t.bin")


class TestNoisePathReader:
    @staticmethod
    def read(fname):
        return noise.read_noise_path(fname, 3.0)

    @FUZZ
    @given(data=st.binary(max_size=512))
    def test_random_bytes(self, tmp_path, data):
        read_or_format_error(self.read, data, tmp_path / "p.bin")

    @FUZZ
    @given(st.data())
    def test_mutated_file(self, tmp_path, valid, data):
        read_or_format_error(self.read, data.draw(mutated(valid[1])), tmp_path / "p.bin")

    @FUZZ
    @given(st.data())
    def test_header_values(self, tmp_path, valid, data):
        big, real = header_fields()
        header = struct.pack("<QQQd", data.draw(big), data.draw(big), data.draw(big),
                             data.draw(real))
        payload = valid[1][8 + len(header):]
        read_or_format_error(self.read, b"SNLSNSE1" + header + payload, tmp_path / "p.bin")


CONFIG_LINES = [
    "[grid]", "[time]", "[noise]", "[initial]", "[ensemble]", "[output]", "[bogus]",
    "dim = 2", "dim = 0", "points_per_axis = 8", "points_per_axis = 12", "box_length = inf",
    "dt = 0.01", "dt = nan", "dt = -1", "dt = 1e-320", "t_final = 0.1", "t_final = inf",
    "snapshot_stride = 3", "snapshot_stride = 0", "scheme = dpd", "scheme = x",
    "kind = multiplier", "kind = random_band", "mode = 1,2", "mode = ,", "eta = 0",
    "size = -1", "emit_snapshots = maybe", "seed = 99999999999999999999", "= 3", "key",
]


def load_or_configuration_error(data, fname):
    with open(fname, "wb") as fh:
        fh.write(data)
    try:
        harness.load_config(fname)
    except ConfigurationError:
        pass


class TestConfigParser:
    @FUZZ
    @given(data=st.binary(max_size=512))
    def test_random_bytes(self, tmp_path, data):
        load_or_configuration_error(data, tmp_path / "c.cfg")

    @FUZZ
    @given(lines=st.lists(st.one_of(st.sampled_from(CONFIG_LINES), st.text(max_size=40)),
                          max_size=30))
    def test_config_lines(self, tmp_path, lines):
        load_or_configuration_error("\n".join(lines).encode(),
                                    tmp_path / "c.cfg")

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        fname = tmp_path / "c.cfg"
        fname.write_bytes(b"[grid]\ndim = 2\xff\n")
        assert cli.main(["simulate", "--config", str(fname), "--out", str(tmp_path)]) == 1
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_box_length_rejected(self, value):
        # an infinite box once ran to a report of nan norms with exit 0
        with pytest.raises(ConfigurationError, match="box_length"):
            harness.parse_config(f"[grid]\nbox_length = {value}\n")
