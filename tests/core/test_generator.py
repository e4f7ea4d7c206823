"""Unit tests for the generator front end."""

from repro.core.config import default_config
from repro.core.generator import generate


class TestGenerate:
    def test_returns_all_artifacts(self):
        gen = generate(default_config())
        assert gen.config is not None
        assert "#define DIM 16" in gen.header
        assert gen.sw_params.dim == 16

    def test_sw_params_match_config(self):
        cfg = default_config()
        gen = generate(cfg)
        assert gen.sw_params.sp_rows == cfg.sp_rows
        assert gen.sw_params.acc_rows == cfg.acc_rows
        assert gen.sw_params.supports_ws and gen.sw_params.supports_os

    def test_instantiate_builds_accelerator(self):
        gen = generate(default_config())
        accel = gen.instantiate()
        assert accel.config is gen.config
        assert accel.scratchpad.rows == gen.sw_params.sp_rows

    def test_instantiate_independent_instances(self):
        gen = generate(default_config())
        a = gen.instantiate(name="g0")
        b = gen.instantiate(name="g1")
        assert a is not b
        assert a.scratchpad is not b.scratchpad
