"""Surrogate powertrain, reverse-data pipeline and inverse control net
tests."""

import math

import numpy as np
import pytest

from followrl.config import PowertrainParams
from followrl.control import (ControlNet, accel_to_pedals,
                              collect_reverse_data, powertrain_step,
                              read_reverse_csv, track_accel_commands,
                              train_control_net, write_reverse_csv)
from followrl.nets import MlpNet


class TestPowertrain:
    def test_full_brake_at_10(self):
        # -9 (brake) - 0.1 (roll) - 0.0008*100 (drag) = -9.18
        a, _ = powertrain_step(PowertrainParams(), 0.0, 1.0, 10.0, 0.1)
        assert a == pytest.approx(-9.18, rel=1e-12)

    def test_full_throttle_standstill(self):
        # drive term only: 4 * 1 * (1 - 0) with no roll/drag at v = 0
        a, v_next = powertrain_step(PowertrainParams(), 1.0, 0.0, 0.0, 0.1)
        assert a == pytest.approx(4.0, rel=1e-12)
        assert v_next == pytest.approx(0.4, rel=1e-12)

    def test_coast_decel(self):
        # roll + drag only
        a, _ = powertrain_step(PowertrainParams(), 0.0, 0.0, 20.0, 0.1)
        assert a == pytest.approx(-0.1 - 0.0008 * 400.0, rel=1e-12)

    def test_drive_fades_with_speed(self):
        a_lo, _ = powertrain_step(PowertrainParams(), 1.0, 0.0, 5.0, 0.1)
        a_hi, _ = powertrain_step(PowertrainParams(), 1.0, 0.0, 30.0, 0.1)
        assert a_hi < a_lo

    def test_speed_floored_at_zero(self):
        _, v_next = powertrain_step(PowertrainParams(), 0.0, 1.0, 0.2, 0.1)
        assert v_next == 0.0

    def test_invalid_inputs(self):
        p = PowertrainParams()
        with pytest.raises(ValueError):
            powertrain_step(p, 1.5, 0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            powertrain_step(p, 0.0, -0.1, 0.0, 0.1)
        with pytest.raises(ValueError):
            powertrain_step(p, 0.0, 0.0, -1.0, 0.1)


class TestCollection:
    def test_sample_count(self):
        samples = collect_reverse_data(PowertrainParams(), 60.0, seed=0)
        assert len(samples) == 600

    def test_deterministic(self):
        s1 = collect_reverse_data(PowertrainParams(), 20.0, seed=3)
        s2 = collect_reverse_data(PowertrainParams(), 20.0, seed=3)
        assert np.array_equal(s1, s2)

    def test_self_consistency(self):
        # Re-feeding each recorded pedal pair through the plant reproduces
        # the recorded (a, v_next) exactly.
        model = PowertrainParams()
        samples = collect_reverse_data(model, 120.0, seed=1)
        for v_next_rec, v, a_rec, throttle, brake in samples.tolist():
            a, v_next = powertrain_step(model, throttle, brake, v, 0.1)
            assert a == a_rec
            assert v_next == v_next_rec

    def test_no_brake_at_standstill(self):
        for _, v, _, _, brake in collect_reverse_data(PowertrainParams(), 300.0,
                                                      seed=2).tolist():
            if v == 0.0:
                assert brake == 0.0

    def test_never_both_pedals(self):
        for *_, throttle, brake in collect_reverse_data(PowertrainParams(), 300.0,
                                                        seed=4).tolist():
            assert throttle == 0.0 or brake == 0.0

    def test_csv_round_trip(self, tmp_path):
        samples = collect_reverse_data(PowertrainParams(), 30.0, seed=5)
        path = tmp_path / "rev.csv"
        write_reverse_csv(path, samples)
        loaded = read_reverse_csv(path)
        assert samples.shape == (300, 5)
        assert np.array_equal(samples, loaded)

    def test_duration_rejected(self):
        with pytest.raises(ValueError):
            collect_reverse_data(PowertrainParams(), 0.0, seed=0)

    @pytest.mark.parametrize("duration", [0.04, 0.05])
    def test_duration_without_a_sample_rejected(self, duration):
        # under half a PEDAL_DT once gave a header-only CSV that only
        # control train refused
        with pytest.raises(ValueError, match=rf"^duration {duration} s rounds "
                           r"to 0 samples of PEDAL_DT = 0\.1 s; need at least 1$"):
            collect_reverse_data(PowertrainParams(), duration, seed=0)
        assert collect_reverse_data(PowertrainParams(), 0.06, seed=0).shape \
            == (1, 5)


@pytest.fixture(scope="module")
def trained_net():
    model = PowertrainParams()
    samples = collect_reverse_data(model, 600.0, seed=0)
    return model, train_control_net(samples, epochs=40, seed=0)


class TestControlNet:
    def test_needs_enough_samples(self):
        samples = collect_reverse_data(PowertrainParams(), 10.0, seed=0)
        with pytest.raises(ValueError):
            train_control_net(samples)

    def test_negative_epochs_rejected(self):
        # once returned the untrained net
        samples = collect_reverse_data(PowertrainParams(), 120.0, seed=0)
        with pytest.raises(ValueError, match="epochs must be >= 0, got -1"):
            train_control_net(samples, epochs=-1)

    def test_outputs_in_unit_interval(self, trained_net):
        _, cn = trained_net
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.uniform(0, 30, 200), rng.uniform(0, 30, 200),
                             rng.uniform(-9, 5, 200)])
        pedals = cn.predict(x)
        assert np.all(pedals >= 0.0) and np.all(pedals <= 1.0)

    @pytest.mark.parametrize("shape", [(3,), (6,), (2, 6), (1, 2, 3)])
    def test_predict_takes_only_batches(self, trained_net, shape):
        # a 1-D input of two rows' values once returned the first row's
        # pedals alone
        _, cn = trained_net
        with pytest.raises(ValueError, match=r"\(n, 3\) batch"):
            cn.predict(np.ones(shape))

    def test_held_out_mse(self, trained_net):
        # Generalization check against a fresh seeded collection run.
        model, cn = trained_net
        held = collect_reverse_data(model, 200.0, seed=99)
        x, y = held[:, :3], held[:, 3:]
        mse = float(np.mean((cn.predict(x) - y) ** 2))
        assert mse < 0.01

    def test_inverse_consistency(self, trained_net):
        # Commanding the accel the plant produced for known pedals should
        # return pedals that realize nearly the same accel.
        model, cn = trained_net
        rng = np.random.default_rng(7)
        errs = []
        for _ in range(100):
            v = float(rng.uniform(0.5, 25.0))
            throttle = float(rng.uniform(0.0, 1.0))
            a_true, _ = powertrain_step(model, throttle, 0.0, v, 0.1)
            th, br = accel_to_pedals(cn, v, a_true)
            a_hat, _ = powertrain_step(model, th, br, v, 0.1)
            errs.append(a_hat - a_true)
        assert float(np.sqrt(np.mean(np.square(errs)))) < 0.3

    def test_recovers_known_throttle(self, trained_net):
        # Command the plant's own response to throttle 0.5: the inverse
        # should hand back roughly that throttle with the brake released.
        model, cn = trained_net
        for v in (2.0, 8.0, 15.0):
            a_true, _ = powertrain_step(model, 0.5, 0.0, v, 0.1)
            th, br = accel_to_pedals(cn, v, a_true)
            assert th == pytest.approx(0.5, abs=0.05)
            assert br < 0.05

    def test_rest_state_inversion(self, trained_net):
        _, cn = trained_net
        th, br = accel_to_pedals(cn, 0.0, 0.0)
        assert abs(th) < 0.1 and abs(br) < 0.1

    @pytest.mark.parametrize("v, a_cmd, fault", [
        (-5.0, 1.0, "v=-5.0, a_cmd=1.0"), (math.inf, 1.0, "v=inf, a_cmd=1.0"),
        (10.0, math.nan, "v=10.0, a_cmd=nan")],
        ids=["negative-speed", "infinite-speed", "nan-command"])
    def test_pedals_reject_unreachable_input(self, v, a_cmd, fault):
        # a negative speed once returned pedals, (0.588, 0.376) on this
        # untrained net, and a nan command or an infinite speed (nan, nan)
        cn = ControlNet(MlpNet([3, 16, 16, 2], "tanh", seed=0), np.zeros(3),
                        np.ones(3))
        with pytest.raises(ValueError, match=fault):
            accel_to_pedals(cn, v, a_cmd)

    def test_closed_loop_tracking(self, trained_net):
        # +-2 m/s^2 square wave from 10 m/s keeps the plant in its
        # invertible regime (speed never reaches standstill).
        model, cn = trained_net
        t = np.arange(0, 60.0, 0.1)
        commands = np.where((t // 4).astype(int) % 2 == 0, 2.0, -2.0)
        achieved, speeds = track_accel_commands(cn, model, commands, v0=10.0)
        rmse = float(np.sqrt(np.mean((achieved - commands) ** 2)))
        assert rmse < 0.3
        assert np.all(speeds > 0.0)
        assert len(achieved) == len(commands) == len(speeds)
