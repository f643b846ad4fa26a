"""The collector policy of a study build (:mod:`repro.collector`)."""

import gc
import sys
import threading
import time
import weakref

import pytest

from repro import collector
from repro.collector import collector_held
from repro.core import pipeline
from repro.experiment.runner import ExperimentRunner
from repro.services.catalog import build_catalog
from repro.services.world import build_world

SLUGS = ("weather", "grubhub", "cnn")


def _specs() -> list:
    return [spec for spec in build_catalog() if spec.slug in SLUGS]


@pytest.fixture
def collector_on():
    """Start with the collector on and restore its state afterwards."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


class TestHold:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, enabled, collector_on):
        (gc.enable if enabled else gc.disable)()
        with collector_held():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_after_an_exception(self, enabled, collector_on):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(KeyError):
            with collector_held():
                raise KeyError("inside the hold")
        assert gc.isenabled() is enabled

    def test_a_nested_hold_leaves_the_outer_one_held(self, collector_on):
        with collector_held():
            with collector_held():
                pass
            assert not gc.isenabled()
        assert gc.isenabled()

    @pytest.mark.parametrize("first_out", [0, 1])
    def test_overlapping_holds_in_two_threads_end_with_the_collector_on(
        self, first_out, collector_on
    ):
        entered = [threading.Event(), threading.Event()]
        release = [threading.Event(), threading.Event()]

        def hold(index):
            with collector_held():
                entered[index].set()
                release[index].wait(timeout=10)

        threads = [threading.Thread(target=hold, args=(index,)) for index in (0, 1)]
        for index, thread in enumerate(threads):  # thread 1 enters inside thread 0's hold
            thread.start()
            assert entered[index].wait(timeout=10)
        for index in (first_out, 1 - first_out):
            release[index].set()
            threads[index].join(timeout=10)
            assert not threads[index].is_alive()
        assert gc.isenabled()

    def test_racing_holds_never_leave_the_collector_off(self, collector_on, monkeypatch):
        """Two threads take holds at staggered offsets, with the other
        thread let in between reading the collector's state and
        switching it (the race the lock closes); after every round the
        collector is on."""

        class SlowGc:
            def __getattr__(self, name):
                return getattr(gc, name)

            def isenabled(self):
                state = gc.isenabled()
                time.sleep(0.0002)
                return state

        monkeypatch.setattr(collector, "gc", SlowGc())
        rounds = 60
        start = threading.Barrier(3, timeout=10)
        end = threading.Barrier(3, timeout=10)

        def worker(step):
            for index in range(rounds):
                start.wait()
                time.sleep(step * (index % 6))
                with collector_held():
                    time.sleep(0.0003)
                end.wait()

        threads = [threading.Thread(target=worker, args=(step,)) for step in (0.0, 0.0001)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        off = 0
        try:
            for thread in threads:
                thread.start()
            for _ in range(rounds):
                start.wait()
                end.wait()
                if not gc.isenabled():
                    off += 1
                    gc.enable()
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert off == 0


@pytest.fixture(scope="module")
def small_dataset():
    specs = _specs()
    return specs, ExperimentRunner(build_world(specs), seed=2016).run_study(specs, duration=60.0)


def _collector_checked(fn):
    def run(*args, **kwargs):
        if not gc.isenabled():
            raise AssertionError("a pool worker runs with the collector off")
        return fn(*args, **kwargs)

    return run


def test_pool_workers_run_with_the_collector_on(small_dataset, monkeypatch, collector_on):
    """``analyze_dataset`` forks its label and analysis pools inside its
    hold; every worker still runs with the collector on."""
    specs, dataset = small_dataset
    # Forked workers inherit the patched module, so the check runs there.
    monkeypatch.setattr(pipeline, "label_record", _collector_checked(pipeline.label_record))
    monkeypatch.setattr(pipeline, "analyze_session", _collector_checked(pipeline.analyze_session))
    study = pipeline.analyze_dataset(dataset, specs, executor=2)
    assert len(study.analyses()) == len(dataset)
    assert study.recon is not None


def test_a_study_makes_no_full_collection(collector_on):
    """A 3-service ``run_study`` makes one young collection per session
    boundary (capture, label pass, analysis pass) and no other."""
    specs = _specs()
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    # With the test process's heap frozen and the rest collected, the
    # collector starts from a fresh process's state: the study's own
    # objects would soon start full collections if it ran unheld.
    gc.freeze()
    gc.collect()
    gc.callbacks.append(record)
    try:
        study = pipeline.run_study(services=specs, seed=2016)
    finally:
        gc.callbacks.remove(record)
        gc.unfreeze()
    boundaries = 2 * len(study.dataset) + len(pipeline.training_records(study.dataset))
    assert generations == [1] * boundaries
    assert gc.isenabled()


class _Cycle:
    def __init__(self) -> None:
        self.loop = self


class _CycleAddon:
    """Leaves one unreachable cycle per session, and notes at each
    session's start whether the previous session's cycle is still alive."""

    def __init__(self) -> None:
        self.previous = None
        self.survived = []
        self.collector_on = []

    def capture_start(self, meta) -> None:
        self.collector_on.append(gc.isenabled())
        if self.previous is not None:
            self.survived.append(self.previous() is not None)
        self.previous = weakref.ref(_Cycle())


def test_a_sessions_cycle_is_dead_by_the_next_session(collector_on):
    specs = _specs()
    world = build_world(specs)
    addon = _CycleAddon()
    world.proxy.add_addon(addon)
    dataset = ExperimentRunner(world, seed=2016).run_study(specs, duration=30.0)
    assert addon.collector_on == [False] * len(dataset)  # held: only the boundary collects
    assert addon.survived == [False] * (len(dataset) - 1)
    assert world.proxy.addon_errors == []
