"""Tests for the Concordia predictor and offline training pipeline."""

import copy
import cProfile
import pickle
import pstats
import time

import numpy as np
import pytest

from repro.core.models import LinearRegressionWCET, QuantileTreeWCET
from repro.core.predictor import (
    HANDPICKED_FEATURES,
    ConcordiaPredictor,
    OfflineDataset,
)
from repro.core.training import collect_offline_dataset, train_predictor
from repro.ran.config import PoolConfig, cell_20mhz_fdd
from repro.ran.dag import DagBuilder
from repro.ran.tasks import (NUM_FEATURES, TYPE_CODE, CostModel,
                             TaskInstance, TaskType)
from repro.ran.ue import SlotLoad, bytes_to_allocations
from repro.scenario import Scenario, build_simulation


def _synthetic_dataset(n=800, seed=0):
    """Decode runtimes driven by task_codeblocks (feature 10)."""
    rng = np.random.default_rng(seed)
    dataset = OfflineDataset()
    for __ in range(n):
        features = rng.uniform(0, 10, NUM_FEATURES)
        runtime = 25.0 * features[10] + rng.gamma(2.0, 2.0)
        dataset.add(TaskType.LDPC_DECODE, features, runtime)
    return dataset


def _task(features, task_type=TaskType.LDPC_DECODE, base=100.0):
    task = TaskInstance(task_id=0, task_type=task_type, cell_name="c",
                        features=np.asarray(features, dtype=float),
                        base_cost_us=base)
    task.runtime_us = 110.0
    return task


class TestOfflineDataset:
    def test_add_and_arrays(self):
        dataset = _synthetic_dataset(n=10)
        X, y = dataset.arrays(TaskType.LDPC_DECODE)
        assert X.shape == (10, NUM_FEATURES)
        assert y.shape == (10,)
        assert len(dataset) == 10

    def test_task_types(self):
        dataset = _synthetic_dataset(n=5)
        assert dataset.task_types() == [TaskType.LDPC_DECODE]


class TestPredictor:
    def test_fit_selects_relevant_feature(self):
        predictor = ConcordiaPredictor().fit_offline(_synthetic_dataset())
        selected = predictor.selected_features[TaskType.LDPC_DECODE]
        assert 10 in selected  # task_codeblocks drives the runtime

    def test_handpicked_always_selected(self):
        predictor = ConcordiaPredictor().fit_offline(_synthetic_dataset())
        selected = predictor.selected_features[TaskType.LDPC_DECODE]
        assert set(HANDPICKED_FEATURES) <= set(selected)

    def test_prediction_covers_runtime(self):
        predictor = ConcordiaPredictor().fit_offline(_synthetic_dataset())
        rng = np.random.default_rng(1)
        covered = 0
        for __ in range(200):
            features = rng.uniform(0, 10, NUM_FEATURES)
            truth = 25.0 * features[10] + rng.gamma(2.0, 2.0)
            predicted = predictor.predict_task(_task(features))
            covered += predicted >= truth
        assert covered / 200 > 0.9

    def test_unmodelled_task_returns_none(self):
        predictor = ConcordiaPredictor().fit_offline(_synthetic_dataset())
        task = _task(np.zeros(NUM_FEATURES), task_type=TaskType.FFT)
        assert predictor.predict_task(task) is None

    def test_observe_updates_online_buffer(self):
        predictor = ConcordiaPredictor().fit_offline(_synthetic_dataset())
        features = np.full(NUM_FEATURES, 5.0)
        task = _task(features)
        before = predictor.predict_task(task)
        task.runtime_us = before + 500.0
        predictor.observe_task(task)
        assert predictor.predict_task(task) == pytest.approx(before + 500.0)
        assert predictor.observations_made == 1

    def test_min_samples_skips_sparse_tasks(self):
        dataset = _synthetic_dataset(n=10)
        predictor = ConcordiaPredictor().fit_offline(dataset,
                                                     min_samples=100)
        assert TaskType.LDPC_DECODE not in predictor.models

    def test_custom_model_factory(self):
        predictor = ConcordiaPredictor(
            model_factory=LinearRegressionWCET
        ).fit_offline(_synthetic_dataset())
        model = predictor.models[TaskType.LDPC_DECODE]
        assert isinstance(model, LinearRegressionWCET)


class TestTrainingPipeline:
    @pytest.fixture(scope="class")
    def small_pool(self):
        return PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                          deadline_us=2000.0)

    def test_collect_offline_dataset(self, small_pool):
        dataset = collect_offline_dataset(small_pool, num_slots=150,
                                          seed=11)
        assert len(dataset) > 500
        types = set(dataset.task_types())
        assert TaskType.LDPC_DECODE in types
        assert TaskType.FFT in types
        X, y = dataset.arrays(TaskType.LDPC_DECODE)
        assert (y > 0).all()
        assert X.shape[1] == NUM_FEATURES

    def test_train_predictor_end_to_end(self, small_pool):
        predictor = train_predictor(small_pool, num_slots=250, seed=11)
        assert TaskType.LDPC_DECODE in predictor.models
        # A realistic decode task must receive a sane prediction.
        dataset = collect_offline_dataset(small_pool, num_slots=30, seed=12)
        X, y = dataset.arrays(TaskType.LDPC_DECODE)
        task = _task(X[0])
        predicted = predictor.predict_task(task)
        assert predicted is not None
        assert 0 < predicted < 50 * max(y)


def _mixed_dataset(n=600, seed=0):
    """Decode, encode and precoding samples with different drivers."""
    rng = np.random.default_rng(seed)
    dataset = OfflineDataset()
    drivers = ((TaskType.LDPC_DECODE, 10), (TaskType.LDPC_ENCODE, 11),
               (TaskType.PRECODING, 1))
    for task_type, feature in drivers:
        for __ in range(n):
            features = rng.uniform(0, 10, NUM_FEATURES)
            runtime = 20.0 * np.floor(features[feature]) + rng.gamma(2.0, 1.0)
            dataset.add(task_type, features, runtime)
    return dataset


def _copy_with_leaf(task, leaf):
    twin = _task(task.features, task_type=task.task_type)
    twin.runtime_us = task.runtime_us
    twin.leaf = leaf
    return twin


class TestRouting:
    """``route`` once per batch is the per-task walk, precomputed."""

    @pytest.fixture(scope="class")
    def predictor(self):
        # Precoding gets a linear model: it must stay unrouted.
        factories = iter([QuantileTreeWCET, QuantileTreeWCET,
                          LinearRegressionWCET])
        return ConcordiaPredictor(
            model_factory=lambda: next(factories)()
        ).fit_offline(_mixed_dataset())

    @staticmethod
    def _stream(n=400, seed=5):
        rng = np.random.default_rng(seed)
        types = (TaskType.LDPC_DECODE, TaskType.LDPC_ENCODE,
                 TaskType.PRECODING, TaskType.FFT)
        tasks = []
        for i in range(n):
            features = rng.uniform(-1, 11, NUM_FEATURES)
            task = _task(features, task_type=types[i % len(types)])
            task.runtime_us = float(rng.uniform(1.0, 300.0))
            tasks.append(task)
        return tasks

    @staticmethod
    def _scalar_leaf(predictor, task):
        """The task's global leaf: its tree's offset into the forest's
        leaf bank plus the scalar walk's leaf."""
        model = predictor.models.get(task.task_type)
        if not isinstance(model, QuantileTreeWCET):
            return -1
        selected = predictor.selected_features[task.task_type]
        tree = model.tree
        assert tree.bank is predictor.forest.bank
        return tree.leaf_base + tree.leaf_index(task.features[selected])

    def test_route_mixed_batch_equals_per_task_routing(self, predictor):
        assert isinstance(predictor.models[TaskType.PRECODING],
                          LinearRegressionWCET)
        tasks = self._stream()
        # Put rows exactly on every split threshold as well.
        for task_type, model in predictor.models.items():
            if not isinstance(model, QuantileTreeWCET):
                continue
            selected = predictor.selected_features[task_type]
            tree = model.tree
            same = [t for t in tasks if t.task_type is task_type]
            for node, feature in enumerate(tree._feature):
                if tree._leaf_id[node] < 0:
                    task = same[node % len(same)]
                    task.features[selected[feature]] = tree._threshold[node]
        codes = np.array([TYPE_CODE[t.task_type] for t in tasks])
        feats = np.stack([t.features for t in tasks])
        leaves = predictor.route(codes, feats)
        assert leaves.tolist() == [self._scalar_leaf(predictor, t)
                                   for t in tasks]
        assert (leaves >= 0).any() and (leaves == -1).any()
        assert predictor.route(codes[:0], feats[:0]).tolist() == []

    def test_routed_and_unrouted_streams_are_identical(self, predictor):
        plain = copy.deepcopy(predictor)
        routed = copy.deepcopy(predictor)
        tasks = self._stream()
        codes = np.array([TYPE_CODE[t.task_type] for t in tasks])
        leaves = routed.route(codes, np.stack([t.features for t in tasks]))

        def run(phase_tasks, phase_leaves):
            out_plain, out_routed = [], []
            for task, leaf in zip(phase_tasks, phase_leaves):
                unrouted = _copy_with_leaf(task, -1)
                twin = _copy_with_leaf(task, int(leaf))
                out_plain.append(plain.predict_task(unrouted))
                out_routed.append(routed.predict_task(twin))
                plain.observe_task(unrouted)
                routed.observe_task(twin)
            assert out_plain == out_routed
            return out_routed

        run(tasks[:200], leaves[:200])
        # A fresh online phase: empty leaves fall back to _global_max
        # until they see a sample, on both paths alike.
        plain.reset_online()
        routed.reset_online()
        predictions = run(tasks[200:], leaves[200:])
        global_maxes = {m._global_max for m in routed.models.values()
                        if isinstance(m, QuantileTreeWCET)}
        assert any(p in global_maxes for p in predictions)
        assert plain.predictions_made == routed.predictions_made > 0
        assert plain.observations_made == routed.observations_made > 0
        # The routed runtimes observed since the last prediction are
        # still pending: fold them before reading the buffers.
        routed.fold()
        for task_type, model in routed.models.items():
            other = plain.models[task_type]
            if isinstance(model, QuantileTreeWCET):
                for leaf in range(model.tree.num_leaves):
                    assert model.tree.leaf_values(leaf).tolist() == \
                        other.tree.leaf_values(leaf).tolist()
            else:
                assert model._residuals.values().tolist() == \
                    other._residuals.values().tolist()

    def test_copies_of_a_mid_run_predictor_predict_alike(self):
        """A deepcopy and a pickle round-trip taken with runtimes still
        pending each own one leaf bank, shared by their trees, and
        continue exactly like the original."""
        original = ConcordiaPredictor().fit_offline(_mixed_dataset())
        tasks = self._stream()
        codes = np.array([TYPE_CODE[t.task_type] for t in tasks])
        leaves = original.route(codes, np.stack([t.features for t in tasks]))
        twins = [_copy_with_leaf(t, int(leaf))
                 for t, leaf in zip(tasks, leaves)]
        for task in twins[:150]:
            original.predict_task(task)
            original.observe_task(task)
        assert original._pending_leaves
        copies = [copy.deepcopy(original),
                  pickle.loads(pickle.dumps(original))]
        for twin in copies:
            assert twin.forest.bank is not original.forest.bank
            for model in twin.models.values():
                if isinstance(model, QuantileTreeWCET):
                    assert model.tree.bank is twin.forest.bank

        def rest(run):
            out = []
            for task in twins[150:]:
                out.append(run.predict_task(task))
                run.observe_task(task)
            run.fold()
            return out, run.forest.bank.leaf_max.tolist(), \
                run.predictions_made, run.observations_made

        expected = rest(original)
        assert [rest(twin) for twin in copies] == [expected, expected]

    def test_per_task_path_hashes_no_task_type(self, predictor):
        """The per-task path looks its model up by type code: no
        ``Enum.__hash__`` per predicted or observed task."""
        tasks = self._stream(n=40)
        profile = cProfile.Profile()
        profile.enable()
        for task in tasks:
            predictor.predict_task(task)
            predictor.observe_task(task)
        profile.disable()
        names = {(path, name) for path, _, name in
                 pstats.Stats(profile).stats}
        assert not [name for path, name in names
                    if name == "__hash__" and path.endswith("enum.py")]

    def test_builder_routes_every_build(self, predictor):
        builder = DagBuilder(CostModel(), router=predictor.route)
        cell = cell_20mhz_fdd()
        jobs = []
        for slot in range(6):
            allocations = bytes_to_allocations(
                20_000 + 3_000 * slot, np.random.default_rng(slot))
            load = SlotLoad(cell.name, slot, slot % 2 == 0, allocations)
            jobs.append((load, cell, 0.0, 2000.0, 0))
        dags = builder.build_many(jobs)
        tasks = [t for dag in dags for t in dag.tasks]
        assert [t.leaf for t in tasks] == \
            [self._scalar_leaf(predictor, t) for t in tasks]
        assert any(t.leaf >= 0 for t in tasks)
        # Recycled tasks are re-routed: without a router they read -1.
        for dag in dags:
            builder.recycle_dag(dag)
        builder.router = None
        rebuilt = [t for dag in builder.build_many(jobs) for t in dag.tasks]
        assert {id(t) for t in rebuilt} & {id(t) for t in tasks}
        assert all(t.leaf == -1 for t in rebuilt)

    def test_simulation_hands_the_policy_predictor_to_its_builder(
            self, predictor):
        config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                            deadline_us=2000.0)
        routed = build_simulation(
            Scenario(pool=config, policy="concordia"),
            predictor=predictor)
        assert routed.builder.router == routed.policy.route
        plain = build_simulation(Scenario(
            pool=config, policy="concordia-noml"))
        assert plain.builder.router is None

    def test_routing_time_counts_as_prediction(self, predictor):
        # Fig. 15a's predictor column reads scheduler/prediction_wall_s;
        # the leaf routing done at build time is part of that cost.
        routed = copy.deepcopy(predictor)
        route = routed.route
        batches = []

        def slow_route(codes, feats):
            batches.append(len(codes))
            time.sleep(0.05)
            return route(codes, feats)

        routed.route = slow_route
        config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                            deadline_us=2000.0)
        result = build_simulation(
            Scenario(pool=config, policy="concordia", seed=3),
            predictor=routed).run(20)
        counters = result.telemetry["counters"]
        assert batches and sum(batches) > 0
        assert counters["scheduler/prediction_wall_s"] >= \
            0.05 * len(batches)
