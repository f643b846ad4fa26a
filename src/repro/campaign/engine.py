"""The campaign engine: populations of users as mergeable cohorts.

A *campaign* simulates N users drawn by :class:`PersonaSampler`,
executes every planned session through the existing scripted
:class:`~repro.experiment.runner.ExperimentRunner`, analyzes each with
the unchanged detection pipeline, and folds the results straight into
mergeable partial aggregates — the population never materializes:

- the user-id range is planned into contiguous *shards* (a pure
  function of N, never of the worker count);
- each shard reduces to a :class:`CampaignAggregate` — per-cohort
  :class:`CohortAggregate` partials holding a columnar
  :class:`~repro.analysis.columnar.StudyAggregate`, per-user
  :class:`~repro.analysis.stats.Moments`, user-leak counters for Wilson
  intervals, and Poisson-bootstrap sums keyed by user id;
- shard partials stream back through a :mod:`repro.par` pool
  (``pool.imap(tasks.campaign_chunk, ranges)``) and merge
  associatively, so any shard count, worker count, or merge order
  yields identical canonical bytes (pinned in the QA oracle).

Every user is a pure function of ``(PopulationSpec, services, seed,
user_id)``: each session gets a fresh single-service world and a
runner seeded from the user id, which is what makes the shard geometry
invisible to the results.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from collections import deque
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ..ioutil import atomic_write_json

from ..analysis.columnar import (
    ServiceMeta,
    StudyAggregate,
    aggregate_blob,
    encode_cells,
)
from ..analysis.stats import BootstrapSums, Moments, wilson_interval
from ..core.pipeline import analyze_session
from ..experiment.runner import ExperimentRunner
from ..experiment.scripts import persona_script
from ..services.world import build_world
from .population import (
    PersonaSampler,
    PopulationSpec,
    UserPersona,
    cell_order,
    parse_cohort_dims,
)

#: Per-user metrics the cohort aggregates keep Moments + bootstrap for.
USER_METRIC_KEYS = ("sessions", "flows_total", "aa_flows", "aa_bytes", "leak_events")

#: Target users per shard; the shard plan is a pure function of N only.
SHARD_TARGET_USERS = 256

#: Default users between checkpoint writes when a checkpoint dir is set.
CHECKPOINT_EVERY_USERS = 1024


class CampaignError(Exception):
    """Raised on invalid campaign configuration or merge mismatches."""


class CampaignAborted(CampaignError):
    """Raised by the ``abort_after_users`` chaos hook — a deterministic
    stand-in for kill -9 mid-campaign, used by the fault plan and the
    CI resume smoke to exercise checkpoint recovery."""


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


class CohortAggregate:
    """One cohort's mergeable partial reduction.

    Embeds a full :class:`StudyAggregate` (so the paper's tables render
    per cohort through the shared row-builder tails) plus user-level
    accumulators: Moments over per-user metrics, the leaking-user
    counter Wilson intervals come from, and per-replicate Poisson
    bootstrap sums.  :meth:`merge` is associative and exact — counts
    and bootstrap sums are integer adds, Moments merge on Shewchuk
    partials, and the study aggregate's own merge algebra does the
    rest.
    """

    __slots__ = (
        "label",
        "replicates",
        "users",
        "users_leaking",
        "sessions",
        "study",
        "user_moments",
        "bootstrap",
    )

    def __init__(self, label: str, replicates: int) -> None:
        self.label = label
        self.replicates = replicates
        self.users = 0
        self.users_leaking = 0
        self.sessions = 0
        self.study = StudyAggregate()
        self.user_moments = {key: Moments() for key in USER_METRIC_KEYS}
        self.bootstrap = {key: BootstrapSums(replicates) for key in USER_METRIC_KEYS}

    def add_user(self, metrics: dict, leaked: bool, weights: Sequence) -> None:
        self.users += 1
        self.users_leaking += 1 if leaked else 0
        self.sessions += metrics["sessions"]
        for key in USER_METRIC_KEYS:
            value = metrics[key]
            self.user_moments[key].add(value)
            self.bootstrap[key].add(value, weights)

    def merge(self, other: "CohortAggregate") -> "CohortAggregate":
        if other.label != self.label:
            raise CampaignError(f"cannot merge cohort {other.label!r} into {self.label!r}")
        if other.replicates != self.replicates:
            raise CampaignError(
                f"bootstrap replicate mismatch: {self.replicates} != {other.replicates}"
            )
        self.users += other.users
        self.users_leaking += other.users_leaking
        self.sessions += other.sessions
        self.study.merge(other.study)
        self.user_moments = {
            key: self.user_moments[key].merge(other.user_moments[key])
            for key in USER_METRIC_KEYS
        }
        self.bootstrap = {
            key: self.bootstrap[key].merge(other.bootstrap[key])
            for key in USER_METRIC_KEYS
        }
        return self

    # -- intervals -----------------------------------------------------------

    def leak_fraction(self) -> float:
        if not self.users:
            return 0.0
        return self.users_leaking / self.users

    def leak_interval(self, confidence: float = 0.95) -> tuple:
        """Wilson CI for the fraction of users with >= 1 leak."""
        return wilson_interval(self.users_leaking, self.users, confidence)

    def metric_interval(self, key: str, confidence: float = 0.95) -> tuple:
        """Bootstrap CI for the per-user mean of one metric."""
        return self.bootstrap[key].interval(confidence)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Exact (partials-preserving) form for IPC and merging."""
        return {
            "label": self.label,
            "replicates": self.replicates,
            "users": self.users,
            "users_leaking": self.users_leaking,
            "sessions": self.sessions,
            "study": self.study.to_dict(),
            "user_moments": {k: m.to_dict() for k, m in self.user_moments.items()},
            "bootstrap": {k: b.to_dict() for k, b in self.bootstrap.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CohortAggregate":
        cohort = cls(data["label"], data["replicates"])
        cohort.users = data["users"]
        cohort.users_leaking = data["users_leaking"]
        cohort.sessions = data["sessions"]
        cohort.study = StudyAggregate.from_dict(data["study"])
        cohort.user_moments = {
            key: Moments.from_dict(entry)
            for key, entry in data["user_moments"].items()
        }
        cohort.bootstrap = {
            key: BootstrapSums.from_dict(entry)
            for key, entry in data["bootstrap"].items()
        }
        return cohort

    def canonical_dict(self) -> dict:
        """Comparison form: Moments collapsed to correctly rounded sums
        (merge-order-invariant), bootstrap sums already exact ints."""
        payload = self.to_dict()
        payload["study"] = self.study.canonical_dict()
        payload["user_moments"] = {
            key: {
                "count": m.count,
                "sum": m.sum(),
                "sumsq": m.sumsq(),
                "min": m._min,
                "max": m._max,
            }
            for key, m in self.user_moments.items()
        }
        return payload


class CampaignAggregate:
    """The campaign-level mergeable partial: cohorts keyed by label.

    Shards produce one of these each; :meth:`merge` folds another in
    (cohorts merge pairwise, new labels append).  ``canonical_bytes``
    is the byte-exact comparison form the QA oracle and the CI smoke
    job diff — identical for any shard split, worker count, or merge
    order.
    """

    def __init__(self, seed: int, dims: tuple, replicates: int) -> None:
        self.seed = seed
        self.dims = tuple(dims)
        self.replicates = replicates
        self.cohorts: dict = {}  # label -> CohortAggregate

    @property
    def users(self) -> int:
        return sum(cohort.users for cohort in self.cohorts.values())

    @property
    def sessions(self) -> int:
        return sum(cohort.sessions for cohort in self.cohorts.values())

    def cohort(self, label: str) -> CohortAggregate:
        cohort = self.cohorts.get(label)
        if cohort is None:
            cohort = self.cohorts[label] = CohortAggregate(label, self.replicates)
        return cohort

    def ordered_cohorts(self) -> list:
        return [self.cohorts[label] for label in sorted(self.cohorts)]

    def overall(self) -> CohortAggregate:
        """All cohorts merged into one population-wide aggregate."""
        total = CohortAggregate("all", self.replicates)
        for cohort in self.ordered_cohorts():
            clone = CohortAggregate.from_dict(cohort.to_dict())
            clone.label = "all"
            total.merge(clone)
        return total

    def merge(self, other: "CampaignAggregate") -> "CampaignAggregate":
        if (other.seed, other.dims, other.replicates) != (
            self.seed,
            self.dims,
            self.replicates,
        ):
            raise CampaignError(
                "cannot merge campaign partials with different "
                f"(seed, dims, replicates): {(self.seed, self.dims, self.replicates)} "
                f"!= {(other.seed, other.dims, other.replicates)}"
            )
        for label, cohort in sorted(other.cohorts.items()):
            mine = self.cohorts.get(label)
            if mine is None:
                self.cohorts[label] = CohortAggregate.from_dict(cohort.to_dict())
            else:
                mine.merge(cohort)
        return self

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dims": list(self.dims),
            "replicates": self.replicates,
            "cohorts": [cohort.to_dict() for cohort in self.ordered_cohorts()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignAggregate":
        agg = cls(data["seed"], tuple(data["dims"]), data["replicates"])
        for entry in data["cohorts"]:
            cohort = CohortAggregate.from_dict(entry)
            agg.cohorts[cohort.label] = cohort
        return agg

    def canonical_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dims": list(self.dims),
            "replicates": self.replicates,
            "users": self.users,
            "sessions": self.sessions,
            "cohorts": [cohort.canonical_dict() for cohort in self.ordered_cohorts()],
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.canonical_dict(), sort_keys=True).encode("utf-8")

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


def merge_campaigns(partials: Iterable) -> CampaignAggregate:
    """Fold shard partials (in the given order) into one aggregate."""
    merged = None
    for partial in partials:
        if merged is None:
            merged = CampaignAggregate(partial.seed, partial.dims, partial.replicates)
        merged.merge(partial)
    if merged is None:
        raise CampaignError("no campaign partials to merge")
    return merged


# ---------------------------------------------------------------------------
# Context: everything a shard needs, shippable to pool workers
# ---------------------------------------------------------------------------


class CampaignContext:
    """Bound (population spec, services, seed, cohorts).

    Workers rebuild one from ``(specs, config_dict)`` via the pool
    initializer; the dict is JSON-safe so the spawn start method works
    identically to fork.
    """

    def __init__(
        self,
        population_spec: PopulationSpec,
        services: Sequence,
        seed: int,
        dims: tuple = ("os",),
    ) -> None:
        self.population_spec = population_spec
        self.services = list(services)
        self.seed = int(seed)
        self.dims = tuple(dims)
        self.sampler = PersonaSampler(population_spec, self.services, self.seed)
        self.specs_by_slug = {spec.slug: spec for spec in self.services}
        self.metas = [
            ServiceMeta.from_spec(spec, index)
            for index, spec in enumerate(self.services)
        ]
        self._order_by_slug = {
            spec.slug: index for index, spec in enumerate(self.services)
        }

    def config(self) -> dict:
        """The JSON-safe half of the worker context (specs ship as
        pickled objects alongside, like the analysis stages)."""
        return {
            "population_spec": self.population_spec.to_dict(),
            "seed": self.seed,
            "dims": list(self.dims),
        }

    @classmethod
    def from_config(cls, services: Sequence, config: dict) -> "CampaignContext":
        return cls(
            PopulationSpec.from_dict(config["population_spec"]),
            services,
            config["seed"],
            dims=tuple(config["dims"]),
        )

    # -- per-user simulation -------------------------------------------------

    def user_seed(self, user_id: int) -> int:
        text = f"campaign|{self.seed}|runner|{user_id}"
        return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")

    def simulate_user(self, user: UserPersona) -> list:
        """Run and analyze every planned session; ``[(order, analysis)]``.

        Each session gets a *fresh* single-service world and a runner
        seeded purely from the user id, so a user's traffic is
        independent of which shard or worker simulates them.
        """
        cells = []
        grants = user.grants

        def setup(phone) -> None:
            phone.permission_decider = (
                lambda app_slug, permission: permission in grants
            )

        for plan in user.plans:
            spec = self.specs_by_slug[plan.service]
            world = build_world([spec])
            runner = ExperimentRunner(
                world, seed=self.user_seed(user.user_id), persona=user.persona
            )
            script = persona_script(
                spec,
                duration=plan.duration,
                rng=self.sampler._rng("script", user.user_id, plan.seq),
            )
            record = runner.run_session(
                spec,
                plan.os_name,
                plan.medium,
                duration=plan.duration,
                script=script,
                phone_setup=setup,
            )
            analysis = analyze_session(record, spec, recon=None)
            order = cell_order(
                self._order_by_slug[plan.service], plan.os_name, plan.medium
            )
            cells.append((order, analysis))
        return cells

    # -- fold ------------------------------------------------------------------

    def fold_cells(self, study: StudyAggregate, cells: list) -> None:
        """Encode ``(order, analysis)`` cells into one batch blob, run the
        kernel, merge the partial in — the codec round-trip is the same
        one the process pool ships."""
        study.merge(aggregate_blob(encode_cells(self.metas, cells)))

    def fold_user(self, agg: CampaignAggregate, user: UserPersona, cells: list) -> None:
        cohort = agg.cohort(user.cohort(self.dims))
        self.fold_cells(cohort.study, cells)
        metrics = {
            "sessions": len(cells),
            "flows_total": sum(a.flows_total for _, a in cells),
            "aa_flows": sum(a.aa_flows for _, a in cells),
            "aa_bytes": sum(a.aa_bytes for _, a in cells),
            "leak_events": sum(len(a.leaks) for _, a in cells),
        }
        leaked = any(a.leaks for _, a in cells)
        cohort.add_user(metrics, leaked, self.sampler.bootstrap_weights(user.user_id))

    # -- shard execution -----------------------------------------------------

    def run_shard(self, start: int, stop: int) -> CampaignAggregate:
        """Simulate users ``[start, stop)`` into one shard partial."""
        agg = CampaignAggregate(
            self.seed, self.dims, self.population_spec.bootstrap_replicates
        )
        for user in self.sampler.iter_users(start, stop):
            self.fold_user(agg, user, self.simulate_user(user))
        return agg


# ---------------------------------------------------------------------------
# Shard planning + driver
# ---------------------------------------------------------------------------


def default_shard_count(population: int) -> int:
    """Shards as a pure function of N (never of the worker count), so
    the plan — hence every partial — is host-independent."""
    return max(1, math.ceil(population / SHARD_TARGET_USERS))


def plan_shards(population: int, shards: Optional[int] = None) -> list:
    """Contiguous ``(start, stop)`` user-id ranges covering the population."""
    if population < 1:
        raise CampaignError(f"population must be >= 1: {population}")
    count = default_shard_count(population) if shards is None else int(shards)
    count = max(1, min(count, population))
    base, extra = divmod(population, count)
    ranges = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def _offset_ranges(ranges: list, offset: int) -> list:
    return [(start + offset, stop + offset) for start, stop in ranges]


class AdaptiveSharder:
    """Feedback-driven chunk planner for campaigns on a process pool.

    Starts at the static :data:`SHARD_TARGET_USERS` chunk size, then
    re-sizes from an EWMA of observed worker throughput so each chunk
    lands near ``target_seconds`` of simulation — big enough that the
    coordinator folds O(population / max_users) partials instead of
    O(population / 256), small enough to stay observable.  Near the end
    the remaining range is split across ``workers * 2`` chunks so one
    straggler cannot serialize the tail.  Only the *boundaries* move:
    user ``i`` is a pure function of (spec, services, seed, i), so the
    merge algebra keeps every re-chunking byte-identical.
    """

    def __init__(
        self,
        population: int,
        workers: int,
        start: int = 0,
        target_seconds: float = 2.0,
        min_users: int = 32,
        max_users: int = 8192,
        initial: int = SHARD_TARGET_USERS,
    ) -> None:
        self.population = population
        self.workers = max(1, workers)
        self.next_start = start
        self.target_seconds = target_seconds
        self.min_users = max(1, min_users)
        self.max_users = max(self.min_users, max_users)
        self._size = max(self.min_users, min(initial, self.max_users))
        self._rate: Optional[float] = None

    def next_range(self) -> Optional[tuple]:
        if self.next_start >= self.population:
            return None
        remaining = self.population - self.next_start
        tail = max(self.min_users, math.ceil(remaining / (self.workers * 2)))
        size = min(self._size, tail, remaining)
        shard_range = (self.next_start, self.next_start + size)
        self.next_start += size
        return shard_range

    def observe(self, users: int, elapsed: float) -> None:
        if elapsed <= 0.0 or users <= 0:
            return
        rate = users / elapsed
        self._rate = rate if self._rate is None else 0.5 * self._rate + 0.5 * rate
        self._size = int(
            min(self.max_users, max(self.min_users, self._rate * self.target_seconds))
        )


class _FixedPlan:
    """Pre-planned chunk geometry (explicit ``shards=``) behind the
    planner interface — deterministic chunking for tests and smokes."""

    def __init__(self, ranges: list) -> None:
        self._ranges = iter(ranges)

    def next_range(self) -> Optional[tuple]:
        return next(self._ranges, None)

    def observe(self, users: int, elapsed: float) -> None:
        pass


def checkpoint_key(population: int, specs: Sequence, config: dict) -> str:
    """Fingerprint of everything that determines a campaign's result —
    resuming under a different configuration must fail loudly, not
    silently merge incompatible partials."""
    payload = {
        "population": population,
        "services": [spec.slug for spec in specs],
        "config": config,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


_PARTIAL_NAME = re.compile(r"partial-[0-9]{12}\.cagg")


class CampaignCheckpoint:
    """Crash-safe checkpoint directory for resumable campaigns.

    Layout: ``partial-<next_user>.cagg`` (the merged prefix aggregate
    as a framed KIND_CAGG file) plus ``state.json`` naming the current
    partial, its digest, the next unprocessed user index, and the
    configuration key.  Both writes are atomic and ordered partial
    first, so a crash between them leaves ``state.json`` pointing at
    the previous fully-written partial — every on-disk state is
    consistent.  Stale partials are garbage-collected only after the
    state file has moved on.
    """

    STATE_FILE = "state.json"

    def __init__(self, directory, key: str, every: Optional[int] = None) -> None:
        self.directory = Path(directory)
        self.key = key
        self.every = (
            CHECKPOINT_EVERY_USERS if every is None else max(1, int(every))
        )
        self._last_saved = 0

    def load(self) -> Optional[tuple]:
        """``(next_user, merged)`` from the last checkpoint, or ``None``
        when the directory holds no state yet.

        Any other state ends in a :class:`CampaignError`: a
        ``state.json`` that is not an object of this configuration, a
        partial not named ``partial-<12 digits>.cagg`` (so never a path
        outside the directory), a partial that does not decode or match
        its digest, and a ``next_user`` other than the partial's user
        count (the merged prefix is ``[0, next_user)``).
        """
        from ..net import codec

        state_path = self.directory / self.STATE_FILE
        try:
            state = json.loads(state_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise CampaignError(
                f"unreadable campaign checkpoint {state_path}: {exc}"
            ) from exc
        if not isinstance(state, dict):
            raise CampaignError(f"checkpoint {state_path} is not a JSON object")
        if state.get("key") != self.key:
            raise CampaignError(
                f"checkpoint {state_path} was written by a different campaign "
                "configuration (population/seed/spec/services/cohorts mismatch)"
            )
        name = state.get("partial")
        if not isinstance(name, str) or not _PARTIAL_NAME.fullmatch(name):
            raise CampaignError(
                f"checkpoint {state_path} names no partial-<12 digits>.cagg "
                f"file: {name!r}"
            )
        partial_path = self.directory / name
        try:
            merged = codec.read_campaign(partial_path)
        except (OSError, codec.CodecError) as exc:
            raise CampaignError(
                f"unreadable checkpoint partial {partial_path}: {exc}"
            ) from exc
        if merged.digest() != state.get("digest"):
            raise CampaignError(
                f"checkpoint partial {partial_path} does not match the "
                f"recorded digest {state.get('digest')!r}"
            )
        next_user = state.get("next_user")
        if type(next_user) is not int or next_user != merged.users:
            raise CampaignError(
                f"checkpoint {state_path}: next_user {next_user!r} is not the "
                f"partial's {merged.users} users"
            )
        self._last_saved = next_user
        return next_user, merged

    def save(self, merged: CampaignAggregate, next_user: int) -> None:
        from ..net import codec

        self.directory.mkdir(parents=True, exist_ok=True)
        name = f"partial-{next_user:012d}.cagg"
        codec.write_campaign(self.directory / name, merged)
        atomic_write_json(
            self.directory / self.STATE_FILE,
            {
                "version": 1,
                "key": self.key,
                "next_user": next_user,
                "partial": name,
                "digest": merged.digest(),
            },
        )
        for stale in self.directory.glob("partial-*.cagg"):
            if stale.name != name:
                stale.unlink(missing_ok=True)
        self._last_saved = next_user

    def maybe_save(self, merged: CampaignAggregate, next_user: int) -> bool:
        if next_user - self._last_saved < self.every:
            return False
        self.save(merged, next_user)
        return True


class _ProgressLog:
    """Progress lines with a sliding-window rate and ETA appended.

    The prefix (``shard i/n`` on a fixed plan) and the
    ``done/population users simulated`` core are unchanged from the
    original single-line format; the rate/ETA ride behind a ``|`` so
    the line stays grep-stable for existing consumers.
    """

    def __init__(self, population: int, log, start: int = 0, window: int = 16) -> None:
        self.population = population
        self.log = log
        self._samples: deque = deque([(time.monotonic(), start)], maxlen=window)

    def update(self, prefix: str, done: int) -> None:
        if self.log is None:
            return
        now = time.monotonic()
        then, done_then = self._samples[0]
        self._samples.append((now, done))
        line = f"{prefix}: {done}/{self.population} users simulated"
        if now > then and done > done_then:
            rate = (done - done_then) / (now - then)
            eta = (self.population - done) / rate
            line += f" | {rate:.1f} users/s, ETA {eta:.0f}s"
        self.log(line)


def run_campaign(
    population: int,
    seed: int = 7,
    population_spec: Optional[PopulationSpec] = None,
    services: Optional[Sequence] = None,
    cohorts="os",
    shards: Optional[int] = None,
    executor=1,
    log=None,
    checkpoint_dir=None,
    resume: bool = False,
    checkpoint_every: Optional[int] = None,
    abort_after_users: Optional[int] = None,
) -> CampaignAggregate:
    """Simulate a population and return the merged campaign aggregate.

    ``executor`` is the :mod:`repro.par` executor or worker count (see
    :func:`~repro.par.resolve_executor`; one worker runs in-process);
    ``cohorts`` is a dimension list (``"os"``, ``"os,medium"``,
    ``"none"``, or a tuple).  Memory stays flat at any population size:
    partials stream back and fold immediately.

    The chunk plan follows from the arguments: an explicit ``shards``
    pins fixed :func:`plan_shards` geometry; otherwise a pool of more
    than one worker gets :class:`AdaptiveSharder` chunks, large enough
    that workers fold shard-sized work locally and ship one partial per
    chunk (O(chunks) coordinator merges instead of O(shards)); one
    worker folds the fixed default plan.  Every plan produces identical
    ``canonical_bytes`` (oracle-pinned).

    ``checkpoint_dir`` enables crash-safe periodic checkpoints (every
    ``checkpoint_every`` users) through :class:`CampaignCheckpoint`;
    ``resume=True`` continues from the directory's last consistent
    state.  Chunks always fold in submission order, so the merged
    aggregate covers the contiguous prefix ``[0, next_user)`` — that is
    what makes the (partial, next_user) pair a complete checkpoint.
    ``abort_after_users`` is a deterministic chaos hook that raises
    :class:`CampaignAborted` once that many users have folded.
    """
    from ..par import resolve_executor, tasks
    from ..services.catalog import build_catalog

    specs = list(services) if services is not None else build_catalog()
    spec = population_spec if population_spec is not None else PopulationSpec()
    dims = parse_cohort_dims(cohorts) if isinstance(cohorts, str) else tuple(cohorts)
    context = CampaignContext(spec, specs, seed, dims=dims)
    engine = resolve_executor(executor)
    if population < 1:
        raise CampaignError(f"population must be >= 1: {population}")

    merged = CampaignAggregate(context.seed, context.dims, spec.bootstrap_replicates)
    start_user = 0
    checkpointer = None
    if checkpoint_dir is not None:
        checkpointer = CampaignCheckpoint(
            checkpoint_dir,
            checkpoint_key(population, specs, context.config()),
            every=checkpoint_every,
        )
        if resume:
            loaded = checkpointer.load()
            if loaded is not None:
                start_user, merged = loaded
    elif resume:
        raise CampaignError("resume requires a checkpoint directory")

    if start_user >= population:
        return merged

    progress = _ProgressLog(population, log, start=start_user)
    abort_at = None if abort_after_users is None else start_user + abort_after_users

    def folded(done_users: int) -> None:
        if checkpointer is not None:
            checkpointer.maybe_save(merged, done_users)
        if abort_at is not None and done_users >= abort_at:
            raise CampaignAborted(
                f"campaign aborted after {done_users - start_user} user(s) "
                f"(abort_after_users={abort_after_users})"
            )

    with engine.pool(context) as pool:
        if shards is not None or pool.workers == 1:
            ranges = plan_shards(population - start_user, shards)
            planner = _FixedPlan(_offset_ranges(ranges, start_user))
            prefix = f"shard {{}}/{len(ranges)}"
        else:
            planner = AdaptiveSharder(population, pool.workers, start=start_user)
            prefix = "chunk {}"
        planned: deque = deque()

        def plan():
            for shard_range in iter(planner.next_range, None):
                planned.append(shard_range)
                yield shard_range

        window = max(2, pool.workers * 2)
        chunks = pool.imap(tasks.campaign_chunk, plan(), window=window)
        for index, (elapsed, partial) in enumerate(chunks):
            start, stop = planned.popleft()
            planner.observe(stop - start, elapsed)
            merged.merge(partial)
            progress.update(prefix.format(index + 1), stop)
            folded(stop)

    if checkpointer is not None:
        checkpointer.save(merged, population)
    return merged

