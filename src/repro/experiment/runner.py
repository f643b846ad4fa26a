"""The experiment runner: §3.2's test procedure, automated.

For each (service, OS, medium) cell the runner follows the paper's steps
exactly: factory-fresh handset, sign in the tester persona (with a
pre-created per-service account), connect the VPN to the interception
proxy, install + launch the app (or open the platform browser in
private mode), interact for four simulated minutes using the shared
script, then close the VPN and uninstall.  The captured trace plus the
session's ground-truth PII become one :class:`SessionRecord`.
"""

from __future__ import annotations

import random
from typing import Optional

from ..collector import collector_held, session_boundary
from ..device.browser import Browser
from ..device.persona import Persona, generate_persona
from ..device.phone import ANDROID, IOS, Phone, PhoneSpec
from ..http.session import ClientSession
from ..net.trace import SessionMeta
from ..services.service import AppRuntime, ServiceSpec, WebRuntime
from ..services.world import World
from .dataset import APP, WEB, Dataset, SessionRecord
from .scripts import LOGIN, OPEN, InteractionScript, standard_script


class RunnerError(Exception):
    """Raised on invalid runner configuration."""


def _phone_spec(os_name: str) -> PhoneSpec:
    if os_name == ANDROID:
        return PhoneSpec.nexus5()
    if os_name == IOS:
        return PhoneSpec.iphone5()
    raise RunnerError(f"unknown OS {os_name!r}")


class ExperimentRunner:
    """Runs manual-test sessions against a built world."""

    def __init__(
        self,
        world: World,
        seed: int = 2016,
        persona: Optional[Persona] = None,
    ) -> None:
        """``persona`` overrides the seed-derived tester identity — the
        campaign engine passes each sampled user's own persona so the
        session's searchable PII belongs to that user."""
        self.world = world
        self.seed = seed
        self._base_persona = (
            persona if persona is not None else generate_persona(random.Random(seed))
        )
        self._accounts: dict = {}  # slug -> Persona

    def _rng(self, *parts) -> random.Random:
        # Hash-derived seeding: stable across processes (unlike hash()
        # of strings, which PYTHONHASHSEED randomizes).
        import hashlib

        text = ":".join([str(self.seed)] + [str(p) for p in parts])
        digest = hashlib.sha256(text.encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def account_for(self, spec: ServiceSpec) -> Persona:
        """The pre-created account shared by all sessions of a service."""
        account = self._accounts.get(spec.slug)
        if account is None:
            account = self._base_persona.fresh_account(spec.slug, self._rng(spec.slug, "acct"))
            self._accounts[spec.slug] = account
        return account

    # -- single session -----------------------------------------------------

    def run_session(
        self,
        spec: ServiceSpec,
        os_name: str,
        medium: str,
        duration: float = 240.0,
        script: Optional[InteractionScript] = None,
        phone_setup=None,
    ) -> SessionRecord:
        """Run one experiment cell and return its record.

        ``phone_setup`` is an optional callback invoked with the freshly
        provisioned :class:`Phone` before the session starts — used to
        install countermeasures (e.g. a tracker-blocking transport
        wrapper) or alter device state for ablations.
        """
        if os_name not in spec.oses:
            raise RunnerError(f"{spec.name} is not tested on {os_name}")
        if medium not in (APP, WEB):
            raise RunnerError(f"unknown medium {medium!r}")
        world = self.world
        rng = self._rng(spec.slug, os_name, medium)
        phone = Phone(_phone_spec(os_name), world.network, rng)
        phone.sign_in(self.account_for(spec))
        phone.background_sync = False  # methodology: sync disabled
        phone.connect_vpn(world.proxy)
        if phone_setup is not None:
            phone_setup(phone)

        if script is None:
            script = standard_script(spec, duration=duration)
        meta = SessionMeta(
            service=spec.slug,
            os_name=os_name,
            medium=medium,
            category=spec.category,
            duration=script.duration,
            device=phone.spec.model,
            session_id=f"{spec.slug}-{os_name}-{medium}",
        )
        world.proxy.start_capture(meta)
        try:
            if medium == APP:
                phone.install_app(spec.slug)
                runtime = AppRuntime(spec, phone, world.clock, rng)
            else:
                browser = Browser(phone)
                runtime = WebRuntime(spec, browser, world.clock, rng)
            self._drive(runtime, phone, script, medium)
            runtime.close()
        finally:
            trace = world.proxy.stop_capture()
            phone.disconnect_vpn()
            if medium == APP:
                phone.uninstall_app(spec.slug)

        return SessionRecord(
            service=spec.slug,
            os_name=os_name,
            medium=medium,
            trace=trace,
            ground_truth=phone.ground_truth(),
            duration=script.duration,
        )

    def _drive(self, runtime, phone: Phone, script: InteractionScript, medium: str) -> None:
        clock = self.world.clock
        deadline = clock.deadline(script.duration)
        ticks = 0
        for action in script.actions():
            if clock.expired(deadline):
                break
            if action == OPEN:
                if medium == APP:
                    runtime.launch()
                else:
                    runtime.open_site()
            elif action == LOGIN:
                runtime.login()
            else:
                runtime.perform_action(action)
            # Residual OS keepalive noise (filtered later, as in §3.2).
            ticks += 1
            if ticks % 4 == 0:
                phone.background_tick(
                    lambda transport: ClientSession(transport, now_fn=clock.now)
                )

    # -- full study ----------------------------------------------------------

    def run_service(
        self, spec: ServiceSpec, duration: float = 240.0, phone_setup=None
    ) -> list:
        """All cells for one service (app/web × each tested OS)."""
        return list(self.run_study([spec], duration=duration, phone_setup=phone_setup))

    def run_study(
        self,
        services: Optional[list] = None,
        duration: float = 240.0,
        phone_setup=None,
        mitigation=None,
    ) -> Dataset:
        """Run the full measurement campaign and return the dataset.

        ``phone_setup`` is forwarded to every :meth:`run_session` — a
        journaled run uses it to stage each device's ground truth into
        the live capture addon.

        ``mitigation`` turns the capture proxy into an inline mitigating
        proxy for the whole campaign: pass a
        :class:`~repro.mitigate.policy.MitigationPolicy` (an addon is
        built from it) or a prepared
        :class:`~repro.mitigate.plane.MitigationAddon`.  The addon is
        installed on the world proxy for the duration of the study and
        its ground-truth staging is chained in front of ``phone_setup``.
        With ``mitigation=None`` this method is byte-identical to the
        pre-mitigation runner.
        """
        specs = services if services is not None else self.world.services
        addon = None
        setup = phone_setup
        if mitigation is not None:
            if hasattr(mitigation, "rewrite_request"):
                addon = mitigation
            else:
                from ..mitigate.plane import MitigationAddon

                addon = MitigationAddon(mitigation, specs, seed=self.seed)
            if phone_setup is None:
                setup = addon.stage_phone
            else:
                def setup(phone):
                    addon.stage_phone(phone)
                    phone_setup(phone)

            self.world.proxy.add_addon(addon)
        dataset = Dataset()
        try:
            with collector_held():
                for spec in specs:
                    for os_name in spec.oses:
                        for medium in (APP, WEB):
                            record = self.run_session(
                                spec, os_name, medium, duration=duration, phone_setup=setup
                            )
                            dataset.add(record)
                            session_boundary()
        finally:
            if addon is not None:
                self.world.proxy.remove_addon(addon)
        return dataset
