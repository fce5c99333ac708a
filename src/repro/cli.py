"""Command-line interface: ``repro <subcommand>``.

Subcommands
-----------
* ``dataset``     — regenerate and save the performance dataset.
* ``shapes``      — list the GEMM shapes extracted from the networks.
* ``experiments`` — run figure/table reproductions and print them.
* ``tune``        — run the full pipeline and export the selector source.
* ``pipeline``    — staged pipeline: ``run`` / ``status`` / ``gc`` against
  a content-addressed artifact store.
* ``fleet``       — multi-device fleet: ``build`` / ``route`` / ``stats``
  / ``devices`` over per-device selector artifacts and a routing layer.
* ``serve-stats`` — replay a serving workload, print service counters.
* ``loadgen``     — closed-loop load harness: ``run`` Poisson/diurnal
  traffic with Zipf-skewed network shapes against a replica fleet and
  report p50/p99/p999 from the obs histograms; ``--adaptive`` runs the
  drifted-workload scenario through adaptive services.
* ``adaptive``    — online adaptive selection: ``demo`` a deterministic
  drift replay (promotions/demotions timeline, gap closure, digest),
  ``stats`` the adaptive.* metrics of an obs snapshot.
* ``obs``         — render an observability snapshot: ``dump`` /
  ``summary`` over metrics + spans exported with ``--obs-export``.
* ``devices``     — list the simulated device presets.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["main"]


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        type=Path,
        default=None,
        help="path of a saved dataset (.npz); generated fresh when absent",
    )
    parser.add_argument(
        "--device",
        default="r9-nano",
        help="device preset (see `repro devices`)",
    )


def _load_or_generate(args):
    from repro.core.dataset import PerformanceDataset, generate_dataset
    from repro.sycl.device import Device

    if args.dataset is not None and Path(args.dataset).exists():
        return PerformanceDataset.load(args.dataset)
    return generate_dataset(device=Device.from_preset(args.device))


def _export_obs(path: Path, registry, tracer=None) -> None:
    """Write a ``repro.obs`` JSON document for ``repro obs`` to read back."""
    import json

    from repro.obs import obs_doc

    doc = obs_doc(registry, tracer)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    print(f"obs snapshot written to {path}")


def _cmd_dataset(args) -> int:
    dataset = _load_or_generate(args)
    print(dataset)
    if args.out is not None:
        path = dataset.save(args.out)
        print(f"saved to {path}")
    return 0


def _cmd_shapes(args) -> int:
    from repro.workloads.extract import extract_network_shapes

    shape_set = extract_network_shapes(args.network)
    print(f"{shape_set.network}: {len(shape_set)} unique GEMM shapes")
    for shape in shape_set.shapes:
        provenance = shape_set.provenance(shape)
        layers = ", ".join(
            f"{lg.layer}/{lg.transform}@b{lg.image_batch}" for lg in provenance[:3]
        )
        more = "" if len(provenance) <= 3 else f" (+{len(provenance) - 3} more)"
        print(f"  {str(shape):24s} <- {layers}{more}")
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments import (
        run_all,
        run_fig1,
        run_fig2,
        run_fig3,
        run_fig4,
        run_table1,
    )

    if args.which == "sparse":
        from repro.experiments.sparse import run_sparse_generalization

        print(run_sparse_generalization().render())
        return 0
    if args.which == "placement":
        from repro.experiments.placement import run_placement_flip

        print(run_placement_flip().render())
        return 0
    dataset = _load_or_generate(args)
    from repro.experiments.tradeoff import run_tradeoff
    from repro.experiments.variance import run_variance

    runners = {
        "1": run_fig1,
        "2": run_fig2,
        "3": run_fig3,
        # EXPERIMENTS.md's Fig 4 table is the mean over three splits.
        "4": lambda d: run_fig4(d, split_seeds=(0, 1, 2)),
        "table1": run_table1,
        "tradeoff": run_tradeoff,
        "variance": run_variance,
    }
    if args.which == "all":
        print(run_all(dataset).render())
    else:
        print(runners[args.which](dataset).render())
    return 0


def _cmd_placement(args) -> int:
    import json

    from repro.experiments.placement import run_placement_flip

    result = run_placement_flip(
        budget=args.budget,
        shape_stride=args.stride,
        split_seed=args.seed,
        random_state=args.seed,
    )
    print(result.render())
    if args.report_json is not None:
        args.report_json.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True)
        )
        print(f"report written to {args.report_json}")
    failures = []
    if result.flip_fraction < args.min_flip_fraction:
        failures.append(
            f"flip fraction {result.flip_fraction:.2f} < "
            f"required {args.min_flip_fraction:.2f}"
        )
    if result.margin < args.min_margin:
        failures.append(
            f"mixed-traffic margin {result.margin * 100:+.1f}pts < "
            f"required {args.min_margin * 100:+.1f}pts"
        )
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}")
        return 1
    print("placement gates passed")
    return 0


def _cmd_tune(args) -> int:
    from repro.core.deploy import tune

    dataset = _load_or_generate(args)
    train, test = dataset.split(test_size=0.2, random_state=args.seed)
    deployed = tune(
        train,
        n_configs=args.budget,
        classifier=args.classifier,
        random_state=args.seed,
    )
    print(deployed)
    from repro.core.selection.evaluate import evaluate_selector

    evaluation = evaluate_selector(deployed.selector, test)
    print(
        f"test score: {evaluation.score * 100:.2f}% of optimal "
        f"(ceiling {evaluation.ceiling * 100:.2f}%)"
    )
    if args.export == "py":
        print(deployed.export_python())
    elif args.export == "cpp":
        print(deployed.export_cpp())
    return 0


def _build_pipeline_config(args):
    from repro.pipeline import PaperPipelineConfig

    kwargs = {
        "device_preset": args.device,
        "split_seed": args.split_seed,
        "test_size": args.test_size,
        "pruner": args.pruner,
        "budget": args.budget,
        "classifier": args.classifier,
        "random_state": args.seed,
    }
    if args.networks:
        kwargs["networks"] = tuple(args.networks)
    return PaperPipelineConfig(**kwargs)


def _cmd_pipeline(args) -> int:
    from repro.pipeline import ArtifactStore
    from repro.pipeline.paper import paper_params, paper_pipeline

    store = ArtifactStore(args.store)
    config = _build_pipeline_config(args)
    pipeline = paper_pipeline()

    if args.action == "run":
        from repro.obs import Tracer, default_registry
        from repro.pipeline import PipelineExecutor

        registry = default_registry()
        tracer = Tracer()
        executor = PipelineExecutor(store, registry=registry, tracer=tracer)
        run = executor.run(pipeline, paper_params(config), force=args.force)
        print(run.stats.render())
        if args.obs_export is not None:
            _export_obs(args.obs_export, registry, tracer)
        print()
        for name in ("dataset", "train", "eval"):
            print(f"{name:8s} -> {run.artifacts[name].artifact_id}")
        if args.render:
            from repro.experiments.run_all import AllResults

            print()
            print(
                AllResults(
                    dataset=run.value("dataset"),
                    fig1=run.value("fig1"),
                    fig2=run.value("fig2"),
                    fig3=run.value("fig3"),
                    fig4=run.value("fig4"),
                    table1=run.value("table1"),
                ).render()
            )
        if args.assert_all_cached and not run.stats.all_cached:
            print(
                "ERROR: expected a fully cached run but these stages "
                f"executed: {', '.join(run.stats.executed_stages)}",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.action == "status":
        manifests = store.ls()
        if not manifests:
            print(f"store {store.root}: empty")
            return 0
        print(f"store {store.root}: {len(manifests)} artifacts")
        for p in manifests:
            size_kb = store.size_bytes(p.fingerprint) / 1024
            print(
                f"  {p.stage:10s} {p.fingerprint[:12]}  "
                f"{size_kb:9.1f} KiB  {p.runtime_s * 1e3:8.1f}ms"
                f"{'  (failures: %d)' % len(p.failures) if p.failures else ''}"
            )
        return 0

    if args.action == "gc":
        keep = (
            set()
            if args.all
            else set(pipeline.fingerprints(paper_params(config)).values())
        )
        removed = store.gc(keep)
        print(
            f"removed {len(removed)} artifacts, kept "
            f"{sum(1 for _ in store.fingerprints())}"
        )
        return 0

    raise ValueError(f"unknown pipeline action {args.action!r}")


def _cmd_serve_stats(args) -> int:
    import numpy as np

    from repro.obs import default_registry
    from repro.serving import SelectionService

    registry = default_registry()
    service = None
    if args.store is not None:
        from repro.pipeline import ArtifactStore

        store = ArtifactStore(args.store)
        artifact_id = args.artifact
        if artifact_id is None:
            latest = store.latest("train")
            if latest is None:
                print(
                    f"no trained selector artifact in {store.root}; "
                    "run `repro pipeline run` first",
                    file=sys.stderr,
                )
                return 1
            artifact_id = latest.fingerprint
        service = SelectionService.from_artifact(
            store,
            artifact_id,
            capacity=args.cache_capacity,
            registry=registry,
            name="serve",
        )

    dataset = _load_or_generate(args)
    train, test = dataset.split(test_size=0.2, random_state=args.seed)
    if service is None:
        from repro.core.deploy import tune

        deployed = tune(
            train,
            n_configs=args.budget,
            classifier=args.classifier,
            random_state=args.seed,
        )
        service = SelectionService(
            deployed,
            capacity=args.cache_capacity,
            registry=registry,
            name="serve",
        )

    # Production-style traffic: a skewed distribution over the test
    # shapes (a few hot shapes dominate, a long tail of rare ones).
    rng = np.random.default_rng(args.seed)
    shapes = list(test.shapes)
    weights = 1.0 / np.arange(1, len(shapes) + 1)
    weights /= weights.sum()
    picks = rng.choice(len(shapes), size=args.requests, p=weights)
    for start in range(0, args.requests, args.batch_size):
        batch = [shapes[i] for i in picks[start : start + args.batch_size]]
        service.select_batch(batch)

    print(f"served {args.requests} requests in batches of {args.batch_size}")
    print(service.stats().render())
    if args.obs_export is not None:
        _export_obs(args.obs_export, registry)
    return 0


def _loadgen_config(args):
    from repro.loadgen import DEFAULT_NETWORKS, LoadgenConfig, RateProfile

    return LoadgenConfig(
        profile=RateProfile(
            base_qps=args.qps,
            amplitude=args.diurnal_amplitude,
            period_s=args.diurnal_period,
        ),
        duration_s=args.duration,
        workers=args.workers,
        networks=tuple(args.networks) if args.networks else DEFAULT_NETWORKS,
        zipf_skew=args.zipf,
        seed=args.seed,
        pace=not args.no_pace,
    )


def _loadgen_config_doc(args) -> dict:
    """The run configuration embedded in ``--report-json`` meta."""
    doc = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command", "action"):
            continue
        doc[key] = str(value) if isinstance(value, Path) else value
    return doc


def _resolve_selector_artifact(args, store):
    """The train-stage artifact id from --artifact, or the latest."""
    artifact_id = args.artifact
    if artifact_id is None:
        latest = store.latest("train")
        if latest is None:
            print(
                f"no trained selector artifact in {store.root}; "
                "run `repro pipeline run` first",
                file=sys.stderr,
            )
            return None
        artifact_id = latest.fingerprint
    return artifact_id


def _cmd_loadgen(args) -> int:
    import json

    from repro.loadgen import report_document, run_load, synthetic_fleet
    from repro.obs import default_registry

    registry = default_registry()
    if args.adaptive and args.store is not None:
        print(
            "ERROR: --adaptive runs the drifted synthetic-fleet scenario; "
            "drop --store",
            file=sys.stderr,
        )
        return 1
    router = None
    if args.adaptive:
        pass  # run_drift_load builds its own adaptive fleet
    elif args.store is not None:
        from repro.pipeline import ArtifactStore
        from repro.serving import SelectionService
        from repro.serving.router import FleetRouter

        store = ArtifactStore(args.store)
        artifact_id = _resolve_selector_artifact(args, store)
        if artifact_id is None:
            return 1
        try:
            artifact = store.resolve(artifact_id)
        except KeyError as exc:
            print(f"ERROR: {exc.args[0]}", file=sys.stderr)
            return 1
        if artifact is None:
            print(f"ERROR: no artifact {artifact_id!r}", file=sys.stderr)
            return 1
        policy = artifact.value
        if not hasattr(policy, "compiled"):
            print(
                f"ERROR: artifact policy {type(policy).__name__} has no "
                "compiled() hot path (need a DeployedSelector)",
                file=sys.stderr,
            )
            return 1
        policy = policy.compiled()
        router = FleetRouter(default_policy=args.policy, registry=registry)
        for i in range(args.replicas):
            router.add_device(
                f"dev{i}",
                SelectionService(
                    policy,
                    capacity=args.cache_capacity,
                    registry=registry,
                    name=f"dev{i}",
                    provenance=artifact.provenance,
                ),
            )
    else:
        router = synthetic_fleet(
            replicas=args.replicas,
            registry=registry,
            routing_policy=args.policy,
            cache_capacity=args.cache_capacity,
            budget=args.budget,
            seed=args.seed,
        ).router

    config = _loadgen_config(args)
    if args.adaptive:
        from repro.loadgen.drift import (
            DriftSpec,
            drift_adaptive_config,
            run_drift_load,
        )

        report = run_drift_load(
            config,
            spec=DriftSpec(
                at=args.drift_at,
                factor=args.drift_factor,
                noise_sigma=args.drift_noise,
                seed=args.seed,
            ),
            adaptive=drift_adaptive_config(
                args.seed, trial_fraction=args.trial_fraction
            ),
            replicas=args.replicas,
            budget=args.budget,
            registry=registry,
        )
    else:
        report = run_load(router, config, registry=registry)
    policy_name = "adaptive drift" if args.adaptive else "compiled"
    print(
        f"loadgen: {args.replicas} replicas "
        f"({policy_name} policy), "
        f"{config.workers} workers, zipf {config.zipf_skew}"
    )
    print(report.render())
    if args.report_json is not None:
        args.report_json.write_text(
            json.dumps(
                report_document(
                    report,
                    config=_loadgen_config_doc(args),
                    command="repro loadgen run",
                ),
                indent=2,
                sort_keys=True,
            )
        )
        print(f"report written to {args.report_json}")
    if args.obs_export is not None:
        _export_obs(args.obs_export, registry)
    if args.min_qps is not None and report.achieved_qps < args.min_qps:
        print(
            f"ERROR: achieved {report.achieved_qps:,.0f} qps, below the "
            f"--min-qps floor of {args.min_qps:,.0f}",
            file=sys.stderr,
        )
        return 1
    if args.min_gap_closure is not None:
        if report.drift is None:
            print(
                "ERROR: --min-gap-closure needs a drift report; "
                "run with --adaptive",
                file=sys.stderr,
            )
            return 1
        if report.drift.gap_closure < args.min_gap_closure:
            print(
                f"ERROR: closed {report.drift.gap_closure:.1%} of the "
                f"static-to-oracle gap, below the --min-gap-closure floor "
                f"of {args.min_gap_closure:.1%}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_adaptive(args) -> int:
    if args.action == "stats":
        import json

        from repro.obs import render_dump

        if args.snapshot is None:
            print(
                "ERROR: adaptive stats reads a snapshot; pass --snapshot "
                "PATH (export one with `repro loadgen run --adaptive "
                "--obs-export PATH` or `repro adaptive demo --obs-export "
                "PATH`)",
                file=sys.stderr,
            )
            return 1
        try:
            doc = json.loads(Path(args.snapshot).read_text())
        except FileNotFoundError:
            print(f"no obs snapshot at {args.snapshot}", file=sys.stderr)
            return 1
        metrics = doc.get("metrics", {})
        filtered = {
            kind: [
                entry
                for entry in metrics.get(kind, [])
                if str(entry.get("name", "")).startswith("adaptive.")
            ]
            for kind in ("counters", "gauges", "histograms")
        }
        if not any(filtered.values()):
            print("no adaptive.* metrics in the snapshot", file=sys.stderr)
            return 1
        print(render_dump({**doc, "metrics": filtered, "spans": []}))
        return 0

    from repro.loadgen.drift import (
        DriftSpec,
        drift_adaptive_config,
        replay_drift,
    )
    from repro.obs import default_registry

    registry = default_registry()
    spec = DriftSpec(
        at=args.drift_at,
        factor=args.drift_factor,
        noise_sigma=args.drift_noise,
        seed=args.seed,
    )
    adaptive = drift_adaptive_config(
        args.seed, trial_fraction=args.trial_fraction
    )
    report = replay_drift(
        steps=args.steps,
        spec=spec,
        adaptive=adaptive,
        seed=args.seed,
        pool_size=args.pool_size,
        registry=registry,
    )
    digest = report.result.digest()
    print(
        f"adaptive drift demo: {args.steps} steps over "
        f"{args.pool_size} shapes, seed {args.seed}"
    )
    print(report.render())
    print(report.service.adaptive_stats().render())
    events = report.result.events
    shown = events[: args.max_events]
    if shown:
        print(f"events ({len(shown)}/{len(events)} shown):")
        for event in shown:
            print(f"  {event.describe()}")
    print(f"trace digest: {digest}")
    if args.verify_replay:
        second = replay_drift(
            steps=args.steps,
            spec=spec,
            adaptive=adaptive,
            seed=args.seed,
            pool_size=args.pool_size,
        )
        if second.result.digest() != digest:
            print(
                "ERROR: replay digests diverge — the adaptive run is "
                "not deterministic",
                file=sys.stderr,
            )
            return 1
        print("replay verified: second run reproduced the trace bit-identically")
    if args.obs_export is not None:
        _export_obs(args.obs_export, registry)
    return 0


def _build_fleet_config(args):
    from repro.bench.runner import RunnerConfig
    from repro.fleet import FleetPipelineConfig

    kwargs = {
        "runner": RunnerConfig(seed=args.seed),
        "split_seed": args.split_seed,
        "test_size": args.test_size,
        "pruner": args.pruner,
        "budget": args.budget,
        "classifier": args.classifier,
        "random_state": args.seed,
    }
    if args.device_ids:
        kwargs["device_ids"] = tuple(args.device_ids)
    if args.networks:
        kwargs["networks"] = tuple(args.networks)
    return FleetPipelineConfig(**kwargs)


def _plain_dict(value):
    """A dataclass as a JSON-friendly dict (enums to their values)."""
    import dataclasses
    import enum

    out = {}
    for f in dataclasses.fields(value):
        v = getattr(value, f.name)
        out[f.name] = v.value if isinstance(v, enum.Enum) else v
    return out


def _cmd_fleet(args) -> int:
    if args.action == "devices":
        from repro.fleet import available_profiles, get_profile

        if getattr(args, "as_json", False):
            import json

            from repro.fleet import FLEET_STAGES, fleet_fingerprints, stage_name
            from repro.onboard import OnboardBudget
            from repro.onboard.impute import device_features

            config = _build_fleet_config(args)
            fleet_ids = {p.device_id for p in config.profiles()}
            fingerprints = fleet_fingerprints(config)
            doc = []
            for device_id in available_profiles():
                profile = get_profile(device_id)
                entry = {
                    "device_id": device_id,
                    "description": profile.description,
                    "spec": _plain_dict(profile.spec),
                    "model_params": _plain_dict(profile.model_params),
                    "onboard_features": [
                        float(x) for x in device_features(profile.spec)
                    ],
                    "default_onboard_budget": _plain_dict(OnboardBudget()),
                }
                if device_id in fleet_ids:
                    entry["fingerprints"] = {
                        stage: fingerprints[stage_name(stage, device_id)]
                        for stage in FLEET_STAGES
                    }
                doc.append(entry)
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0

        for device_id in available_profiles():
            profile = get_profile(device_id)
            spec = profile.spec
            print(
                f"{device_id:16s} {spec.compute_units:3d} CU  "
                f"{spec.peak_gflops:8.0f} GF  "
                f"{spec.dram_bandwidth_gbps:6.1f} GB/s  "
                f"{spec.kernel_launch_overhead_us:5.1f} us launch"
                f"{'  -- ' + profile.description if profile.description else ''}"
            )
        return 0

    from repro.fleet import (
        FLEET_STAGES,
        fleet_fingerprints,
        run_fleet_pipeline,
        stage_name,
    )
    from repro.pipeline import ArtifactStore

    store = ArtifactStore(args.store)
    config = _build_fleet_config(args)
    device_ids = [p.device_id for p in config.profiles()]

    if args.action == "build":
        run = run_fleet_pipeline(store, config, force=args.force)
        print(run.stats.render())
        print()
        for device_id in device_ids:
            artifact = run.artifact("train", device_id)
            print(f"{stage_name('train', device_id):24s} -> {artifact.artifact_id}")
        if args.assert_all_cached and not run.stats.all_cached:
            print(
                "ERROR: expected a fully cached fleet build but these stages "
                f"executed: {', '.join(run.stats.executed_stages)}",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.action == "stats":
        fingerprints = fleet_fingerprints(config)
        missing = 0
        for device_id in device_ids:
            print(f"{device_id}:")
            for stage in FLEET_STAGES:
                name = stage_name(stage, device_id)
                fingerprint = fingerprints[name]
                cached = fingerprint in store
                missing += not cached
                status = "cached " if cached else "MISSING"
                print(f"  {stage:8s} {status} {fingerprint[:12]}")
        if missing:
            print(
                f"\n{missing} stage artifacts missing; "
                "run `repro fleet build` to materialise them"
            )
        return 0

    if args.action == "route":
        from collections import Counter

        import numpy as np

        from repro.fleet import router_from_store
        from repro.obs import Tracer, default_registry

        registry = default_registry()
        tracer = Tracer()
        policy_wrapper = None
        if args.kill:
            unknown_kills = set(args.kill) - set(device_ids)
            if unknown_kills:
                print(
                    f"ERROR: --kill names unknown devices "
                    f"{sorted(unknown_kills)}; fleet: {device_ids}",
                    file=sys.stderr,
                )
                return 1
            from repro.testing import FaultPlan, FaultyPolicy

            plan = FaultPlan()
            for device_id in args.kill:
                plan.kill_device(device_id)

            def policy_wrapper(device_id, policy):
                return FaultyPolicy(policy, plan, device_id=device_id)

        try:
            router = router_from_store(
                store,
                config,
                default_policy=args.policy,
                registry=registry,
                tracer=tracer,
                policy_wrapper=policy_wrapper,
            )
        except KeyError as exc:
            print(f"ERROR: {exc.args[0]}", file=sys.stderr)
            return 1
        # Mixed fleet traffic: shapes drawn (skewed) from each device's
        # shipped library's training networks; half the requests target a
        # specific device, half are device-agnostic.
        from repro.workloads.extract import extract_network_shapes

        shapes = []
        for network in config.networks:
            shapes.extend(extract_network_shapes(network).shapes)
        rng = np.random.default_rng(args.seed)
        weights = 1.0 / np.arange(1, len(shapes) + 1)
        weights /= weights.sum()
        picks = rng.choice(len(shapes), size=args.requests, p=weights)
        targets = rng.choice([None, *device_ids], size=args.requests)
        for start in range(0, args.requests, args.batch_size):
            chunk = slice(start, start + args.batch_size)
            agnostic = []
            decisions = []
            for i, target in zip(picks[chunk], targets[chunk]):
                if target is None:
                    agnostic.append(shapes[i])
                else:
                    decisions.append(
                        router.select(shapes[i], device_id=target)
                    )
            if agnostic:
                decisions.extend(router.select_batch(agnostic))
            # Retire exactly what each device was dispatched this batch,
            # so the least-outstanding policy sees true in-flight load.
            served = Counter(d.device_id for d in decisions)
            for device_id, n in served.items():
                router.complete(device_id, n=n)
        print(
            f"routed {args.requests} requests "
            f"(batches of {args.batch_size}, policy {args.policy})"
        )
        if args.kill:
            print(f"killed devices: {', '.join(args.kill)}")
        print(router.stats().render())
        if args.obs_export is not None:
            _export_obs(args.obs_export, registry, tracer)
        return 0

    raise ValueError(f"unknown fleet action {args.action!r}")


def _build_onboard_config(args, **budget_overrides):
    from repro.onboard import OnboardBudget, OnboardPipelineConfig

    budget_kwargs = {
        "fraction": args.budget_fraction,
        "sampler": args.sampler,
        "seed": args.onboard_seed,
        "rounds": args.rounds,
        "n_trees": args.trees,
    }
    budget_kwargs.update(budget_overrides)
    return OnboardPipelineConfig(
        target=args.target,
        budget=OnboardBudget(**budget_kwargs),
        sources=tuple(args.sources) if args.sources else None,
        fleet=_build_fleet_config(args),
    )


def _onboard_doc(report, config, command):
    from repro.loadgen import report_document

    return report_document(
        report,
        config={
            "target": config.target,
            "sources": list(config.source_ids()),
            "budget": _plain_dict(config.budget),
        },
        command=command,
    )


def _cmd_onboard(args) -> int:
    import json

    from repro.onboard import onboard_fingerprints, run_onboard_pipeline
    from repro.pipeline import ArtifactStore

    store = ArtifactStore(args.store)

    if args.action == "run":
        config = _build_onboard_config(args)
        run = run_onboard_pipeline(store, config, force=args.force)
        report = run.report()
        print(run.stats.render())
        print()
        print(report.render())
        if args.report_json is not None:
            doc = _onboard_doc(report, config, "repro onboard run")
            Path(args.report_json).write_text(json.dumps(doc, indent=2))
            print(f"\nreport JSON written to {args.report_json}")
        if args.assert_all_cached and not run.stats.all_cached:
            print(
                "ERROR: expected a fully cached onboarding run but these "
                f"stages executed: {', '.join(run.stats.executed_stages)}",
                file=sys.stderr,
            )
            return 1
        if args.assert_sources_cached:
            spilled = [
                name
                for name in run.stats.executed_stages
                if not name.startswith("onboard-")
            ]
            if spilled:
                print(
                    "ERROR: a budget change must re-run only onboard-* "
                    f"stages, but these executed too: {', '.join(spilled)}",
                    file=sys.stderr,
                )
                return 1
        if args.min_quality is not None and report.quality < args.min_quality:
            print(
                f"ERROR: onboard quality {report.quality:.3f} below the "
                f"--min-quality gate {args.min_quality:.3f}",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.action == "report":
        from repro.fleet import stage_name

        config = _build_onboard_config(args)
        fingerprint = onboard_fingerprints(config)[
            stage_name("onboard-report", config.target)
        ]
        artifact = store.get(fingerprint)
        if artifact is None:
            print(
                f"no onboard report for {config.target!r} under this budget "
                f"(fingerprint {fingerprint[:12]}); build it with "
                "`repro onboard run`",
                file=sys.stderr,
            )
            return 1
        report = artifact.value
        print(report.render())
        if args.report_json is not None:
            doc = _onboard_doc(report, config, "repro onboard report")
            Path(args.report_json).write_text(json.dumps(doc, indent=2))
        return 0

    if args.action == "compare":
        rows = []
        for sampler in args.samplers:
            for fraction in args.fractions:
                config = _build_onboard_config(
                    args, sampler=sampler, fraction=fraction
                )
                run = run_onboard_pipeline(store, config, force=args.force)
                rows.append((sampler, fraction, config, run.report()))
        print(
            f"{'sampler':12s} {'budget':>7s} {'cells':>12s} "
            f"{'onboard':>8s} {'full':>8s} {'quality':>8s} {'agree':>7s}"
        )
        for sampler, fraction, config, report in rows:
            print(
                f"{sampler:12s} {fraction:6.1%} "
                f"{report.cells_attempted:5d}/{report.total_cells:<6d} "
                f"{report.onboard_score:8.4f} {report.full_score:8.4f} "
                f"{report.quality:7.1%} {report.top1_agreement:6.1%}"
            )
        if args.report_json is not None:
            curve = {
                "target": args.target,
                "curve": [
                    {
                        "sampler": sampler,
                        "fraction": fraction,
                        **report.to_dict(),
                    }
                    for sampler, fraction, _, report in rows
                ],
            }
            doc = _onboard_doc(rows[-1][3], rows[-1][2], "repro onboard compare")
            doc["compare"] = curve
            Path(args.report_json).write_text(json.dumps(doc, indent=2))
            print(f"\nreport JSON written to {args.report_json}")
        failures = []
        if args.min_quality is not None:
            gated = [
                r
                for s, f, _, r in rows
                if s == args.gate_sampler and abs(f - args.gate_fraction) < 1e-9
            ]
            if not gated:
                failures.append(
                    f"--min-quality gate needs sampler {args.gate_sampler!r} "
                    f"at fraction {args.gate_fraction} in the sweep"
                )
            elif gated[0].quality < args.min_quality:
                failures.append(
                    f"{args.gate_sampler} quality {gated[0].quality:.3f} at "
                    f"{args.gate_fraction:.0%} budget below the gate "
                    f"{args.min_quality:.3f}"
                )
        if args.require_active_beats_random:
            by_sampler = {}
            for sampler, fraction, _, report in rows:
                if abs(fraction - args.gate_fraction) < 1e-9:
                    by_sampler[sampler] = report.quality
            if "active" not in by_sampler or "random" not in by_sampler:
                failures.append(
                    "--require-active-beats-random needs both samplers at "
                    f"the gate fraction {args.gate_fraction}"
                )
            elif by_sampler["active"] <= by_sampler["random"]:
                failures.append(
                    f"active quality {by_sampler['active']:.3f} does not "
                    f"beat random {by_sampler['random']:.3f} at "
                    f"{args.gate_fraction:.0%} budget"
                )
        for failure in failures:
            print(f"ERROR: {failure}", file=sys.stderr)
        return 1 if failures else 0

    raise ValueError(f"unknown onboard action {args.action!r}")


def _cmd_obs(args) -> int:
    import json

    from repro.obs import default_registry, obs_doc, render_dump, render_summary

    if args.snapshot is not None:
        try:
            doc = json.loads(Path(args.snapshot).read_text())
        except FileNotFoundError:
            print(
                f"no obs snapshot at {args.snapshot}; export one with "
                "`repro fleet route --obs-export PATH` (or serve-stats / "
                "pipeline run)",
                file=sys.stderr,
            )
            return 1
    else:
        # In-process registry: only useful right after a command in the
        # same interpreter; the snapshot path is the normal workflow.
        doc = obs_doc(default_registry())
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    try:
        render = render_dump if args.action == "dump" else render_summary
        print(render(doc))
    except ValueError as exc:
        print(f"ERROR: {exc.args[0]}", file=sys.stderr)
        return 1
    return 0


def _cmd_devices(args) -> int:
    from repro.sycl.device import Device

    for key in Device.available_presets():
        spec = Device.from_preset(key).spec
        print(
            f"{key:22s} {spec.name:44s} "
            f"{spec.peak_gflops:8.0f} GF  {spec.dram_bandwidth_gbps:6.1f} GB/s"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Towards automated kernel selection in machine "
            "learning systems: A SYCL case study' (Lawson, 2020)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset", help="generate/save the performance dataset")
    _add_dataset_args(p)
    p.add_argument("--out", type=Path, default=None, help="save location (.npz)")
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("shapes", help="list extracted GEMM shapes")
    p.add_argument(
        "--network",
        default="vgg16",
        choices=("vgg16", "resnet50", "mobilenet_v2", "transformer"),
    )
    p.set_defaults(func=_cmd_shapes)

    p = sub.add_parser("experiments", help="reproduce figures and tables")
    _add_dataset_args(p)
    p.add_argument(
        "--which",
        default="all",
        choices=(
            "1", "2", "3", "4", "table1", "tradeoff", "variance", "sparse",
            "placement", "all",
        ),
        help="which figure/table (or extension experiment) to run",
    )
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser(
        "placement",
        help="transfer-aware placement-flip experiment with CI gates",
    )
    p.add_argument("action", choices=("run",))
    p.add_argument("--budget", type=int, default=8)
    p.add_argument("--stride", type=int, default=3, help="shape subsampling stride")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--min-flip-fraction",
        type=float,
        default=0.1,
        help="fail unless at least this fraction of base shapes flip",
    )
    p.add_argument(
        "--min-margin",
        type=float,
        default=0.02,
        help=(
            "fail unless the placement-aware selector beats the blind one "
            "by this geomean margin on mixed traffic"
        ),
    )
    p.add_argument(
        "--report-json",
        type=Path,
        default=None,
        help="write the result dict as JSON (the CI artifact)",
    )
    p.set_defaults(func=_cmd_placement)

    p = sub.add_parser("tune", help="run the pipeline, export the selector")
    _add_dataset_args(p)
    p.add_argument("--budget", type=int, default=8)
    p.add_argument("--classifier", default="DecisionTree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--export", choices=("none", "py", "cpp"), default="none")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "pipeline",
        help="staged pipeline over the content-addressed artifact store",
    )
    p.add_argument("action", choices=("run", "status", "gc"))
    p.add_argument(
        "--store",
        type=Path,
        default=Path(".repro-store"),
        help="artifact store root directory",
    )
    p.add_argument("--device", default="r9-nano")
    p.add_argument(
        "--networks",
        nargs="*",
        default=None,
        metavar="NET",
        help="restrict the sweep to these networks (default: all three)",
    )
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--test-size", type=float, default=0.2)
    p.add_argument("--pruner", default="decision tree")
    p.add_argument("--budget", type=int, default=8)
    p.add_argument("--classifier", default="DecisionTree")
    p.add_argument("--seed", type=int, default=0, help="random_state")
    p.add_argument(
        "--force", action="store_true", help="re-run all stages (run)"
    )
    p.add_argument(
        "--render", action="store_true", help="print the full report (run)"
    )
    p.add_argument(
        "--assert-all-cached",
        action="store_true",
        help="exit 1 unless every stage was a cache hit (run; CI guard)",
    )
    p.add_argument(
        "--all", action="store_true", help="gc: delete every artifact"
    )
    p.add_argument(
        "--obs-export",
        type=Path,
        default=None,
        metavar="PATH",
        help="run: write a repro.obs JSON snapshot (see `repro obs`)",
    )
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser(
        "fleet",
        help="multi-device fleet: per-device selector artifacts + routing",
    )
    p.add_argument("action", choices=("build", "route", "stats", "devices"))
    p.add_argument(
        "--store",
        type=Path,
        default=Path(".repro-store"),
        help="artifact store root directory (shared with `repro pipeline`)",
    )
    p.add_argument(
        "--device-ids",
        nargs="*",
        default=None,
        metavar="ID",
        help="fleet device profiles (default: the builtin four; "
        "see `repro fleet devices`)",
    )
    p.add_argument(
        "--networks",
        nargs="*",
        default=None,
        metavar="NET",
        help="restrict the sweep to these networks (default: all three)",
    )
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--test-size", type=float, default=0.2)
    p.add_argument("--pruner", default="decision tree")
    p.add_argument("--budget", type=int, default=8)
    p.add_argument("--classifier", default="DecisionTree")
    p.add_argument("--seed", type=int, default=0, help="random_state")
    p.add_argument(
        "--force", action="store_true", help="re-run all stages (build)"
    )
    p.add_argument(
        "--assert-all-cached",
        action="store_true",
        help="exit 1 unless every stage was a cache hit (build; CI guard)",
    )
    p.add_argument(
        "--policy",
        default="round-robin",
        choices=("round-robin", "least-outstanding", "perf-aware"),
        help="default routing policy for device-agnostic requests (route)",
    )
    p.add_argument(
        "--requests", type=int, default=10000, help="route: total queries"
    )
    p.add_argument(
        "--batch-size", type=int, default=256, help="route: queries per batch"
    )
    p.add_argument(
        "--kill",
        nargs="*",
        default=None,
        metavar="ID",
        help="route: inject faults into these devices' policies, forcing "
        "breaker trips and cross-device reroutes (demo/obs)",
    )
    p.add_argument(
        "--obs-export",
        type=Path,
        default=None,
        metavar="PATH",
        help="route: write a repro.obs JSON snapshot (see `repro obs`)",
    )
    p.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="devices: emit device features + branch fingerprints as JSON",
    )
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "onboard",
        help="budgeted device onboarding: partial sweep + cross-device "
        "imputation instead of a full table",
    )
    p.add_argument("action", choices=("run", "report", "compare"))
    p.add_argument(
        "--store",
        type=Path,
        default=Path(".repro-store"),
        help="artifact store root directory (shared with `repro fleet`)",
    )
    p.add_argument(
        "--target",
        required=True,
        metavar="ID",
        help="device to onboard (must have a fleet branch for comparison)",
    )
    p.add_argument(
        "--sources",
        nargs="*",
        default=None,
        metavar="ID",
        help="source devices the imputation model learns from "
        "(default: every other fleet device)",
    )
    p.add_argument(
        "--budget-fraction",
        type=float,
        default=0.10,
        help="share of the (shape x config) table to measure",
    )
    p.add_argument(
        "--sampler",
        default="active",
        choices=("random", "stratified", "active"),
        help="cell-picking strategy (run/report)",
    )
    p.add_argument(
        "--onboard-seed", type=int, default=0, help="sampler seed"
    )
    p.add_argument(
        "--rounds", type=int, default=4, help="active refinement rounds"
    )
    p.add_argument(
        "--trees", type=int, default=16, help="imputation forest size"
    )
    p.add_argument(
        "--fractions",
        nargs="*",
        type=float,
        default=(0.05, 0.10),
        metavar="F",
        help="compare: budget fractions to sweep",
    )
    p.add_argument(
        "--samplers",
        nargs="*",
        default=("random", "active"),
        metavar="S",
        help="compare: samplers to sweep",
    )
    p.add_argument(
        "--gate-sampler",
        default="active",
        help="compare: sampler the --min-quality gate applies to",
    )
    p.add_argument(
        "--gate-fraction",
        type=float,
        default=0.10,
        help="compare: fraction the quality/beats-random gates apply to",
    )
    p.add_argument(
        "--min-quality",
        type=float,
        default=None,
        help="exit 1 unless onboard quality (share of the full-sweep "
        "score) reaches this value (run/compare; CI gate)",
    )
    p.add_argument(
        "--require-active-beats-random",
        action="store_true",
        help="compare: exit 1 unless active quality beats random at the "
        "gate fraction (CI gate)",
    )
    p.add_argument(
        "--device-ids",
        nargs="*",
        default=None,
        metavar="ID",
        help="fleet device profiles (default: the builtin four)",
    )
    p.add_argument(
        "--networks",
        nargs="*",
        default=None,
        metavar="NET",
        help="restrict the sweep to these networks (default: all three)",
    )
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--test-size", type=float, default=0.2)
    p.add_argument("--pruner", default="decision tree")
    p.add_argument("--budget", type=int, default=8)
    p.add_argument("--classifier", default="DecisionTree")
    p.add_argument("--seed", type=int, default=0, help="random_state")
    p.add_argument(
        "--force", action="store_true", help="re-run all stages (run)"
    )
    p.add_argument(
        "--assert-all-cached",
        action="store_true",
        help="exit 1 unless every stage was a cache hit (run; CI guard)",
    )
    p.add_argument(
        "--assert-sources-cached",
        action="store_true",
        help="exit 1 if any non-onboard stage executed (run; proves a "
        "budget change re-runs exactly the onboard branch)",
    )
    p.add_argument(
        "--report-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the onboard report (plus meta) as JSON",
    )
    p.set_defaults(func=_cmd_onboard)

    p = sub.add_parser(
        "serve-stats",
        help="replay a serving workload, print SelectionService counters",
    )
    _add_dataset_args(p)
    p.add_argument("--budget", type=int, default=8)
    p.add_argument("--classifier", default="DecisionTree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--store",
        type=Path,
        default=None,
        help="serve a selector artifact from this pipeline store",
    )
    p.add_argument(
        "--artifact",
        default=None,
        help="artifact id/fingerprint prefix (default: latest train stage)",
    )
    p.add_argument(
        "--requests", type=int, default=10000, help="total shape queries"
    )
    p.add_argument(
        "--batch-size", type=int, default=256, help="queries per service call"
    )
    p.add_argument(
        "--cache-capacity", type=int, default=4096, help="LRU memo capacity"
    )
    p.add_argument(
        "--obs-export",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a repro.obs JSON snapshot (see `repro obs`)",
    )
    p.set_defaults(func=_cmd_serve_stats)

    p = sub.add_parser(
        "loadgen",
        help="closed-loop load harness against a replica selection fleet",
    )
    p.add_argument("action", choices=("run",))
    p.add_argument(
        "--qps", type=float, default=2000.0, help="base arrival rate"
    )
    p.add_argument(
        "--duration", type=float, default=5.0, help="scheduled run seconds"
    )
    p.add_argument(
        "--workers", type=int, default=4, help="generator threads"
    )
    p.add_argument(
        "--replicas", type=int, default=2, help="identical service replicas"
    )
    p.add_argument(
        "--diurnal-amplitude",
        type=float,
        default=0.0,
        help="relative rate swing in [0, 1); 0 disables the ramp",
    )
    p.add_argument(
        "--diurnal-period",
        type=float,
        default=60.0,
        help="seconds per diurnal cycle (trough at t=0)",
    )
    p.add_argument(
        "--zipf", type=float, default=1.1, help="hot-key skew (0 = uniform)"
    )
    p.add_argument(
        "--networks",
        nargs="*",
        default=None,
        metavar="NET",
        help="shape pool networks (default: vgg16 resnet50 mobilenet_v2)",
    )
    p.add_argument(
        "--policy",
        default="round-robin",
        choices=("round-robin", "least-outstanding"),
        help="routing policy across the replicas",
    )
    p.add_argument("--budget", type=int, default=4, help="pruned config count")
    p.add_argument(
        "--cache-capacity", type=int, default=4096, help="LRU memo capacity"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--store",
        type=Path,
        default=None,
        help="serve a selector artifact from this pipeline store "
        "(default: tune a synthetic selector in-process)",
    )
    p.add_argument(
        "--artifact",
        default=None,
        help="artifact id/fingerprint prefix (default: latest train stage)",
    )
    p.add_argument(
        "--adaptive",
        action="store_true",
        help="run the drifted-workload scenario through adaptive services",
    )
    p.add_argument(
        "--no-pace",
        action="store_true",
        help="skip inter-arrival sleeps (as-fast-as-possible replay)",
    )
    p.add_argument(
        "--drift-at",
        type=float,
        default=0.5,
        help="drift onset as a fraction of the scheduled duration",
    )
    p.add_argument(
        "--drift-factor",
        type=float,
        default=4.0,
        help="post-drift slowdown of the static policy's choice",
    )
    p.add_argument(
        "--drift-noise",
        type=float,
        default=0.05,
        help="lognormal sigma of the simulated latency noise",
    )
    p.add_argument(
        "--trial-fraction",
        type=float,
        default=0.125,
        help="fraction of admitted-shape feedback that arms a trial",
    )
    p.add_argument(
        "--min-qps",
        type=float,
        default=None,
        help="exit 1 if achieved throughput falls below this floor (CI gate)",
    )
    p.add_argument(
        "--min-gap-closure",
        type=float,
        default=None,
        help="exit 1 if adaptive serving closes less of the static-to-"
        "oracle gap than this fraction (CI gate; needs --adaptive)",
    )
    p.add_argument(
        "--report-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the load report as JSON (CI artifact)",
    )
    p.add_argument(
        "--obs-export",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a repro.obs JSON snapshot (see `repro obs`)",
    )
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "adaptive",
        help="online adaptive selection: drift demo + metric stats",
    )
    p.add_argument("action", choices=("demo", "stats"))
    p.add_argument(
        "--steps", type=int, default=3000, help="demo: replayed requests"
    )
    p.add_argument(
        "--pool-size",
        type=int,
        default=12,
        help="demo: distinct shapes in the Zipf pool",
    )
    p.add_argument(
        "--drift-at",
        type=float,
        default=0.5,
        help="drift onset as a fraction of the replayed steps",
    )
    p.add_argument(
        "--drift-factor",
        type=float,
        default=4.0,
        help="post-drift slowdown of the static policy's choice",
    )
    p.add_argument(
        "--drift-noise",
        type=float,
        default=0.05,
        help="lognormal sigma of the simulated latency noise",
    )
    p.add_argument(
        "--trial-fraction",
        type=float,
        default=0.125,
        help="fraction of admitted-shape feedback that arms a trial",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-events",
        type=int,
        default=20,
        help="demo: bandit events shown in the timeline",
    )
    p.add_argument(
        "--verify-replay",
        action="store_true",
        help="demo: replay twice and require bit-identical trace digests",
    )
    p.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        metavar="PATH",
        help="stats: obs JSON snapshot written by --obs-export",
    )
    p.add_argument(
        "--obs-export",
        type=Path,
        default=None,
        metavar="PATH",
        help="demo: write a repro.obs JSON snapshot (see `repro obs`)",
    )
    p.set_defaults(func=_cmd_adaptive)

    p = sub.add_parser(
        "obs",
        help="render an exported observability snapshot (metrics + spans)",
    )
    p.add_argument("action", choices=("dump", "summary"))
    p.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        metavar="PATH",
        help="JSON snapshot written by --obs-export "
        "(default: the in-process registry)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON document instead of rendering it",
    )
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser("devices", help="list simulated device presets")
    p.set_defaults(func=_cmd_devices)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
