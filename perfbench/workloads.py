"""The benchmark's three workloads and the checks on their outputs.

Every call into the package goes through an attribute of ``tscnc`` or of
one of its modules, looked up at call time, so that a traced run sees it.

A workload has ``setup(seed, index)``, whose time is set-up time, and
``rep(state, i)``, one measured repetition; both derive every input from
the workload seed.  Held-out data always comes from a seed offset by
HELDOUT_SEED_OFFSET, so it is never the training draw.
``synth_blobs`` keeps the class centres fixed, so every seed poses the same
task.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import tscnc
import tscnc.metrics_io

HELDOUT_SEED_OFFSET = 1_000_000
# Each tail is this percentile; the minimum repetition count of each
# workload leaves at least ten epoch intervals or radii beyond it.
TAIL_PERCENTILE = 90
INSPECT_REPEATS = 8
# Held-out examples per evaluate call; each call is one batch and one
# latency sample.
EVAL_CHUNK = 25
KAPPA_RTOL = 1e-12


# ---------------------------------------------------------------- ledger


class Ledger:
    """Counts operations and the ones that failed a check or raised."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    @contextlib.contextmanager
    def op(self, name):
        """Yield a list for problem messages; the op fails if it ends nonempty.

        An exception inside the op is recorded with its traceback and also
        fails it, so the run goes on and reports it instead of stopping.
        """
        self.attempted += 1
        problems = []
        try:
            yield problems
        except Exception as exc:  # one op's failure must not end the run
            traceback.print_exc(file=sys.stderr)
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            self.failures.append({"op": name, "problems": problems})


# ---------------------------------------------------------------- checks


def weights_hash(net):
    h = hashlib.sha256()
    for li in net.parameterized_indices():
        layer = net.layers[li]
        for arr in (layer.W, layer.Z, layer.b):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def condition_problems(net, rows):
    """Compare condition rows with numpy's SVD of the effective weights."""
    problems = []
    for row in rows:
        if not isinstance(row, dict):
            row = dataclasses.asdict(row)
        li = row["layer"]
        s = np.linalg.svd(net.layers[li].effective_weight(), compute_uv=False)
        if abs(row["sigma_max"] - s[0]) > KAPPA_RTOL * s[0]:
            problems.append(f"layer {li}: sigma_max {row['sigma_max']!r} vs "
                            f"numpy {s[0]!r}")
        if math.isfinite(row["kappa"]):
            ref = s[0] / s[-1]
            if abs(row["kappa"] - ref) > KAPPA_RTOL * ref:
                problems.append(f"layer {li}: kappa {row['kappa']!r} vs numpy {ref!r}")
    return problems


def sparsity_problems(net, spec, records):
    """Every epoch must sit at exactly floor(p * N) zeros of the N ranked weights."""
    prunable = net.prunable_indices()
    ranked = sum(net.layers[li].Z.size for li in prunable if li not in spec.protected)
    total = sum(net.layers[li].Z.size for li in prunable)
    expected = int(np.floor(spec.sparsity * ranked)) / total
    return [f"epoch {r.epoch}: sparsity {r.sparsity!r}, expected {expected!r}"
            for r in records if r.sparsity != expected]


def accuracy_problems(result):
    return [f"{name} accuracy {acc} above clean {result['clean_acc']}"
            for name, acc in result["robust_acc"].items()
            if acc > result["clean_acc"]]


# ---------------------------------------------------------------- shared steps


def import_seconds(src):
    """Time a fresh interpreter's import of numpy and the package."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path.insert(0, {src!r}); import tscnc; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def train_like_cli(config, out_dir, tracer):
    """run_tscnc, then write what `tscnc train` writes.

    Returns the network, the per-epoch records, and the clock reading at
    each phase-2 on_epoch callback.
    """
    marks = []

    def on_epoch(rec):
        with tracer.span("bench.on_epoch"):
            marks.append(time.perf_counter())

    net, records = tscnc.run_tscnc(config, on_epoch=on_epoch)
    os.makedirs(out_dir, exist_ok=True)
    tscnc.save_checkpoint(
        os.path.join(out_dir, "model.tscn"), net,
        state={"epoch": config.epochs, "architecture": config.architecture,
               "config": {"dataset": config.dataset, "seed": config.seed}},
    )
    tscnc.metrics_io.write_metrics(records, os.path.join(out_dir, "metrics"))
    report = tscnc.prune_report(net)
    with open(os.path.join(out_dir, "prune_report.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    return net, records, marks


def inspect_like_cli(net):
    """What `tscnc inspect` computes: the condition table and the bound check."""
    crep = tscnc.condition_report(net)
    tscnc.prune_report(net)
    x = np.full(net.input_shape, 0.5)
    logits, _ = tscnc.forward(net, x[None])
    k = int(np.argsort(logits[0])[::-1][1])
    eq7 = tscnc.check_eq7(net, x, k, r=0.1, q=2, n=200, seed=0)
    return crep, eq7


# ---------------------------------------------------------------- workloads


class Workload:
    """Samples, checks and metrics shared by all three workloads."""

    name = ""

    def __init__(self, ledger, tracer, workdir, smoke=False):
        self.ledger = ledger
        self.tracer = tracer
        self.workdir = workdir
        self.smoke = smoke
        self.samples = defaultdict(list)
        self.hashes = {}
        self.report = {}

    def timed_evaluate(self, net, held, attacks, problems):
        """tscnc.evaluate on consecutive chunks of EVAL_CHUNK held-out examples.

        Each call's latency is an eval_ms sample.  The accuracies are summed
        over the chunks, so they are those of one call over the whole set,
        and are checked and recorded as such.
        """
        clean = 0
        robust = dict.fromkeys(attacks, 0)
        elapsed = 0.0
        for start in range(0, len(held), EVAL_CHUNK):
            chunk = dataclasses.replace(held, images=held.images[start:start + EVAL_CHUNK],
                                        labels=held.labels[start:start + EVAL_CHUNK])
            t0 = time.perf_counter()
            part = tscnc.evaluate(net, chunk, attacks)
            dt = time.perf_counter() - t0
            elapsed += dt
            self.samples["eval_ms"].append(dt * 1e3)
            clean += round(part["clean_acc"] * len(chunk))
            for name, acc in part["robust_acc"].items():
                robust[name] += round(acc * len(chunk))
        self.samples["eval_examples_per_s"].append(len(held) / elapsed)
        result = {"clean_acc": clean / len(held),
                  "robust_acc": {name: c / len(held) for name, c in robust.items()}}
        problems += accuracy_problems(result)
        self.samples["robust_acc"].append(result["robust_acc"]["pgd"])

    def timed_inspect(self, net, label):
        outcomes = []
        for _ in range(INSPECT_REPEATS):
            with self.ledger.op(f"inspect {label}") as problems:
                t0 = time.perf_counter()
                crep, eq7 = inspect_like_cli(net)
                self.samples["inspect_ms"].append((time.perf_counter() - t0) * 1e3)
                with self.tracer.span("bench.check"):
                    problems += condition_problems(net, crep.layers)
                    outcome = (repr(crep), repr(eq7))
                    if outcomes and outcome != outcomes[0]:
                        problems.append("repeated inspect gave another result")
                    outcomes.append(outcome)

    def metrics(self, rate_name, step_name, step_ms):
        """The end-to-end metrics, and self.report under their specific names."""
        eval_ms, inspect_ms = self.samples["eval_ms"], self.samples["inspect_ms"]
        m = {
            "setup_s": (float(np.median(self.samples["setup_s"])), "s"),
            "step_ms_tail": (float(np.percentile(step_ms, TAIL_PERCENTILE)), "ms"),
            "eval_ms_tail": (float(np.percentile(eval_ms, TAIL_PERCENTILE)), "ms"),
            "inspect_ms_tail": (float(np.percentile(inspect_ms, TAIL_PERCENTILE)), "ms"),
        }
        self.report = {
            rate_name: (float(np.median(self.samples[rate_name])), "1/s"),
            f"{step_name}_p50": (float(np.percentile(step_ms, 50)), "ms"),
            f"{step_name}_p{TAIL_PERCENTILE}": m["step_ms_tail"],
            "eval_examples_per_s": (
                float(np.median(self.samples["eval_examples_per_s"])), "1/s"),
            "eval_ms_p50": (float(np.percentile(eval_ms, 50)), "ms"),
            "inspect_s": (float(np.median(inspect_ms)) / 1e3, "s"),
            # deterministic for a seed: the value of repetition 0
            "robust_acc": (self.samples["robust_acc"][0], "fraction"),
            "samples": {step_name: len(step_ms),
                        rate_name: len(self.samples[rate_name]),
                        "eval_ms": len(eval_ms), "inspect_ms": len(inspect_ms)},
        }
        return m


class Training(Workload):
    """A README-style `tscnc train` run, then evaluate and inspect its checkpoint.

    Repetitions come in pairs on one seed, 2k and 2k + 1 on seed s + k, so
    every second one is a bitwise rerun of the one before.
    """

    setup_count = 15
    heldout = ""

    def config(self, seed):
        raise NotImplementedError

    def make_config(self, seed):
        cfg = self.config(seed)
        if self.smoke:
            cfg = dataclasses.replace(cfg, epochs=3, warmup_epochs=1)
        return cfg

    def setup(self, seed, index):
        cfg = self.make_config(seed)
        data = tscnc.load_dataset(cfg.dataset, seed=cfg.seed)
        tscnc.load_dataset(self.heldout, seed=HELDOUT_SEED_OFFSET + seed)
        tscnc.build_network(cfg.architecture, data.images.shape[1:], data.classes,
                            seed=cfg.seed)
        return {"seed": seed, "n_train": len(data)}

    def rep(self, state, i):
        seed = state["seed"] + i // 2
        cfg = self.make_config(seed)
        out = os.path.join(self.workdir, f"{self.name}-{i}")
        with self.ledger.op(f"train seed {seed}") as problems:
            t0 = time.perf_counter()
            net, records, marks = train_like_cli(cfg, out, self.tracer)
            wall = time.perf_counter() - t0
            with self.tracer.span("bench.check"):
                problems += sparsity_problems(net, cfg.prune, records)
                problems += condition_problems(net, records[-1].condition)
                self.hashes[i] = weights_hash(net)
                if i % 2 and self.hashes[i] != self.hashes.get(i - 1):
                    problems.append("rerun with the same seed gave other final weights")
            examples = state["n_train"] * (cfg.warmup_epochs + cfg.epochs)
            self.samples["train_examples_per_s"].append(examples / wall)
            self.samples["epoch_ms"].extend(np.diff(marks) * 1e3)
            self.samples["kappa_max_final"].append(records[-1].kappa_max)
        with self.ledger.op(f"evaluate seed {seed}") as problems:
            net = tscnc.load_checkpoint(os.path.join(out, "model.tscn")).net
            with self.tracer.span("bench.check"):
                if weights_hash(net) != self.hashes[i]:
                    problems.append("checkpoint round trip changed the weights")
            held = tscnc.load_dataset(self.heldout, seed=HELDOUT_SEED_OFFSET + seed)
            eps = cfg.train_attack.epsilon
            attack = {"pgd": tscnc.AttackSpec(epsilon=eps, step_size=eps / 4, steps=10)}
            self.timed_evaluate(net, held, attack, problems)
        self.timed_inspect(net, f"seed {seed}")

    def metrics(self):
        m = super().metrics("train_examples_per_s", "epoch_ms", self.samples["epoch_ms"])
        kappa = self.samples["kappa_max_final"][0]
        self.report["kappa_max_final"] = (kappa if math.isfinite(kappa) else "inf",
                                          "ratio")
        return m


class MlpQuickstart(Training):
    name = "mlp-quickstart"
    min_reps = 4  # 4 x 29 epoch intervals leaves 11 beyond p90
    heldout = "blobs-c6-d64-n200-s0.35"

    def config(self, seed):
        return tscnc.TrainConfig(
            dataset="blobs-c6-d64-n60-s0.35", architecture="mlp-32x16",
            epochs=30, batch_size=32, lr=0.1, lr_milestones=(20,),
            warmup_epochs=3, lam=0.001,
            train_attack=tscnc.AttackSpec(epsilon=0.1, step_size=0.025, steps=5,
                                          random_start=True),
            prune=tscnc.PruneSpec(sparsity=0.95), seed=seed,
        )


class CnnTrend(Training):
    name = "cnn-trend"
    min_reps = 3  # 3 x 39 epoch intervals leaves 11 beyond p90
    heldout = "blobs-c6-d64-n200-s0.6-i1x8x8"

    def config(self, seed):
        return tscnc.TrainConfig(
            dataset="blobs-c6-d64-n60-s0.6-i1x8x8", architecture="cnn-4-32",
            epochs=40, batch_size=32, lr=0.1, lr_milestones=(30,), lr_factor=0.1,
            warmup_epochs=5, lam=0.001,
            train_attack=tscnc.AttackSpec(epsilon=8 / 255, step_size=2 / 255,
                                          steps=5, random_start=True),
            eval_attacks={},
            prune=tscnc.PruneSpec(sparsity=0.9, protected=(0, 3)), seed=seed,
        )


class Diagnose(Workload):
    """`tscnc evaluate` and `tscnc inspect`, plus radii, on a trained checkpoint.

    Each set-up trains the same short seeded cnn-8x16-32 run and
    round-trips it through save_checkpoint and load_checkpoint, so every
    set-up after the first is a bitwise rerun.  Repetition i diagnoses the
    checkpoint on held-out data drawn with seed s + i.
    """

    name = "diagnose"
    min_reps = 3  # 3 x 40 radii leaves 12 beyond p90
    setup_count = 3
    dataset = "blobs-c6-d64-n60-s0.6-i1x8x8"
    heldout = "blobs-c6-d64-n100-s0.6-i1x8x8"
    radius = 0.1
    radius_points = 40
    radius_samples = 100

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.net = None
        if self.smoke:
            self.heldout = "blobs-c6-d64-n4-s0.6-i1x8x8"
            self.radius_points = 4

    def config(self, seed):
        return tscnc.TrainConfig(
            dataset=self.dataset, architecture="cnn-8x16-32",
            epochs=1 if self.smoke else 4, batch_size=32, lr=0.1,
            lr_milestones=(30,), warmup_epochs=1, lam=0.001,
            train_attack=tscnc.AttackSpec(epsilon=0.1, step_size=0.025, steps=3,
                                          random_start=True),
            eval_attacks={}, prune=tscnc.PruneSpec(sparsity=0.5), seed=seed,
        )

    @staticmethod
    def attacks():
        """The specs `tscnc evaluate --attacks pgd:0.1:10:0.025,fgsm:0.1` runs."""
        return {"pgd": tscnc.AttackSpec(epsilon=0.1, step_size=0.025, steps=10),
                "fgsm": tscnc.AttackSpec(epsilon=0.1, step_size=0.1, steps=1)}

    def setup(self, seed, index):
        out = os.path.join(self.workdir, f"model-{index}")
        with self.ledger.op(f"set up checkpoint seed {seed}") as problems:
            trained, _, _ = train_like_cli(self.config(seed), out, self.tracer)
            self.net = tscnc.load_checkpoint(os.path.join(out, "model.tscn")).net
            with self.tracer.span("bench.check"):
                self.hashes[index] = weights_hash(trained)
                if weights_hash(self.net) != self.hashes[index]:
                    problems.append("checkpoint round trip changed the weights")
                if self.hashes[index] != self.hashes[0]:
                    problems.append("rerun with the same seed gave other final weights")
        return {"seed": seed}

    def rep(self, state, i):
        seed = state["seed"] + i
        net = self.net
        held = tscnc.load_dataset(self.heldout, seed=HELDOUT_SEED_OFFSET + seed)
        with self.ledger.op(f"evaluate seed {seed}") as problems:
            self.timed_evaluate(net, held, self.attacks(), problems)
        self.timed_inspect(net, f"seed {seed}")
        points = np.random.default_rng(seed).choice(
            len(held), size=self.radius_points, replace=False)
        for j in points:
            with self.ledger.op(f"radius seed {seed} point {j}") as problems:
                t0 = time.perf_counter()
                r = tscnc.robustness_radius(net, held.images[j], r=self.radius, q=1,
                                            n=self.radius_samples, seed=int(j))
                self.samples["radius_ms"].append((time.perf_counter() - t0) * 1e3)
                if not (math.isfinite(r) and 0.0 <= r <= self.radius):
                    problems.append(f"radius {r!r} outside [0, {self.radius}]")

    def metrics(self):
        return super().metrics("eval_examples_per_s", "radius_ms",
                               self.samples["radius_ms"])


WORKLOADS = {w.name: w for w in (MlpQuickstart, CnnTrend, Diagnose)}
