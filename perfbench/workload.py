"""One benchmark workload: set-up, measured phases, checks and the report.

Imported by ``worker.py`` after it has capped the BLAS threads, because
importing this module loads numpy.

Timeline of a run: set-up (repeated SETUP_REPEATS times, see ``setup_s``),
then the measured window of ``--seconds`` split into phases by the
workload's shares, then the correctness checks. The training loop is the only client, in a
closed loop: each step starts when the previous one ends.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spec
from checks import (Tally, cli_path_count, first_step_matches, histogram_matches,
                    shards_match, states_equal)
from tracer import Patcher, Tracer, current, layer_metrics, op_rollup, tape_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MIN_SAMPLES = 3
MODULES = ("tensor", "graph", "arch", "stochastic_depth", "analysis", "data", "train", "cli")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, "
                + ", ".join(f"rornet.{m}" for m in MODULES)
                + "; print(time.perf_counter() - t)")


def machine_facts() -> dict:
    mem_kib = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kib = int(line.split()[1])
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": round(mem_kib / 1024, 1),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def percentile_with_ten_beyond(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile that still has ten samples above it, and its value."""
    n = len(samples)
    if n < 20:
        return None
    q = int(100 * (n - 10) / n)
    ordered = sorted(samples)
    return q, ordered[min(n - 1, int(q * n / 100))]


class Workload:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name = name
        self.w = spec.WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tally = Tally()
        self.tracer = Tracer() if trace else None
        self.tmp = OUT_DIR / f"tmp-{os.getpid()}"
        self.samples: dict[str, list[float]] = {}
        self.facts: dict = {"step_bounds": [], "first_step": []}
        self.first: dict = {}
        self.structure: dict = {}
        self.eval_errors: list[float] = []
        self.train_losses: list[float] = []
        self.m = {name: importlib.import_module(f"rornet.{name}") for name in MODULES}
        arch = self.m["arch"]
        self.cfg = arch.ArchConfig(**self.w["arch"])
        self.graph = None
        self.window_patches = Patcher()

    # -- helpers -----------------------------------------------------------

    def phase(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def arch_flags(self) -> list[str]:
        a = self.w["arch"]
        flags = ["--depth", str(a["depth"]), "--levels", str(a["levels_m"])]
        if "block_order" in a:
            flags += ["--order", a["block_order"]]
        if "final_shortcut" in a:
            flags += ["--final-type", a["final_shortcut"]]
        if self.w["sd_p_l"] is not None:
            flags += ["--sd-pl", str(self.w["sd_p_l"])]
        return flags + ["--seed", str(self.seed)]

    def dataset(self, images, labels, split):
        data = self.m["data"]
        return data.Dataset(images, labels, 10, split, f"{split}-{self.seed}")

    # -- set-up ------------------------------------------------------------

    def import_seconds(self) -> float:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    def make_data(self):
        """Training pool, eval set and a two-image test set, normalized."""
        data, train = self.m["data"], self.m["train"]
        w = self.w
        if "shard_images" in w:
            train_set, test_set = self.make_shards()
        else:
            train_set = data.synthetic_dataset(self.seed, 10, w["train_pool"], "medium", "train")
            test_set = data.synthetic_dataset(self.seed + 1, 10, w["eval_images"], "medium", "test")
        train_set, test_set, _ = train.normalize_dataset(train_set, test_set)
        return train_set, test_set

    def make_shards(self):
        """CIFAR-10 binary shards made from the seed, then parsed by ``load_cifar``."""
        data = self.m["data"]
        n = self.w["shard_images"]
        shard_dir = self.tmp / "cifar"
        shard_dir.mkdir(parents=True, exist_ok=True)
        files = data.C10_TRAIN_FILES + data.C10_TEST_FILES
        source = data.synthetic_dataset(self.seed, 10, n * len(files), "medium", "train")
        pixels = np.round(source.images * 255).astype(np.uint8)
        labels = source.labels.astype(np.uint8)
        total = 0
        for i, fname in enumerate(files):
            rows = np.concatenate([labels[i * n:(i + 1) * n, None],
                                   pixels[i * n:(i + 1) * n].reshape(n, -1)], axis=1)
            (shard_dir / fname).write_bytes(rows.tobytes())
            total += rows.nbytes
        train_set, test_set = data.load_cifar(shard_dir, "c10")
        cut = n * len(data.C10_TRAIN_FILES)
        self.structure["shards_ok"] = (
            shards_match(pixels[:cut], labels[:cut], train_set.images, train_set.labels)
            and shards_match(pixels[cut:], labels[cut:], test_set.images, test_set.labels))
        self.facts["shard_bytes"] = total
        return train_set, test_set

    def setup(self) -> None:
        """Import, data and build, SETUP_REPEATS times; setup_s is the median total."""
        totals = []
        for _ in range(SETUP_REPEATS):
            t_import = self.import_seconds()
            t0 = time.perf_counter()
            self.train_set, self.test_set = self.make_data()
            t1 = time.perf_counter()
            self.graph = None  # let the previous model go before building the next
            self.graph = self.m["arch"].build(self.cfg, seed=self.seed)
            t2 = time.perf_counter()
            totals.append(t_import + (t1 - t0) + (t2 - t1))
        self.samples["setup_s"] = totals
        self.facts["arch_nodes"] = len(self.graph.nodes)
        if "shards_ok" in self.structure:
            self.tally.record(self.structure["shards_ok"], "parsed shards equal source pixels / 255")

    # -- measured activities --------------------------------------------------
    # Each ``<name>_activity`` does its warm-up and returns a function that takes
    # one sample and returns its duration in seconds. ``measure`` interleaves the
    # samples of all activities over the whole window, so each metric sees the
    # whole window rather than one stretch of it: on a shared host the machine's
    # speed drifts by up to a fifth within tens of seconds.

    SAMPLE_KEYS = {"train": "train_step_s", "eval": "eval_call_s", "build": "build_s",
                   "analyze": "analyze_s", "checkpoint": "checkpoint_s"}

    def batch_set(self, batch_no: int):
        b = self.w["batch"]
        idx = (batch_no * b + np.arange(b)) % len(self.train_set)
        return self.dataset(self.train_set.images[idx], self.train_set.labels[idx], "train")

    def train_config(self, seed: int):
        return self.m["train"].TrainConfig(
            base_lr=self.w["base_lr"], milestones=(), max_epochs=1, batch_size=self.w["batch"],
            sd_p_l=self.w["sd_p_l"], seed=seed)

    def train_activity(self):
        """One ``train.train`` call per step, each over one batch.

        Step ``i`` uses trainer seed MAIN + i, so its augmentation and drop-path
        gates are the same on every run whatever the timing. A step is timed
        from the call to the end of its ``sgd_step``; the epoch-end evaluate
        of the two-image test set falls outside it.
        """
        train = self.m["train"]
        tiny = self.dataset(self.test_set.images[:2], self.test_set.labels[:2], "test")
        t0 = time.perf_counter()
        with self.capture_first_step():
            log = train.train(self.graph, self.batch_set(0), tiny,
                              self.train_config(spec.WARMUP_TRAINER_SEED))
        self.facts["first_step"] = [(t0, self.first["tick"])]
        self.train_losses += [r.train_loss for r in log.rows]

        ticks: list[float] = []
        sgd = current("rornet.train", "sgd_step")

        def clocked_sgd(*args, **kwargs):
            result = sgd(*args, **kwargs)
            ticks.append(time.perf_counter())
            return result

        self.window_patches.replace("rornet.train", "sgd_step", clocked_sgd)
        steps = self.facts["step_bounds"]

        def step():
            i = len(steps)
            start = time.perf_counter()
            log = train.train(self.graph, self.batch_set(1 + i), tiny,
                              self.train_config(spec.MAIN_TRAINER_SEED + i))
            steps.append((start, ticks[-1]))
            self.train_losses += [r.train_loss for r in log.rows]
            return ticks[-1] - start
        return step

    @contextlib.contextmanager
    def capture_first_step(self):
        """Record the first step's batch, gates, loss and stem gradient."""
        first = self.first
        model = self.graph
        forward = current("rornet.train", "forward")
        loss_fn = current("rornet.tensor", "softmax_cross_entropy")
        sgd = current("rornet.train", "sgd_step")

        def forward_spy(graph, x, mode="train", gates=None, **kwargs):
            if mode == "train" and "x" not in first:
                first["x"], first["gates"] = x, gates
            return forward(graph, x, mode=mode, gates=gates, **kwargs)

        def loss_spy(logits, labels):
            loss = loss_fn(logits, labels)
            if "loss" not in first:
                first["labels"], first["loss"] = labels, float(loss.data)
                if self.tracer:
                    self.facts["tape_bytes"] = tape_bytes(
                        loss, [p.data for p in model.params.values()])
            return loss

        def sgd_spy(*args, **kwargs):
            if "grad" not in first:
                first["grad"] = model.params["stem.conv.weight"].tensor.grad.copy()
            result = sgd(*args, **kwargs)
            first.setdefault("tick", time.perf_counter())
            return result

        with Patcher() as patch:
            patch.replace("rornet.train", "forward", forward_spy)
            patch.replace("rornet.tensor", "softmax_cross_entropy", loss_spy)
            patch.replace("rornet.train", "sgd_step", sgd_spy)
            yield

    def eval_activity(self):
        train, sd = self.m["train"], self.m["stochastic_depth"]
        schedule = None
        if self.w["sd_p_l"] is not None:
            schedule = sd.survival_schedule(self.graph.meta["num_blocks"], self.w["sd_p_l"])
        n = self.w["eval_images"]
        eval_set = self.dataset(self.test_set.images[:n], self.test_set.labels[:n], "test")

        def call():
            start = time.perf_counter()
            err = train.evaluate(self.graph, eval_set, batch_size=self.w["eval_batch"],
                                 schedule=schedule)
            elapsed = time.perf_counter() - start
            self.eval_errors.append(err)
            return elapsed

        call()  # warm-up: the first call faults in the eval-sized buffers
        return call

    def build_activity(self):
        """Build the model (the timed part), then analyse and export it."""
        arch, analysis = self.m["arch"], self.m["analysis"]

        def call():
            start = time.perf_counter()
            graph = arch.build(self.cfg, seed=self.seed)
            elapsed = time.perf_counter() - start
            ir = graph.to_jsonl()
            self.structure.update(params=analysis.count_params(graph),
                                  paths=analysis.count_paths(graph),
                                  ir_lines=ir.count("\n"), nodes=len(graph.nodes))
            return elapsed
        return call

    def analyze_activity(self):
        cli = self.m["cli"]
        argv = ["analyze"] + self.arch_flags()

        def call():
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            elapsed = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"rornet analyze exited {code}")
            self.structure["cli_output"] = buf.getvalue()
            return elapsed
        return call

    def checkpoint_activity(self):
        data = self.m["data"]
        path = self.tmp / "model.ckpt"
        state = self.graph.state_dict()
        self.structure["state"] = state

        def call():
            start = time.perf_counter()
            data.save_checkpoint(path, state)
            self.structure["loaded"], _ = data.load_checkpoint(path)
            elapsed = time.perf_counter() - start
            self.facts["checkpoint_bytes"] = path.stat().st_size
            return elapsed
        return call

    def measure(self) -> float:
        """Warm up every activity, then sample them in turn until the window ends.

        The next sample goes to the activity furthest below its share of the
        time spent so far. Once the window is over, activities that have fewer
        than MIN_SAMPLES get the rest of theirs. An activity that fails is
        counted and dropped.
        """
        start = time.perf_counter()
        shares = self.w["shares"]
        sample_fns, spent = {}, {}
        for name in shares:
            with self.phase(f"bench.{name}_warmup"):
                ok, fn = self.tally.run(f"{name} warm-up", getattr(self, f"{name}_activity"))
            if ok:
                sample_fns[name], spent[name] = fn, 0.0
                self.samples[self.SAMPLE_KEYS[name]] = []
        while sample_fns:
            candidates = sample_fns
            if time.perf_counter() - start >= self.seconds:
                candidates = [n for n in sample_fns
                              if len(self.samples[self.SAMPLE_KEYS[n]]) < MIN_SAMPLES]
                if not candidates:
                    break
            name = min(candidates, key=lambda n: spent[n] / shares[n])
            t0 = time.perf_counter()
            with self.phase(f"bench.{name}"):
                ok, sample = self.tally.run(name, sample_fns[name])
            spent[name] += time.perf_counter() - t0
            if ok:
                self.samples[self.SAMPLE_KEYS[name]].append(sample)
            else:
                del sample_fns[name]
        return time.perf_counter() - start

    # -- checks --------------------------------------------------------------

    def check(self) -> None:
        t = self.tally
        t.record(bool(self.train_losses) and all(np.isfinite(self.train_losses)),
                 "every logged training loss is finite")
        t.record(bool(self.eval_errors) and all(0.0 <= e <= 100.0 for e in self.eval_errors),
                 "evaluate returns an error percentage")
        if self.w["check_float64"]:
            ok, msg = self.first_step_check() if "grad" in self.first else (False, "not captured")
            t.record(ok, f"first step vs float64 rebuild: {msg}")
            print(f"check: first step vs float64 rebuild: {msg}")
        s = self.structure
        if "params" in s:
            report, paths = s["params"], s["paths"]
            expected = self.w.get("expected_params")
            t.record(sum(c for _, c in report.scopes) == report.total
                     and (expected is None or report.total == expected),
                     f"parameter total {report.total} (expected {expected or 'breakdown sum'})")
            t.record(histogram_matches(paths.count, paths.length_histogram),
                     "path-length histogram sums to the path count")
            t.record(cli_path_count(s.get("cli_output", "")) == paths.count,
                     "rornet analyze prints the same path count")
            t.record(s["ir_lines"] == s["nodes"], "graph JSON lines: one per node")
        else:
            t.record(False, "structure phase produced no graph")
        t.record("loaded" in s and states_equal(s.get("state", {}), s["loaded"]),
                 "checkpoint round trip is bitwise equal")

    def first_step_check(self):
        arch, graph, tensor = self.m["arch"], self.m["graph"], self.m["tensor"]
        first = self.first
        g64 = arch.build(self.cfg, seed=self.seed, dtype=np.float64)
        logits = graph.forward(g64, first["x"].astype(np.float64), mode="train",
                               gates=first["gates"])
        tensor.backward(tensor.softmax_cross_entropy(logits, first["labels"]))
        grad64 = g64.params["stem.conv.weight"].tensor.grad
        return first_step_matches(first["loss"], first["grad"], logits.data,
                                  first["labels"], grad64)

    # -- the run -------------------------------------------------------------

    def run(self) -> dict:
        self.tmp.mkdir(parents=True, exist_ok=True)
        try:
            if self.tracer:
                self.tracer.install()
            with self.phase("bench.setup"):
                self.setup()
            with self.window_patches:
                window = self.measure()
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if self.tracer:
                self.tracer.uninstall()  # the checks are not traced
            self.check()
            return self.report(window, peak_rss)
        finally:
            if self.tracer:
                self.tracer.uninstall()
            shutil.rmtree(self.tmp, ignore_errors=True)

    def report(self, window: float, peak_rss: float) -> dict:
        s, w = self.samples, self.w

        def med(key):
            # a phase with no samples failed, which the tally already counts
            return statistics.median(s[key]) if s.get(key) else 0.0

        def per(n, key):
            return n / med(key) if med(key) else 0.0

        def fastest(key):
            return min(s[key]) if s.get(key) else 0.0

        values = {
            "train_img_per_s": (per(w["batch"], "train_step_s"), "train_step_s"),
            "eval_img_per_s": (per(w["eval_images"], "eval_call_s"), "eval_call_s"),
            "peak_rss_mb": (peak_rss, None),
        }
        for key in ("setup_s", "build_s", "analyze_s", "checkpoint_s"):
            values[key] = (fastest(key) if key in w["fastest_of"] else med(key), key)
        e2e = {}
        for name, (value, key) in values.items():
            entry = {"value": value, "unit": spec.E2E_UNITS[name]}
            if key is not None:
                samples = s.get(key, [])
                entry["samples"] = len(samples)
                entry["sample_of"] = key
                entry["statistic"] = "fastest" if name in w["fastest_of"] else "median"
                entry["median_s"] = med(key)
                entry["tail"] = percentile_with_ten_beyond(samples)
            e2e[name] = entry
        result = {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "window_s": window, "trace": bool(self.tracer), "machine": machine_facts(),
            "e2e": e2e, "attempted": self.tally.attempted, "failed": self.tally.failed,
            "fail_ratio": self.tally.fail_ratio, "failures": self.tally.failures,
            "samples": self.samples,
        }
        if self.tracer:
            result["per_layer"] = layer_metrics(self.tracer, self.facts)
            result["rollup"] = op_rollup(self.tracer)
            spans_path = OUT_DIR / f"trace-{self.name}-seed{self.seed}.jsonl"
            self.tracer.write(spans_path)
            result["spans_file"] = os.path.relpath(spans_path, ROOT)
        return result
